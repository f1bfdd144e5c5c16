"""Live-server integration: real sockets, concurrent clients, SIGTERM.

The in-process tests bind a :class:`TuningServer` to an ephemeral port
and speak actual HTTP/1.1 over asyncio streams; the subprocess test
runs ``python -m repro.serve.server`` end to end and asserts the
documented drain contract (SIGTERM → responses still delivered →
exit code 130).
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.serve import server as server_module
from repro.serve.schema import WIRE_VERSION
from repro.serve.server import (
    _REASONS,
    DRAIN_EXIT_CODE,
    MAX_HEADER_COUNT,
    TuningServer,
)
from repro.serve.service import TuningService


async def http(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode("ascii") + data
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


class TestLiveServer:
    def test_concurrent_clients_coalesce_and_match_offline(self):
        async def scenario():
            service = TuningService(max_batch=8)
            server = TuningServer(service, port=0)
            host, port = await server.start()
            payloads = [
                {
                    "version": WIRE_VERSION,
                    "benchmark": "EP",
                    "stride": 7,
                    "objective": objective,
                }
                for objective in ("energy", "edp", "ed2p")
            ]
            responses = await asyncio.gather(
                *(http(host, port, "POST", "/v1/tune", p) for p in payloads)
            )
            _, metrics = await http(host, port, "GET", "/metrics")
            _, health = await http(host, port, "GET", "/healthz")
            await server.aclose()
            return payloads, responses, metrics, health

        payloads, responses, metrics, health = asyncio.run(scenario())
        assert health == {"status": "ok", "draining": False}
        assert metrics["coalesced"] >= 1
        for payload, (status, envelope) in zip(payloads, responses):
            assert status == 200
            offline = api.tune(
                api.TuningRequest(
                    "EP", stride=7, objective=payload["objective"]
                )
            )
            assert envelope["result"] == offline.payload()

    def test_http_error_mapping(self):
        async def scenario():
            service = TuningService()
            server = TuningServer(service, port=0)
            host, port = await server.start()
            results = {
                "bad_version": await http(
                    host, port, "POST", "/v1/tune",
                    {"version": 99, "benchmark": "EP"},
                ),
                "bad_value": await http(
                    host, port, "POST", "/v1/tune",
                    {"version": WIRE_VERSION, "benchmark": "NoSuch"},
                ),
                "not_json": None,
                "no_route": await http(host, port, "GET", "/nope"),
                "wrong_method": await http(host, port, "GET", "/v1/tune"),
            }
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /v1/tune HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            results["not_json"] = int(raw.split()[1])
            await server.aclose()
            return results

        results = asyncio.run(scenario())
        assert results["bad_version"][0] == 400
        assert results["bad_value"][0] == 400
        assert results["bad_value"][1]["error"]["code"] == "bad-value"
        assert results["not_json"] == 400
        assert results["no_route"][0] == 404
        assert results["wrong_method"][0] == 405


async def raw_exchange(host, port, data):
    """Send raw request bytes; return (status, envelope)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def exchange_in_memory(data, limit=2**16):
    """Run one request head through the exchange parser, no sockets."""

    async def scenario():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        server = TuningServer(TuningService())
        return await server._handle_exchange(reader)

    return asyncio.run(scenario())


class TestMalformedHeads:
    """Malformed request heads get a 400, never a dropped connection."""

    def test_negative_content_length_is_bad_request(self):
        async def scenario():
            server = TuningServer(TuningService(), port=0)
            host, port = await server.start()
            bad = await raw_exchange(
                host, port,
                b"POST /v1/tune HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            )
            health = await http(host, port, "GET", "/healthz")
            await server.aclose()
            return bad, health

        (status, envelope), health = asyncio.run(scenario())
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"
        assert "Content-Length" in envelope["error"]["message"]
        assert health[0] == 200

    def test_header_line_over_stream_limit_is_bad_request(self):
        data = (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024) + b"\r\n\r\n"
        )
        status, envelope = exchange_in_memory(data)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"
        assert "too long" in envelope["error"]["message"]

    def test_header_count_is_capped(self):
        headers = b"".join(
            b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_COUNT + 1)
        )
        status, envelope = exchange_in_memory(
            b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 400
        assert "header lines" in envelope["error"]["message"]
        at_cap = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_COUNT))
        status, _ = exchange_in_memory(
            b"GET /healthz HTTP/1.1\r\n" + at_cap + b"\r\n"
        )
        assert status == 200

    def test_truncated_body_is_bad_request(self):
        status, envelope = exchange_in_memory(
            b"POST /v1/tune HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"
        )
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"


class TestStalledClients:
    """A client that stops sending mid-request gets a 408, then EOF,
    instead of holding its connection open."""

    @pytest.mark.parametrize(
        "partial",
        [
            b"POST /v1/tune HTTP/1.1\r\nContent-Le",
            b'POST /v1/tune HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"ver',
        ],
        ids=["mid-head", "mid-body"],
    )
    def test_stalled_request_times_out(self, monkeypatch, partial):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2, raising=False)

        async def scenario():
            server = TuningServer(TuningService(), port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(partial)
            await writer.drain()
            try:
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                at_eof = reader.at_eof()
            finally:
                writer.close()
                await writer.wait_closed()
                await server.aclose()
            return raw, at_eof

        raw, at_eof = asyncio.run(scenario())
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.split()[1:3] == [b"408", b"Request"]
        assert json.loads(payload)["error"]["code"] == "bad-request"
        assert at_eof


#: Request-head fragments: protocol tokens the parser branches on, mixed
#: with arbitrary bytes.
_HEAD_TOKENS = st.sampled_from(
    [
        b"GET", b"POST", b"PUT", b"/v1/tune", b"/healthz", b"/metrics",
        b"HTTP/1.1", b"Content-Length:", b"content-length: ", b"-5", b"0",
        b"2", b"+1", b"\xb2", b"{}", b"null", b"\r\n", b"\n", b" ", b":",
    ]
)
_HEADS = st.one_of(
    st.binary(max_size=400),
    st.lists(st.one_of(_HEAD_TOKENS, st.binary(max_size=24)), max_size=48).map(
        b"".join
    ),
)


class TestRequestHeadFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=_HEADS, limit=st.sampled_from([64, 2**16]))
    def test_any_head_gets_a_known_status(self, data, limit):
        status, payload = exchange_in_memory(data, limit=limit)
        assert status in _REASONS
        json.dumps(payload)


class TestSubprocessDrain:
    # real process, real SIGTERM: runs with the chaos suite, like the
    # campaign drain tests
    @pytest.mark.chaos
    def test_sigterm_drains_and_exits_130(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_repo_src()), env.get("PYTHONPATH", "")])
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve.server",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on http://"), banner
            port = int(banner.rsplit(":", 1)[1])

            async def one_request():
                return await http(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/tune",
                    {"version": WIRE_VERSION, "benchmark": "EP", "stride": 7},
                )

            status, envelope = asyncio.run(one_request())
            assert status == 200
            offline = api.tune(api.TuningRequest("EP", stride=7))
            assert envelope["result"] == offline.payload()

            process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30
            while process.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert process.poll() == DRAIN_EXIT_CODE, process.stderr.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


def _repo_src():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)), "src")
