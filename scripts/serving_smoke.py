#!/usr/bin/env python3
"""CI smoke for the serving layer: a real server, end to end.

Starts ``repro-serve`` as a subprocess on an ephemeral port, fires a
concurrent batch of tuning requests at it, and asserts the three
serving-layer contracts:

1. **Coalescing engaged** — the ``/metrics`` coalescing counter is
   positive (the batch really was answered from shared sweeps, not
   served one by one).
2. **Bit-equality** — every response ``result`` equals the offline
   ``repro.api.tune`` answer for the same request, byte for byte once
   JSON-encoded.
3. **Malformed heads refused** — a negative ``Content-Length`` and a
   header line past the server's stream limit each get a 400
   ``bad-request``, and the next valid request is still answered.
4. **Graceful drain** — SIGTERM makes the server drain and exit with
   code 130 (the documented contract, shared with ``repro-campaign``).

With ``--workers N`` the server runs its warm process pool and the
smoke additionally asserts the ``/metrics`` ``worker_pool`` gauges
report the requested width (a pooled server needs a concurrent-writer
``--store``, e.g. a ``.sqlite`` path — CI passes one).

Usage (CI runs it from the repo root)::

    python scripts/serving_smoke.py
    python scripts/serving_smoke.py --workers 2 --store smoke.sqlite
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import api  # noqa: E402
from repro.serve.schema import WIRE_VERSION  # noqa: E402

BENCHMARK = "EP"
STRIDE = 2
OBJECTIVES = ("energy", "edp", "ed2p")


async def http(port: int, method: str, path: str, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    ).encode("ascii") + data
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


#: Malformed request heads the server must refuse with a 400.
MALFORMED_HEADS = {
    "negative Content-Length": (
        b"POST /v1/tune HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Length: -5\r\n\r\n"
    ),
    "oversized header line": (
        b"GET /healthz HTTP/1.1\r\nX-Oversized: "
        + b"a" * (70 * 1024)
        + b"\r\n\r\n"
    ),
}


async def raw_http(port: int, data: bytes):
    """Send raw request bytes; read the response by its Content-Length
    (the server may reset the connection once it has answered)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
    payload = await reader.readexactly(length)
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return int(head.split()[1]), json.loads(payload)


async def exercise(port: int, workers: int = 1) -> None:
    payloads = [
        {
            "version": WIRE_VERSION,
            "benchmark": BENCHMARK,
            "stride": STRIDE,
            "objective": objective,
        }
        for objective in OBJECTIVES
    ]
    responses = await asyncio.gather(
        *(http(port, "POST", "/v1/tune", p) for p in payloads)
    )
    for payload, (status, envelope) in zip(payloads, responses):
        assert status == 200, (status, envelope)
        offline = api.tune(
            api.TuningRequest(
                BENCHMARK, stride=STRIDE, objective=payload["objective"]
            )
        )
        served = json.dumps(envelope["result"], sort_keys=True)
        expected = json.dumps(offline.payload(), sort_keys=True)
        assert served == expected, (
            f"served result for {payload['objective']} differs from "
            f"offline repro.api.tune:\n  served:  {served}\n"
            f"  offline: {expected}"
        )
    print(f"bit-equality: {len(payloads)} responses match offline tune()")

    status, metrics = await http(port, "GET", "/metrics")
    assert status == 200
    assert metrics["coalesced"] > 0, f"no coalescing happened: {metrics}"
    print(
        f"coalescing: {metrics['coalesced']} request(s) coalesced across "
        f"{metrics['groups_fired']} group(s)"
    )

    pool = metrics["worker_pool"]
    if workers > 1:
        assert pool["workers"] == workers, (
            f"pool did not come up at the requested width: {pool}"
        )
        assert "fallback" not in pool, pool
        assert pool["groups_executed"] > 0, pool
        print(
            f"worker pool: {pool['workers']} workers, "
            f"{pool['groups_executed']} group(s) executed across "
            f"{len(pool['groups_per_worker'])} process(es)"
        )
    else:
        assert pool["workers"] == 1, pool

    status, health = await http(port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok", health

    for label, data in MALFORMED_HEADS.items():
        status, envelope = await raw_http(port, data)
        assert status == 400, (label, status, envelope)
        assert envelope["error"]["code"] == "bad-request", (label, envelope)
        status, health = await http(port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok", (label, health)
    print(
        f"malformed heads: {len(MALFORMED_HEADS)} refused with 400, "
        "server still answering"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="run the server's warm process pool at this width")
    parser.add_argument("--store", default=None,
                        help="result-store path handed to the server "
                             "(pooled smoke needs a concurrent backend)")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH", "")])
    )
    command = [
        sys.executable,
        "-m",
        "repro.serve.server",
        "--port",
        "0",
        "--workers",
        str(args.workers),
    ]
    if args.store is not None:
        command += ["--store", args.store]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving on http://"), (
            banner or process.stderr.read()
        )
        port = int(banner.rsplit(":", 1)[1])
        print(banner)

        asyncio.run(exercise(port, workers=args.workers))

        process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while process.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        code = process.poll()
        assert code == 130, (
            f"expected drain exit code 130, got {code}: "
            f"{process.stderr.read()}"
        )
        print("graceful drain: SIGTERM -> exit 130")
        print("serving smoke passed")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main())
