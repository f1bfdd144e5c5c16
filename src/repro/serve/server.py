"""``repro-serve``: a stdlib asyncio HTTP/1.1 front end for the service.

The server is deliberately minimal — ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 exchange (request line, headers, Content-Length
body, ``Connection: close``) — because the container bakes in no web
framework and the wire protocol is three routes of JSON:

``POST /v1/tune``
    One wire-schema request (:mod:`repro.serve.schema`) in, one
    envelope out.  HTTP status mirrors the envelope: 200 for ``ok``,
    400 for ``bad-request``/``bad-value``, 409 for ``quarantined``,
    503 for ``draining``, 500 otherwise; a request that does not arrive
    within :data:`READ_TIMEOUT_S` gets a 408 ``bad-request``.
``GET /healthz``
    ``{"status": "ok", "draining": false}`` — liveness and drain state.
``GET /metrics``
    :meth:`TuningService.metrics_payload` verbatim (request counters,
    cache hits, in-flight joins, coalescing counters).

On SIGTERM/SIGINT the server stops accepting connections, drains the
service (pending groups flush, in-flight requests get their
responses), and the process exits with code 130 — the same drain
contract and exit code as ``repro-campaign run`` (documented in
``docs/cli.md``).

Run it as ``repro-serve --port 0`` for an ephemeral port; the chosen
address is printed as ``serving on http://HOST:PORT`` on stdout, which
is what the CI smoke harness and the integration tests scrape.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Any

from repro.campaign.store import ResultStore
from repro.serve import batcher as batching
from repro.serve.schema import error_response
from repro.serve.service import DEFAULT_DRAIN_DEADLINE_S, TuningService

__all__ = ["TuningServer", "main"]

#: Exit code after a graceful SIGTERM/SIGINT drain (mirrors
#: ``repro-campaign run``).
DRAIN_EXIT_CODE = 130

_STATUS_BY_CODE = {
    "bad-request": 400,
    "bad-value": 400,
    "quarantined": 409,
    "draining": 503,
    "execution-error": 500,
    "internal": 500,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Refuse bodies past this size before reading them (a tuning request
#: is a few hundred bytes; a TMM-carrying one a few kilobytes).
MAX_BODY_BYTES = 1 << 20

#: Refuse request heads with more header lines than this (a client
#: sends a handful), so one connection cannot keep the reader looping.
MAX_HEADER_COUNT = 64

#: Deadline for receiving a whole request, head and body, counted from
#: the moment the connection opens: a stalled or trickling client gets a
#: 408 instead of holding its connection (and the drain) open.
READ_TIMEOUT_S = 10.0

_HEAD_LINE_TOO_LONG = "request head line too long"


class TuningServer:
    """Bind a :class:`TuningService` to an asyncio TCP listener."""

    def __init__(self, service: TuningService, *, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    async def start(self) -> tuple[str, int]:
        """Start listening; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        return host, port

    async def aclose(self) -> None:
        """Stop accepting, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.aclose()

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain and return."""
        await self.start()
        print(f"serving on http://{self.host}:{self.port}", flush=True)
        await stop.wait()
        print("draining", flush=True)
        await self.aclose()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_exchange(reader)
            body = json.dumps(payload).encode("utf-8")
            reason = _REASONS.get(status, "OK")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except ConnectionError:
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_exchange(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        # One deadline bounds the whole request read, head and body.
        deadline = asyncio.get_running_loop().time() + READ_TIMEOUT_S
        try:
            async with asyncio.timeout_at(deadline):
                request_line = await _read_head_line(reader)
                if request_line is None:
                    return 400, error_response("bad-request", _HEAD_LINE_TOO_LONG)
                parts = request_line.split()
                if len(parts) != 3:
                    return 400, error_response(
                        "bad-request", "malformed request line"
                    )
                method, path, _ = parts
                length = 0
                for _ in range(MAX_HEADER_COUNT + 1):
                    line = await _read_head_line(reader)
                    if line is None:
                        return 400, error_response(
                            "bad-request", _HEAD_LINE_TOO_LONG
                        )
                    if not line:
                        break
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        value = value.strip()
                        if not (value.isascii() and value.isdigit()):
                            return 400, error_response(
                                "bad-request", "malformed Content-Length"
                            )
                        length = int(value)
                else:
                    return 400, error_response(
                        "bad-request", f"more than {MAX_HEADER_COUNT} header lines"
                    )
        except TimeoutError:
            return 408, _read_timed_out()
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok", "draining": self.service.draining}
        if method == "GET" and path == "/metrics":
            return 200, self.service.metrics_payload()
        if path != "/v1/tune":
            return 404, error_response("bad-request", f"no such route: {path}")
        if method != "POST":
            return 405, error_response(
                "bad-request", "POST /v1/tune is the only method here"
            )
        if length > MAX_BODY_BYTES:
            return 413, error_response(
                "bad-request", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            async with asyncio.timeout_at(deadline):
                body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return 400, error_response(
                "bad-request", "body shorter than Content-Length"
            )
        except TimeoutError:
            return 408, _read_timed_out()
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, error_response("bad-request", f"body is not JSON: {exc}")
        envelope = await self.service.handle(payload)
        if envelope.get("status") == "ok":
            return 200, envelope
        code = envelope.get("error", {}).get("code", "internal")
        return _STATUS_BY_CODE.get(code, 500), envelope


def _read_timed_out() -> dict[str, Any]:
    return error_response(
        "bad-request", f"request not received within {READ_TIMEOUT_S} s"
    )


async def _read_head_line(reader: asyncio.StreamReader) -> str | None:
    """One request-head line, stripped; ``None`` past the stream limit."""
    try:
        line = await reader.readline()
    except ValueError:  # StreamReader's signal for a line over its limit
        return None
    return line.decode("latin-1").strip()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve tuning requests over HTTP/JSON with store-backed "
            "dedup and cross-request batching (see docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 picks an ephemeral port, printed on stdout)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result-store path for persistent dedup (omit for in-memory)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=batching.DEFAULT_MAX_BATCH,
        help="flush a coalescing group at this many members",
    )
    parser.add_argument(
        "--retry-failed",
        action="store_true",
        help="retry jobs with persisted failure records instead of refusing them",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="execute independent coalesced groups on this many warm "
             "worker processes (needs a concurrent-writer store backend, "
             "SQLite; JSONL/in-memory stores fall back to the serial "
             "in-process path)",
    )
    parser.add_argument(
        "--drain-deadline-s",
        type=float,
        default=DEFAULT_DRAIN_DEADLINE_S,
        help="on SIGTERM/SIGINT, cancel groups still queued after this "
             "many seconds with a structured 'draining' error instead "
             "of waiting forever (running groups always finish)",
    )
    parser.add_argument(
        "--warm",
        nargs="*",
        default=[],
        metavar="BENCHMARK",
        help="preload these benchmarks' caches before the worker pool "
             "forks, so steady-state dispatch pays no warm-up",
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    store = ResultStore(args.store) if args.store is not None else None
    service = TuningService(
        store=store,
        max_batch=args.max_batch,
        retry_failed=args.retry_failed,
        workers=args.workers,
        drain_deadline_s=args.drain_deadline_s,
        warm=tuple(args.warm),
    )
    if service.pool_fallback is not None:
        print(f"workers fallback: {service.pool_fallback}", flush=True)
    server = TuningServer(service, host=args.host, port=args.port)
    stop = asyncio.Event()
    drained_by_signal = False

    def request_drain() -> None:
        nonlocal drained_by_signal
        drained_by_signal = True
        stop.set()

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, request_drain)
    await server.serve_until(stop)
    if store is not None:
        store.close()
    return DRAIN_EXIT_CODE if drained_by_signal else 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point for ``repro-serve``."""
    args = _build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # signal handler not yet installed
        return DRAIN_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
