"""Tuning-as-a-service: the long-running front end of the facade.

The package turns :func:`repro.api.tune` into a service:

* :mod:`repro.serve.schema` — the versioned wire format (request
  parsing, ok/error response envelopes);
* :mod:`repro.serve.batcher` — the coalescing queue: pending requests
  sharing a grid key are answered from **one** pass of the fleet
  kernel, bit-identical to solo execution;
* :mod:`repro.serve.service` — the request lifecycle (admission →
  dedup → coalesce → execute → respond) with store-backed caching,
  PR-7 failure semantics and graceful drain;
* :mod:`repro.serve.server` — a stdlib asyncio HTTP/1.1 front end
  (``repro-serve``).
"""

from repro.serve.batcher import CoalescingBatcher, answer_group
from repro.serve.schema import (
    WIRE_VERSION,
    error_response,
    ok_response,
    parse_request,
    request_payload,
)
from repro.serve.server import TuningServer
from repro.serve.service import ServiceMetrics, TuningService

__all__ = [
    "WIRE_VERSION",
    "parse_request",
    "request_payload",
    "ok_response",
    "error_response",
    "CoalescingBatcher",
    "answer_group",
    "ServiceMetrics",
    "TuningService",
    "TuningServer",
]
