"""The serving wire format, version 1.

One request/response schema serves every caller: the HTTP service
(:mod:`repro.serve.server`), ``repro-tune --json`` and the benchmark
load generator all speak exactly this format, so batch and interactive
consumers parse one shape.

A request is a JSON object::

    {"version": 1, "benchmark": "Lulesh", "threads": 24,
     "objective": "energy", "tmm": null, "stride": 1,
     "node_id": 0, "seed": 42}

``version`` and ``benchmark`` are required; everything else defaults as
in :class:`repro.api.TuningRequest`.  Unknown fields are rejected —
silently ignoring them would hide client typos (``"objectve"``) as
wrong answers.

Responses are envelopes tagged ``status``::

    {"version": 1, "status": "ok", "result": {...TuningAnswer...},
     "meta": {"cached": false, "coalesced": 3}}
    {"version": 1, "status": "error",
     "error": {"code": "bad-request", "message": "..."}}

``result`` is exactly :meth:`repro.api.TuningAnswer.payload` — floats
serialise via ``repr`` (shortest round trip), so a response body being
byte-comparable means the answers are bit-identical.

Malformed payloads raise :class:`~repro.errors.SchemaError` (shape/
type/version problems); semantically invalid requests raise
:class:`~repro.errors.TuningError` (unknown benchmark/objective, bad
stride) from :meth:`TuningRequest.validate`, and values that only the
simulated hardware could reject (node id, thread count, tuning model)
raise it from :func:`check_admissible`.  The service maps both to
structured error responses before a request joins any group, through
the one error-to-envelope mapping, :func:`exception_response`.
"""

from __future__ import annotations

from typing import Any

from repro import config
from repro.api import TuningAnswer, TuningRequest
from repro.errors import (
    CampaignQuarantined,
    JobError,
    ReproError,
    SchemaError,
    TuningError,
    TuningModelError,
    WorkloadError,
)
from repro.execution.simulator import OperatingPoint, resolve_threads
from repro.hardware.cluster import Cluster
from repro.hardware.topology import NodeTopology
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry

__all__ = [
    "WIRE_VERSION",
    "ERROR_CODES",
    "parse_request",
    "check_admissible",
    "request_payload",
    "ok_response",
    "error_response",
    "exception_response",
]

#: Bump on any incompatible change to the request or response shape.
WIRE_VERSION = 1

#: Every error code a response may carry.
#:
#: ``bad-request``     malformed payload (shape, types, version)
#: ``bad-value``       well-formed but semantically invalid request
#: ``quarantined``     a store holds failure records for the request's jobs
#: ``execution-error`` the simulation failed definitively, persisting nothing
#: ``draining``        the service is shutting down; retry elsewhere
#: ``internal``        unexpected server-side failure
ERROR_CODES: tuple[str, ...] = (
    "bad-request",
    "bad-value",
    "quarantined",
    "execution-error",
    "draining",
    "internal",
)

#: Wire field -> (accepted types, default).  ``threads`` and ``tmm``
#: are nullable; the rest must carry their type when present.
_OPTIONAL_FIELDS: dict[str, tuple[tuple[type, ...], Any]] = {
    "threads": ((int, type(None)), None),
    "objective": ((str,), "energy"),
    "tmm": ((str, type(None)), None),
    "stride": ((int,), 1),
    "node_id": ((int,), 0),
    "seed": ((int,), config.DEFAULT_SEED),
}


def _type_names(types: tuple[type, ...]) -> str:
    return " or ".join(
        "null" if t is type(None) else t.__name__ for t in types
    )


def parse_request(payload: Any) -> TuningRequest:
    """Parse and validate one wire request into a `TuningRequest`.

    Raises :class:`SchemaError` on shape problems, and lets
    :class:`~repro.errors.TuningError` from semantic validation
    propagate (unknown benchmark, unknown objective, stride < 1).
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("version")
    if version is None:
        raise SchemaError("request is missing the 'version' field")
    if version != WIRE_VERSION:
        raise SchemaError(
            f"unsupported wire version {version!r}; "
            f"this server speaks version {WIRE_VERSION}"
        )
    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise SchemaError("'benchmark' must be a non-empty string")
    known = {"version", "benchmark", *_OPTIONAL_FIELDS}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SchemaError(
            f"unknown request field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    values: dict[str, Any] = {}
    for name, (types, default) in _OPTIONAL_FIELDS.items():
        value = payload.get(name, default)
        # bool is an int subclass; "threads": true must not parse.
        if isinstance(value, bool) or not isinstance(value, types):
            raise SchemaError(
                f"'{name}' must be {_type_names(types)}, "
                f"got {type(value).__name__}"
            )
        values[name] = value
    request = TuningRequest(benchmark=benchmark, **values)
    request.validate()
    return request


def check_admissible(request: TuningRequest, cluster: Cluster) -> None:
    """Reject a resolved request that would fail inside execution.

    :func:`parse_request` checks shape and names; this checks the values
    only the simulated platform knows are wrong: ``node_id`` outside
    ``cluster``, a ``threads`` count the node cannot run, and a ``tmm``
    that does not parse or programs a frequency or thread count the
    node does not support.  Raises :class:`~repro.errors.TuningError`
    (the ``bad-value`` code), so one bad request is refused on its own
    instead of failing every request coalesced with it.
    """
    topology = cluster.topology or NodeTopology.default()
    try:
        cluster.check_node_id(request.node_id)
        resolve_threads(
            registry.stock(request.benchmark),
            request.threads,
            topology.num_cores,
        )
        if request.tmm is not None:
            model = TuningModel.from_json(request.tmm)
            for point in (
                model.default,
                *(scenario.configuration for scenario in model.scenarios),
            ):
                _check_point(point)
    except (JobError, WorkloadError, TuningModelError) as exc:
        raise TuningError(str(exc)) from None


def _check_point(point: OperatingPoint) -> None:
    """A tuning-model configuration the RRL's PCPs can program."""
    for name, value, lo, hi in (
        ("core_freq_ghz", point.core_freq_ghz,
         config.CORE_FREQ_MIN_GHZ, config.CORE_FREQ_MAX_GHZ),
        ("uncore_freq_ghz", point.uncore_freq_ghz,
         config.UNCORE_FREQ_MIN_GHZ, config.UNCORE_FREQ_MAX_GHZ),
    ):
        if not _in_frequency_range(value, lo, hi):
            raise TuningModelError(
                f"tuning model {name} {value!r} outside [{lo}, {hi}] GHz"
            )
    threads = point.threads
    if (
        isinstance(threads, bool)
        or not isinstance(threads, int)
        or not 1 <= threads <= config.CORES_PER_NODE
    ):
        raise TuningModelError(
            f"tuning model threads {threads!r} outside "
            f"[1, {config.CORES_PER_NODE}]"
        )


def _in_frequency_range(value: Any, lo: float, hi: float) -> bool:
    """Whether ``value`` snaps onto the 100 MHz grid inside [lo, hi].

    The same rule as the frequency controllers' quantisation, without
    their memo (admission sees arbitrary client floats).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if not lo - 1.0 <= value <= hi + 1.0:  # also rejects NaN
        return False
    step = config.FREQ_STEP_GHZ
    return round(lo / step) <= round(value / step) <= round(hi / step)


def request_payload(request: TuningRequest) -> dict[str, Any]:
    """The wire form of a request (round-trips through `parse_request`)."""
    return {
        "version": WIRE_VERSION,
        "benchmark": request.benchmark,
        "threads": request.threads,
        "objective": request.objective,
        "tmm": request.tmm,
        "stride": request.stride,
        "node_id": request.node_id,
        "seed": request.seed,
    }


def ok_response(
    answer: TuningAnswer | dict[str, Any],
    *,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A success envelope around one tuning answer.

    ``answer`` is either a :class:`~repro.api.TuningAnswer` or its
    already-serialised :meth:`~repro.api.TuningAnswer.payload` dict —
    pool workers ship payload dicts across the process boundary, and
    re-hydrating them only to re-serialise would be waste.

    ``meta`` carries serving diagnostics (cache/coalescing facts) that
    are explicitly *not* part of the answer: two responses for the same
    request must have equal ``result`` regardless of how they were
    produced, while ``meta`` may differ.
    """
    result = (
        answer.payload() if isinstance(answer, TuningAnswer) else answer
    )
    return {
        "version": WIRE_VERSION,
        "status": "ok",
        "result": result,
        "meta": dict(meta or {}),
    }


def error_response(code: str, message: str) -> dict[str, Any]:
    """A structured error envelope."""
    if code not in ERROR_CODES:
        raise SchemaError(
            f"unknown error code: {code!r}; known: {ERROR_CODES}"
        )
    return {
        "version": WIRE_VERSION,
        "status": "error",
        "error": {"code": code, "message": message},
    }


def exception_response(exc: ReproError) -> dict[str, Any]:
    """The error envelope for a library error, by its type: only a
    :class:`~repro.errors.CampaignQuarantined` (failure records a store
    holds, listed from the error) is ``quarantined``; any other failure
    persisted nothing and is an ``execution-error``."""
    if isinstance(exc, SchemaError):
        return error_response("bad-request", str(exc))
    if isinstance(exc, TuningError):
        return error_response("bad-value", str(exc))
    if isinstance(exc, CampaignQuarantined):
        records = "; ".join(r.describe() for r in exc.failures.values())
        return error_response(
            "quarantined",
            f"job is quarantined: {records}; re-attempt it with --retry-failed",
        )
    return error_response("execution-error", str(exc))
