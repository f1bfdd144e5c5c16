"""Fault-tolerant task execution for the campaign engine.

One raising job must not abort a whole campaign, and an interrupted
campaign must keep its completed work.  This module supplies the pieces
that make campaign execution survive both:

:func:`backoff_s`
    Deterministic seeded backoff before a retry (base
    :data:`BACKOFF_BASE_S`, capped at :data:`BACKOFF_CAP_S`): the delay
    is derived from a BLAKE2b digest of ``(task, attempt)``, never from
    a wall-clock or process-global RNG, so two runs of the same
    campaign retry on the same schedule.

:func:`classify`
    The failure taxonomy.  ``transient`` failures (I/O errors, or an
    exception flagged ``repro_transient``) are retried up to
    ``max_retries``; everything else is ``deterministic`` — retrying a
    reproducible exception wastes exactly ``max_retries`` simulations,
    so such jobs fail fast.

:class:`FailureRecord` / :func:`failure_descriptor`
    The structured, persistable description of a definitive failure.
    Records are stored through the regular
    :class:`~repro.campaign.store.ResultStore` under a content-addressed
    key derived from the failed job's descriptor, so re-runs *quarantine*
    known-bad jobs (skip them without burning retries) until explicitly
    asked to retry.  Result lookups always win over quarantine lookups,
    so a later successful run makes a stale failure record harmless.

:class:`DrainFlag` / :func:`graceful_drain`
    Cooperative SIGINT/SIGTERM handling: the first signal stops the
    task loop of :class:`~repro.campaign.engine.CampaignEngine` before
    its next task and lets the running one finish (its result is
    persisted); a second signal raises ``KeyboardInterrupt`` for an
    immediate stop.

Resumption needs nothing beyond the content-addressed store: re-running
the same campaign recalls every completed job as a cache hit, so a
drained campaign finishes bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import CampaignError

__all__ = [
    "DrainFlag",
    "FailureRecord",
    "ON_FAILURE_POLICIES",
    "backoff_s",
    "classify",
    "failure_descriptor",
    "graceful_drain",
]

#: What the engine does with a job that definitively failed (retries
#: exhausted, or a deterministic exception).
ON_FAILURE_POLICIES: tuple[str, ...] = ("raise", "quarantine", "skip")

#: Exception types retried by default: ``OSError``/``EOFError`` cover
#: I/O hiccups (a store flush racing a disk, a truncated read).
TRANSIENT_TYPES: tuple[type[BaseException], ...] = (OSError, EOFError)


def classify(exc: BaseException) -> str:
    """``"transient"`` (retry) or ``"deterministic"`` (fail fast).

    An exception carrying a truthy ``repro_transient`` attribute is
    transient regardless of type (the fault-injection harness uses this
    to exercise the retry path with arbitrary errors).
    """
    if getattr(exc, "repro_transient", False):
        return "transient"
    if isinstance(exc, TRANSIENT_TYPES):
        return "transient"
    return "deterministic"


#: Backoff before retry ``attempt`` is ``BACKOFF_BASE_S * 2**(attempt-1)``,
#: jittered and capped at ``BACKOFF_CAP_S`` (see :func:`backoff_s`).
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def backoff_s(token: str, attempt: int) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt``.

    The jitter factor (0.5–1.5x) comes from a BLAKE2b digest of
    ``(token, attempt)``; the same job retries on the same schedule in
    every run, which keeps chaos tests and resumed campaigns
    reproducible.
    """
    base = BACKOFF_BASE_S * (2 ** max(0, attempt - 1))
    digest = hashlib.blake2b(
        f"{token}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    fraction = int.from_bytes(digest, "big") / 2**64
    return min(BACKOFF_CAP_S, base * (0.5 + fraction))


# ---------------------------------------------------------------------------
# Failure records (the quarantine currency)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailureRecord:
    """A definitive job failure, structured for persistence.

    ``job_store_key`` is the key the job's *result* would have been
    stored under; the record itself is stored under
    ``job_key(failure_descriptor(descriptor))`` so it never collides
    with results and is found by re-runs planning the same job.
    """

    job_store_key: str
    app: str
    mode: str
    error_type: str
    error_message: str
    kind: str
    attempts: int

    def payload(self) -> dict[str, Any]:
        return {
            "job_store_key": self.job_store_key,
            "app": self.app,
            "mode": self.mode,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "kind": self.kind,
            "attempts": self.attempts,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "FailureRecord":
        try:
            return cls(
                job_store_key=payload["job_store_key"],
                app=payload["app"],
                mode=payload["mode"],
                error_type=payload["error_type"],
                error_message=payload["error_message"],
                kind=payload["kind"],
                attempts=payload["attempts"],
            )
        except KeyError as exc:
            raise CampaignError(
                f"malformed failure record (missing {exc}); delete the "
                "store entry or re-run with retry_failed"
            ) from None

    def describe(self) -> str:
        return (
            f"{self.app}/{self.mode}: {self.error_type}: "
            f"{self.error_message} ({self.kind}, {self.attempts} attempt(s))"
        )


#: Marker mode for failure records in store descriptors; never a valid
#: campaign mode, so quarantine records can't shadow results.
FAILURE_MODE = "failure"


def failure_descriptor(job_descriptor: dict[str, Any]) -> dict[str, Any]:
    """The store descriptor a job's failure record is keyed under."""
    return {
        "app": job_descriptor.get("app", "?"),
        "mode": FAILURE_MODE,
        "failure_for": job_descriptor,
    }


# ---------------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------------

class DrainFlag:
    """Set by the signal handler; polled by the execution loop."""

    __slots__ = ("requested", "signum")

    def __init__(self) -> None:
        self.requested = False
        self.signum: int | None = None

    @property
    def signal_name(self) -> str:
        if self.signum is None:
            return "drain"
        return signal.Signals(self.signum).name


@contextmanager
def graceful_drain(drain: DrainFlag) -> Iterator[DrainFlag]:
    """Route SIGINT/SIGTERM into ``drain`` for the duration of a run.

    First signal: request a drain (stop submitting, finish running
    jobs, persist).  Second signal: raise
    ``KeyboardInterrupt`` for an immediate stop.  Off the main thread
    signal handlers cannot be installed; the engine then runs without
    drain support, exactly as before.
    """
    if threading.current_thread() is not threading.main_thread():
        yield drain
        return

    def _handler(signum, frame):
        if drain.requested:
            raise KeyboardInterrupt
        drain.requested = True
        drain.signum = signum

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _handler)
    try:
        yield drain
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
