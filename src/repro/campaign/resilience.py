"""Fault-tolerant task execution for the campaign engine.

One raising job must not abort a whole campaign, and an interrupted
campaign must keep its completed work.  This module supplies the pieces
that make campaign execution survive both:

:class:`RetryPolicy` / :func:`backoff_s`
    Bounded per-job retries with *deterministic* seeded backoff — the
    delay is derived from a BLAKE2b digest of ``(job key, attempt)``,
    never from a wall-clock or process-global RNG, so two runs of the
    same campaign retry on the same schedule.

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

:func:`run_resilient_serial`
    The execution loop: tasks run in-process, in order, each retried on
    its deterministic schedule until it succeeds, fails for good, or a
    drain stops the loop.

:class:`DrainFlag` / :func:`graceful_drain`
    Cooperative SIGINT/SIGTERM handling: the first signal stops the loop
    before its next task and lets the running one finish (its result is
    persisted); a second signal raises ``KeyboardInterrupt`` for an
    immediate stop.

:class:`ResumeManifest`
    The small JSON artefact a drained campaign leaves behind;
    ``repro-campaign run --resume`` consumes it.  Actual resumption is
    carried by the content-addressed store (completed jobs are cache
    hits), which is what makes a resumed campaign bit-identical to an
    uninterrupted one — the manifest records progress and guards
    against resuming a different plan.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CampaignError

__all__ = [
    "DrainFlag",
    "FailureRecord",
    "ON_FAILURE_POLICIES",
    "PassOutcome",
    "ResumeManifest",
    "RetryPolicy",
    "TaskFailure",
    "backoff_s",
    "classify",
    "failure_descriptor",
    "graceful_drain",
    "run_resilient_serial",
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


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the engine fights for each job.

    ``max_retries`` bounds *re*-executions: a job runs at most
    ``1 + max_retries`` times.  Backoff before a retry is
    ``backoff_base_s * 2**(attempt-1)``, capped at ``backoff_cap_s``
    and jittered deterministically per (job, attempt) — see
    :func:`backoff_s`.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise CampaignError("max_retries must be >= 0")


def backoff_s(token: str, attempt: int, policy: RetryPolicy) -> float:
    """Deterministic jittered exponential backoff before retry ``attempt``.

    The jitter factor (0.5–1.5x) comes from a BLAKE2b digest of
    ``(token, attempt)``; the same job retries on the same schedule in
    every run, which keeps chaos tests and resumed campaigns
    reproducible.
    """
    base = policy.backoff_base_s * (2 ** max(0, attempt - 1))
    digest = hashlib.blake2b(
        f"{token}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    fraction = int.from_bytes(digest, "big") / 2**64
    return min(policy.backoff_cap_s, base * (0.5 + fraction))


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
# The resilient execution loop
# ---------------------------------------------------------------------------

@dataclass
class TaskFailure:
    """How one task definitively failed (in-process view; the engine
    turns this into a persistable :class:`FailureRecord`)."""

    attempts: int
    kind: str
    exception: BaseException


@dataclass
class PassOutcome:
    """What one resilient execution pass did."""

    results: dict[Any, Any] = field(default_factory=dict)
    failures: dict[Any, TaskFailure] = field(default_factory=dict)
    #: Task ids never attempted (drain requested, or stop_on_failure).
    not_run: list[Any] = field(default_factory=list)
    #: Number of retry re-submissions performed.
    retried: int = 0
    drained: bool = False


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
    jobs, persist, write the resume manifest).  Second signal: raise
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


def _drain_requested(drain: DrainFlag | None) -> bool:
    return drain is not None and drain.requested


def run_resilient_serial(
    tasks: Sequence[tuple[Any, Callable[..., Any], tuple]],
    *,
    policy: RetryPolicy,
    on_success: Callable[[Any, Any], None] | None = None,
    stop_on_failure: bool = False,
    drain: DrainFlag | None = None,
) -> PassOutcome:
    """Execute ``(task_id, fn, args)`` triples in-process with retries.

    The 0-based attempt number is appended to the call's arguments (the
    engine threads it into the fault-injection schedule).  A transient
    failure is retried after its deterministic backoff, up to
    ``policy.max_retries`` times; ``stop_on_failure`` leaves every task
    after the first definitive failure unrun, and so does a drain.
    """
    outcome = PassOutcome()
    remaining: deque[tuple[Any, Callable, tuple, int]] = deque(
        (tid, fn, args, 0) for tid, fn, args in tasks
    )
    stop = False
    while remaining:
        if stop or _drain_requested(drain):
            outcome.not_run = [entry[0] for entry in remaining]
            break
        tid, fn, args, attempt = remaining.popleft()
        call_args = args + (attempt,)
        try:
            result = fn(*call_args)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            kind = classify(exc)
            attempts = attempt + 1
            if kind == "transient" and attempts <= policy.max_retries:
                outcome.retried += 1
                time.sleep(backoff_s(str(tid), attempts, policy))
                remaining.appendleft((tid, fn, args, attempts))
                continue
            outcome.failures[tid] = TaskFailure(attempts, kind, exc)
            if stop_on_failure:
                stop = True
        else:
            outcome.results[tid] = result
            if on_success is not None:
                on_success(tid, result)
    outcome.drained = _drain_requested(drain)
    return outcome


# ---------------------------------------------------------------------------
# Resume manifests
# ---------------------------------------------------------------------------

#: Manifest schema version (bump on layout changes).
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ResumeManifest:
    """Progress snapshot a drained campaign leaves next to its store.

    The store itself carries the results (and is what makes resumption
    bit-identical); the manifest records which plan was interrupted so
    ``--resume`` can refuse to continue a *different* plan, and how far
    the campaign got so operators can see progress without opening the
    store.
    """

    store: str | None
    planned: int
    completed: tuple[str, ...]
    quarantined: tuple[str, ...]
    pending: tuple[str, ...]
    signal_name: str = "drain"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "store": self.store,
            "planned": self.planned,
            "completed": list(self.completed),
            "quarantined": list(self.quarantined),
            "pending": list(self.pending),
            "signal": self.signal_name,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ResumeManifest":
        path = Path(path)
        if not path.exists():
            raise CampaignError(
                f"no resume manifest at {path}; nothing to resume (the "
                "manifest is written when a campaign run is drained by "
                "SIGINT/SIGTERM)"
            )
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"unreadable resume manifest {path}: {exc}") from None
        version = payload.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise CampaignError(
                f"resume manifest {path} has version {version!r}, expected "
                f"{MANIFEST_VERSION}; delete it and re-run without --resume"
            )
        return cls(
            store=payload.get("store"),
            planned=int(payload.get("planned", 0)),
            completed=tuple(payload.get("completed", ())),
            quarantined=tuple(payload.get("quarantined", ())),
            pending=tuple(payload.get("pending", ())),
            signal_name=str(payload.get("signal", "drain")),
        )
