"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class HardwareError(ReproError):
    """Raised for invalid operations against the simulated hardware."""


class MSRError(HardwareError):
    """Raised on invalid MSR access (unknown register, bad width, locked)."""


class FrequencyError(HardwareError):
    """Raised when a requested frequency is outside the supported range."""


class CounterError(ReproError):
    """Raised for invalid PAPI counter operations."""


class EventSetError(CounterError):
    """Raised when an event set is misused (overfull, not started, ...)."""


class WorkloadError(ReproError):
    """Raised for malformed workload / region definitions."""


class TraceError(ReproError):
    """Raised for malformed traces or invalid trace operations."""


class InstrumentationError(ReproError):
    """Raised when instrumentation or filtering is misconfigured."""


class TuningError(ReproError):
    """Raised by the PTF layer for invalid tuning requests."""


class SchemaError(ReproError):
    """Raised by the serving layer for malformed wire payloads."""


class ModelError(ReproError):
    """Raised by the modeling layer (bad shapes, untrained model, ...)."""


class TuningModelError(ReproError):
    """Raised for malformed tuning-model (TMM) files."""


class RRLError(ReproError):
    """Raised by the READEX Runtime Library."""


class JobError(ReproError):
    """Raised by the job/SLURM accounting layer."""


class CampaignError(ReproError):
    """Raised by the experiment-campaign engine and result store."""


class CampaignExecutionError(CampaignError):
    """One or more campaign jobs definitively failed under the
    ``on_failure="raise"`` policy.

    Unlike a bare re-raise of the first job exception, this error
    reports *partial completion*: ``completed`` maps job keys to the
    payloads finished before (or alongside) the failure, ``failures``
    maps job keys to their :class:`~repro.campaign.resilience.FailureRecord`,
    and ``not_run`` lists jobs never attempted.  With a store attached
    every completed payload is already persisted when this is raised.
    """

    def __init__(
        self,
        message: str,
        *,
        completed: dict | None = None,
        failures: dict | None = None,
        not_run: list | None = None,
    ):
        super().__init__(message)
        self.completed = completed or {}
        self.failures = failures or {}
        self.not_run = list(not_run or [])


class CampaignQuarantined(CampaignExecutionError):
    """Jobs refused because a failure record held in a result store
    stands for each of them (``failures``), from an earlier run or
    persisted by this one under ``on_failure="quarantine"``.  They stay
    refused until a run with ``retry_failed=True`` re-attempts them.
    """


class CampaignInterrupted(CampaignError):
    """A campaign run was drained by SIGINT/SIGTERM.

    Running jobs were allowed to finish and their results were
    persisted to the store.  Re-running the same campaign recalls them
    as cache hits and finishes bit-identically to an uninterrupted run.
    """

    def __init__(
        self,
        message: str,
        *,
        signal_name: str = "signal",
        completed: int = 0,
        planned: int = 0,
    ):
        super().__init__(message)
        self.signal_name = signal_name
        self.completed = completed
        self.planned = planned
