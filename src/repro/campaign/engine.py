"""Campaign execution: every job priced in-process by the fleet kernel.

:func:`execute_job` looks the job's application up in the registry
(:func:`~repro.workloads.registry.stock`, one build per name and
process), prices it as fresh-node members of the fleet kernel
(:mod:`repro.execution.fleet_replay`), and returns a small JSON-able
payload.  Because every noise stream is keyed through
:func:`repro.util.rng.rng_for` by (seed, node, run key, region,
iteration) — never by call order or batch composition — the payload is
bit-identical whether the job runs alone, inside a shard, or in a
different session entirely.  That property is what makes the
content-addressed :class:`~repro.campaign.store.ResultStore` sound.
:class:`CampaignEngine` prices a plan's uncached jobs, of every mode, in
shards — tuples of the jobs' store keys, one fleet-kernel pass each,
bit-identical to the recursive reference engine — so stores written by
any shard size agree.

Payload layout by mode:

``counters``
    ``{"totals": {papi_name: total}, "phase_time_s": s}`` — summed over
    the phase region's instances of one instrumented run at the job's
    operating point (:func:`repro.execution.replay.phase_counters`).
``grid``
    ``{"uncore_freqs_ghz": [...], "node_energy_j": [J, ...],
    "cpu_energy_j": [J, ...], "time_s": [s, ...]}`` — parallel lists
    over the row's UCF axis, one plain fresh-node run per cell, each
    bit-identical to a solo run under the cell's noise key.
``savings``
    ``node_energy_j``, ``cpu_energy_j``, ``time_s``, ``switching_time_s``
    and ``instrumentation_time_s`` of one run — the controlled
    production runs of the Table VI comparison.  Controller-driven
    members replay their compiled switch schedule, bit-identical to the
    recursive engine, so cached savings results agree across engines.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.campaign.faultinject import maybe_fault
from repro.campaign.plan import DEFAULT_FLEET_SHARD_SIZE, CampaignJob, CampaignPlan
from repro.campaign.resilience import (
    ON_FAILURE_POLICIES,
    DrainFlag,
    FailureRecord,
    backoff_s,
    classify,
    failure_descriptor,
    graceful_drain,
)
from repro.campaign.store import ResultStore, job_key
from repro.errors import (
    CampaignError,
    CampaignExecutionError,
    CampaignInterrupted,
    CampaignQuarantined,
    WorkloadError,
)
from repro.execution.replay import phase_counters
from repro.hardware.cluster import Cluster
from repro.hardware.topology import NodeTopology
from repro.workloads import registry
from repro.workloads.application import Application

#: How many jobs' result keys, and as many failure keys, an engine
#: remembers: a full coalesced group's grid rows.  A served request
#: recalls its rows before the run that executes them recalls the same
#: job objects again; both then hash each key once.
KEY_MEMO_SIZE = 256

#: Payload keys every result of a mode must carry; a cached payload
#: missing one was produced by an incompatible (older) result schema.
REQUIRED_PAYLOAD_KEYS: dict[str, tuple[str, ...]] = {
    "counters": ("totals", "phase_time_s"),
    "savings": (
        "node_energy_j",
        "cpu_energy_j",
        "time_s",
        "switching_time_s",
        "instrumentation_time_s",
    ),
    "grid": ("uncore_freqs_ghz", "node_energy_j", "cpu_energy_j", "time_s"),
}


def validate_payload(
    job: CampaignJob, payload: dict[str, Any], *, source: str = "store"
) -> None:
    """Reject payloads that do not match the current result schema.

    Cached entries written before a payload-layout change used to
    surface as raw ``KeyError`` deep inside dataset assembly; this
    turns them into an actionable :class:`CampaignError` at the point
    where the stale entry is recalled.
    """
    required = REQUIRED_PAYLOAD_KEYS.get(job.mode, ())
    missing = [k for k in required if k not in payload]
    if missing:
        raise CampaignError(
            f"cached result for {job.app}/{job.mode} from {source} is "
            f"missing keys {missing}: the entry was produced by an older "
            "result schema; delete the store file to re-simulate"
        )


@functools.lru_cache(maxsize=64)
def _tuning_model_from_json(text: str):
    """Parse (and share) tuning models across a process's savings jobs.

    Repetitions of one configuration reference the same serialised
    model; sharing the parsed instance lets the RRL's compiled-schedule
    cache amortise the switch-schedule walk across them.
    """
    from repro.readex.tuning_model import TuningModel

    return TuningModel.from_json(text)


@functools.lru_cache(maxsize=64)
def _static_tuning_model(app_name: str, phase_region: str, point):
    """The tuning model of a static run: no scenarios, ``point`` as the
    default the RRL applies at the phase region.  Shared per (phase,
    point) like :func:`_tuning_model_from_json`'s models, so the five
    repetitions of a static variant walk their schedule once."""
    from repro.readex.tuning_model import TuningModel

    return TuningModel(
        app_name, phase_region=phase_region, scenarios=(), default=point
    )


def _build_controller(job: CampaignJob, app: Application):
    """Rebuild a ``savings`` job's controller from its description.

    A static job runs the RRL under a default-only tuning model: the
    phase region's enter applies its configuration, core then uncore,
    and pins its thread count for the whole run."""
    if job.controller == "none":
        return None
    from repro.execution.simulator import OperatingPoint
    from repro.readex.rrl import RRL

    if job.controller == "static":
        point = OperatingPoint(
            core_freq_ghz=job.core_freq_ghz,
            uncore_freq_ghz=job.uncore_freq_ghz,
            threads=job.threads,
        )
        return RRL(_static_tuning_model(app.name, app.phase.name, point))
    return RRL(_tuning_model_from_json(job.tuning_model))


def _build_instrumentation(job: CampaignJob, app: Application):
    """Rebuild a ``savings`` job's compile-time filter, if any."""
    if job.filtered_regions is None:
        return None
    from repro.scorep.instrumentation import Instrumentation

    return Instrumentation(app=app, filtered=set(job.filtered_regions))


def execute_job(
    job: CampaignJob,
    topology: NodeTopology | None = None,
    app: Application | None = None,
) -> dict[str, Any]:
    """Run one campaign job from scratch and return its payload.

    The job is a fleet of its fresh-node members — one per grid cell
    for ``grid`` — so the payload agrees with a fleet shard's.  ``app``
    overrides the registry lookup for callers holding a custom
    :class:`~repro.workloads.application.Application` instance that is
    not registered under ``job.app`` (such jobs bypass stores).
    """
    (payload,) = _price_jobs((job,), topology, app)
    return payload


# ---------------------------------------------------------------------------
# Fleet execution: many jobs per kernel invocation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256, typed=True)
def _row_points(core_freq_ghz: float, uncore_freqs_ghz: tuple, threads: int):
    """A grid row's cell operating points, in UCF order; frozen, so the
    rows of every grid at these coordinates share them."""
    from repro.execution.simulator import OperatingPoint

    return tuple(
        OperatingPoint(core_freq_ghz, ucf, threads) for ucf in uncore_freqs_ghz
    )


def _job_fleet_members(job: CampaignJob, app: Application, topology):
    """The :class:`~repro.execution.fleet_replay.FleetMember` requests
    equivalent to one campaign job (one per grid cell for ``grid``)."""
    from repro.execution.fleet_replay import FleetMember
    from repro.execution.simulator import OperatingPoint

    threads = job.threads if job.threads is not None else app.default_threads
    common = dict(
        node_id=job.node_id,
        seed=job.seed,
        topology=topology,
    )
    if job.mode == "grid":
        return [
            FleetMember(
                app=app, run_key=run_key, point=point, threads=threads, **common
            )
            for point, run_key in zip(
                _row_points(job.core_freq_ghz, job.uncore_freqs_ghz, threads),
                job.cell_run_keys(),
            )
        ]
    if job.mode == "savings":
        # Default-start node; the controller (if any) reprograms it.
        return [
            FleetMember(
                app=app,
                run_key=job.run_key(),
                threads=threads,
                controller=_build_controller(job, app),
                instrumented=job.instrumented,
                instrumentation=_build_instrumentation(job, app),
                **common,
            )
        ]
    # A ``counters`` job: one instrumented run at the job's point, its
    # counters read from the priced trace.
    return [
        FleetMember(
            app=app,
            run_key=job.run_key(),
            point=OperatingPoint(
                job.core_freq_ghz, job.uncore_freq_ghz, threads
            ),
            threads=threads,
            instrumented=True,
            **common,
        )
    ]


def _price_jobs(
    jobs, topology: NodeTopology | None, app: Application | None = None
) -> list[dict[str, Any]]:
    """Price ``jobs`` in one fleet-kernel pass; their payloads, in order.

    Each job runs against its registry application, or against ``app``
    (for every job) when given.  The ``counters`` jobs' PAPI noise is
    drawn in one batch over all their members' slots.
    """
    from repro.execution.fleet_replay import fleet_run

    members: list = []
    spans: list[tuple[int, int]] = []
    for job in jobs:
        job_app = app if app is not None else registry.stock(job.app)
        job_members = _job_fleet_members(job, job_app, topology)
        spans.append((len(members), len(job_members)))
        members.extend(job_members)
    fleet = fleet_run(members)
    counted = iter(
        phase_counters(
            [
                (fleet.results[start], fleet.traces[start], job.seed, job.run_key(),
                 job.counters)
                for job, (start, _) in zip(jobs, spans)
                if job.mode == "counters"
            ]
        )
    )
    payloads = []
    for job, (start, count) in zip(jobs, spans):
        if job.mode == "counters":
            totals, phase_time_s = next(counted)
            payloads.append({"totals": totals, "phase_time_s": phase_time_s})
        else:
            payloads.append(_fleet_payload(job, fleet, start, count))
    return payloads


def _fleet_payload(job: CampaignJob, fleet, start: int, count: int) -> dict[str, Any]:
    """One non-``counters`` job's store payload from its ``count`` fleet
    members' runs from ``start`` — the store layout of the job's mode.
    A grid row reads only the members' totals."""
    if job.mode == "grid":
        cells = slice(start, start + count)
        return {
            "uncore_freqs_ghz": list(job.uncore_freqs_ghz),
            "node_energy_j": list(fleet.node_energy_j[cells]),
            "cpu_energy_j": list(fleet.cpu_energy_j[cells]),
            "time_s": list(fleet.time_s[cells]),
        }
    run = fleet.results[start]
    return {
        "node_energy_j": run.node_energy_j,
        "cpu_energy_j": run.cpu_energy_j,
        "time_s": run.time_s,
        "switching_time_s": run.switching_time_s,
        "instrumentation_time_s": run.instrumentation_time_s,
    }


@dataclass(frozen=True)
class CampaignReport:
    """What one :meth:`CampaignEngine.run` call did.

    ``executed`` counts *successful* fresh simulations; ``failed`` the
    jobs that definitively failed this run (after retries), and
    ``quarantined`` the jobs skipped because an earlier run persisted a
    failure record for them.  ``retried`` counts retry re-submissions.
    """

    planned: int
    cached: int
    executed: int
    failed: int = 0
    quarantined: int = 0
    retried: int = 0


def qualified_descriptor(
    job: CampaignJob, topology: NodeTopology | None
) -> dict[str, Any]:
    """The job descriptor, qualified by a non-default node topology.

    Default-topology descriptors are the plain :meth:`CampaignJob.descriptor`,
    so stores written by any engine, the CLI or the bench harness agree;
    a custom topology changes the physics, so it is mixed in and never
    collides with default-topology results.
    """
    if topology is None:
        return job.descriptor()
    return {**job.descriptor(), "topology": repr(topology)}


def topology_job_key(job: CampaignJob, topology: NodeTopology | None) -> str:
    """Store key for a job under the given topology."""
    return job_key(qualified_descriptor(job, topology))


class CampaignResults:
    """Job-addressable payloads (and failures) from one engine run.

    With ``on_failure="quarantine"`` or ``"skip"`` a run completes with
    partial results: :attr:`failures` maps the store keys of failed or
    quarantined jobs to their :class:`FailureRecord`, and indexing such
    a job raises a :class:`CampaignError` naming the job, or a
    :class:`CampaignQuarantined` naming the remedy when a store holds
    its record (``stored_failures``).
    """

    def __init__(
        self,
        payloads: dict[str, dict[str, Any]],
        report: CampaignReport,
        topology: NodeTopology | None = None,
        failures: dict[str, FailureRecord] | None = None,
        keys: dict[CampaignJob, str] | None = None,
        stored_failures: Iterable[str] = (),
    ):
        self._payloads = payloads
        self._topology = topology
        self._keys = keys or {}
        self.report = report
        self.failures = failures or {}
        self.stored_failures = frozenset(stored_failures)

    def __len__(self) -> int:
        return len(self._payloads)

    def _key(self, job: CampaignJob | str) -> str:
        """A job's store key: the run's own for its plan's jobs."""
        if isinstance(job, str):
            return job
        key = self._keys.get(job)
        return key if key is not None else topology_job_key(job, self._topology)

    def failure_for(self, job: CampaignJob | str) -> FailureRecord | None:
        """The failure record for a job, or ``None`` if it succeeded."""
        return self.failures.get(self._key(job))

    def __getitem__(self, job: CampaignJob | str) -> dict[str, Any]:
        key = self._key(job)
        try:
            return self._payloads[key]
        except KeyError:
            record = self.failures.get(key)
            if record is None:
                raise CampaignError(f"no result for job key {key}") from None
            if key in self.stored_failures:
                raise CampaignQuarantined(
                    f"job {key} is quarantined: {record.describe()}; re-run "
                    "with retry_failed=True (CLI: --retry-failed) to retry it",
                    failures={key: record},
                ) from None
            raise CampaignError(
                f"job {key} has no result: {record.describe()}"
            ) from None


class CampaignEngine:
    """Executes campaign plans in-process with caching and resilience.

    When a :class:`ResultStore` is attached, cached jobs are never
    re-simulated and fresh results are persisted as they are
    collected, so an interrupted campaign keeps its completed work.

    Transient failures — I/O errors, or faults flagged transient — are
    retried up to ``max_retries`` times (a shard runs at most
    ``1 + max_retries`` times) with deterministic seeded backoff
    (:func:`~repro.campaign.resilience.backoff_s`); deterministic
    failures fail fast.  What happens to a job that definitively fails
    is the per-run ``on_failure`` policy of :meth:`run`.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        topology: NodeTopology | None = None,
        max_retries: int = 2,
    ):
        if max_retries < 0:
            raise CampaignError("max_retries must be >= 0")
        self.store = store
        self.topology = topology
        self.max_retries = max_retries
        self.total_executed = 0
        self.total_cached = 0
        # id(job) -> (job, store key), one memo for results and one for
        # failure records.  Keyed by identity, not equality, so an equal
        # job of other field types (2 and 2.0 key apart) never takes
        # another's key; holding the job keeps its id its own.  A full
        # memo is cleared rather than trimmed: each operation on it is
        # then atomic, so the serve loop and its worker thread can share
        # it without a lock.
        self._result_keys: dict[int, tuple[CampaignJob, str]] = {}
        self._failure_keys: dict[int, tuple[CampaignJob, str]] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        plan: CampaignPlan | Iterable[CampaignJob],
        *,
        on_failure: str = "raise",
        retry_failed: bool = False,
    ) -> CampaignResults:
        """Execute (or recall) every job of ``plan``.

        Uncached jobs are cut, in plan order, into shards of
        :data:`~repro.campaign.plan.DEFAULT_FLEET_SHARD_SIZE` store keys
        and priced through the batched fleet kernel — one kernel
        invocation per shard, whatever its size.  Payloads and store
        keys are those of :func:`execute_job` whichever shard a job
        runs in.

        ``on_failure`` decides what a definitive job failure does:
        ``"raise"`` (the default) aborts with a
        :class:`CampaignExecutionError` carrying partial results,
        ``"quarantine"`` records a :class:`FailureRecord` in the store
        (re-runs then skip the job until ``retry_failed=True``) and
        completes with partial results, ``"skip"`` completes with
        partial results without persisting anything about the failure.

        SIGINT/SIGTERM drain the run: the running task finishes and is
        persisted, and :class:`CampaignInterrupted` is raised.  Running
        the same plan again finishes the campaign, recalling the
        completed jobs from the store.
        """
        if on_failure not in ON_FAILURE_POLICIES:
            raise CampaignError(
                f"unknown on_failure policy: {on_failure!r}; "
                f"known: {ON_FAILURE_POLICIES}"
            )
        if not isinstance(plan, CampaignPlan):
            plan = CampaignPlan(tuple(plan))
        # Results and records reuse each job's key.
        keys = self.job_keys(plan)
        store_path = self._store_path()
        payloads, quarantined, pending = self.recall(keys, retry_failed=retry_failed)

        if quarantined and on_failure == "raise":
            listed = "; ".join(
                f"{key}: {record.describe()}"
                for key, record in sorted(quarantined.items())
            )
            raise CampaignQuarantined(
                f"{len(quarantined)} job(s) of this plan are quarantined in "
                f"{store_path} from an earlier run — {listed}.  Re-run with "
                "retry_failed=True (CLI: --retry-failed) to retry them, or "
                "use on_failure='quarantine' to proceed with partial results",
                failures=quarantined,
            )

        cached_count = len(plan) - len(pending) - len(quarantined)
        recalled = len(payloads)
        drain = DrainFlag()
        with graceful_drain(drain):
            failed, retried, not_run, first_error = self._execute_pending(
                pending, payloads, on_failure, drain
            )
        executed = len(payloads) - recalled

        stored_failures = set(quarantined)
        if on_failure == "quarantine" and self.store is not None and failed:
            stored_failures.update(failed)
            jobs_by_key = dict(pending)
            self.store.put_many(
                [
                    (*self._failure_key(jobs_by_key[key]), record.payload())
                    for key, record in failed.items()
                ]
            )

        self.total_executed += executed
        self.total_cached += cached_count
        report = CampaignReport(
            planned=len(plan),
            cached=cached_count,
            executed=executed,
            failed=len(failed),
            quarantined=len(quarantined),
            retried=retried,
        )
        all_failures = {**quarantined, **failed}

        if drain.requested:
            raise CampaignInterrupted(
                f"campaign drained on {drain.signal_name}: {len(payloads)} of "
                f"{len(plan)} job(s) completed and persisted; re-run the same "
                "command to finish (completed jobs are recalled from the store)",
                signal_name=drain.signal_name,
                completed=len(payloads),
                planned=len(plan),
            )

        if failed and on_failure == "raise":
            where = (
                f"completed payloads persisted to {store_path}"
                if self.store is not None
                else "completed payloads attached to this error (no store)"
            )
            summary = "; ".join(r.describe() for r in failed.values())
            raise CampaignExecutionError(
                f"{len(failed)} of {len(pending)} pending job(s) failed "
                f"({summary}); {len(payloads)} of {len(plan)} planned job(s) "
                f"completed, {where}; {len(not_run)} never ran",
                completed=payloads,
                failures=failed,
                not_run=not_run,
            ) from first_error
        return CampaignResults(
            payloads, report, self.topology, all_failures, keys, stored_failures
        )

    # ------------------------------------------------------------------
    def _descriptor(self, job: CampaignJob) -> dict[str, Any]:
        return qualified_descriptor(job, self.topology)

    def _failure_key(self, job: CampaignJob) -> tuple[str, dict[str, Any]]:
        """The store key and descriptor of ``job``'s failure record."""
        descriptor = failure_descriptor(self._descriptor(job))
        return self._memo_key(job, failure=True), descriptor

    def job_keys(self, jobs: Iterable[CampaignJob]) -> dict[CampaignJob, str]:
        """Each job's store key under this engine's topology.

        Keys are remembered for the last :data:`KEY_MEMO_SIZE` job
        objects, so a recall ahead of the run that executes the same
        jobs (a served request's store lookup) hashes nothing twice.
        """
        return {job: self._memo_key(job, failure=False) for job in jobs}

    def _memo_key(self, job: CampaignJob, *, failure: bool) -> str:
        """The store key of ``job``'s result or failure record."""
        memo = self._failure_keys if failure else self._result_keys
        held = memo.get(id(job))
        if held is not None:
            return held[1]
        descriptor = self._descriptor(job)
        key = job_key(failure_descriptor(descriptor) if failure else descriptor)
        if len(memo) >= KEY_MEMO_SIZE:
            memo.clear()
        memo[id(job)] = job, key
        return key

    def _store_path(self) -> str:
        if self.store is not None and self.store.path is not None:
            return str(self.store.path)
        return "store"

    def recall(
        self, keys: dict[CampaignJob, str], *, retry_failed: bool = False
    ) -> tuple[dict, dict, list]:
        """Split jobs (mapped to their store keys) by what the store
        holds for them: the stored payloads and the persisted failure
        records (by job key, in job order), and the pending
        ``(key, job)`` pairs.  With ``retry_failed`` failure records
        are not looked up.

        The result keys take one batched store read, the misses' failure
        keys another.  A stored result wins over a failure record for
        the same job: a job that eventually succeeded (e.g. after
        ``retry_failed``) hits the result cache first, so its stale
        failure record is harmless.
        """
        if self.store is None:
            return {}, {}, [(key, job) for job, key in keys.items()]
        stored = self.store.get_many(list(keys.values()))
        payloads: dict[str, dict[str, Any]] = {}
        misses: list[tuple[str, CampaignJob]] = []
        for job, key in keys.items():
            cached = stored.get(key)
            if cached is None:
                misses.append((key, job))
            else:
                validate_payload(job, cached, source=self._store_path())
                payloads[key] = cached
        if retry_failed or not misses:
            return payloads, {}, misses
        failure_keys = [self._memo_key(job, failure=True) for _, job in misses]
        records = self.store.get_many(failure_keys)
        quarantined: dict[str, FailureRecord] = {}
        pending: list[tuple[str, CampaignJob]] = []
        for (key, job), failure_key in zip(misses, failure_keys):
            record = records.get(failure_key)
            if record is None:
                pending.append((key, job))
            else:
                quarantined[key] = FailureRecord.from_payload(record)
        return payloads, quarantined, pending

    def _execute_pending(
        self,
        pending: list[tuple[str, CampaignJob]],
        payloads: dict[str, dict[str, Any]],
        on_failure: str,
        drain: DrainFlag,
    ) -> tuple[dict[str, FailureRecord], int, list[str], BaseException | None]:
        """Price the uncached jobs in one task loop.

        Every task is a shard: a tuple of its jobs' store keys, priced
        in one fleet-kernel pass, its payloads persisted in one store
        write.  ``pending`` is cut in order into shards of
        :data:`~repro.campaign.plan.DEFAULT_FLEET_SHARD_SIZE` keys.  A
        transient failure re-queues the shard at the front after its
        deterministic backoff, up to ``max_retries`` times.  A shard of
        two or more keys that fails for good does not fail its jobs:
        they run next as one-key shards, so failure records, quarantine
        and partial-result accounting stay per job.  A one-key shard
        that fails for good is a job failure, which stops the loop under
        ``"raise"``; a drain stops it under every policy.  A multi-key
        shard answers to ``mode="fleet"`` fault directives at its
        position among such shards; each job answers at its index in
        ``pending``.

        Returns the job failures by key, the number of retries, the
        keys that never ran and the first job failure's exception.
        """
        jobs_by_key = dict(pending)
        index_of = {key: index for index, (key, _) in enumerate(pending)}
        size = DEFAULT_FLEET_SHARD_SIZE
        shards = [
            tuple(key for key, _ in pending[start:start + size])
            for start in range(0, len(pending), size)
        ]
        fleet_index = {
            shard: position
            for position, shard in enumerate(s for s in shards if len(s) > 1)
        }
        queue = deque((shard, 0) for shard in shards)
        failed: dict[str, FailureRecord] = {}
        retried = 0
        first_error: BaseException | None = None
        stop = on_failure == "raise"
        while queue and not drain.requested and not (stop and failed):
            shard, attempt = queue.popleft()
            jobs = [jobs_by_key[key] for key in shard]
            try:
                if len(shard) > 1:
                    maybe_fault(
                        app=jobs[0].app, mode="fleet", index=fleet_index[shard],
                        attempt=attempt,
                    )
                for key, job in zip(shard, jobs):
                    maybe_fault(
                        app=job.app, mode=job.mode, index=index_of[key],
                        attempt=attempt,
                    )
                done = _price_jobs(jobs, self.topology)
            except Exception as exc:
                kind = classify(exc)
                attempts = attempt + 1
                if kind == "transient" and attempts <= self.max_retries:
                    retried += 1
                    time.sleep(backoff_s(str(shard), attempts))
                    queue.appendleft((shard, attempts))
                elif len(shard) > 1:
                    queue.extendleft(((key,), 0) for key in reversed(shard))
                else:
                    (key,), (job,) = shard, jobs
                    failed[key] = FailureRecord(
                        job_store_key=key,
                        app=job.app,
                        mode=job.mode,
                        error_type=type(exc).__name__,
                        error_message=str(exc),
                        kind=kind,
                        attempts=attempts,
                    )
                    if first_error is None:
                        first_error = exc
                continue
            payloads.update(zip(shard, done))
            if self.store is not None:
                self.store.put_many(
                    [
                        (key, self._descriptor(job), payload)
                        for key, job, payload in zip(shard, jobs, done)
                    ]
                )
        not_run = [key for shard, _ in queue for key in shard]
        return failed, retried, not_run, first_error


# ---------------------------------------------------------------------------
# Shared consumer dispatch
# ---------------------------------------------------------------------------

def _registry_faithful(app: Application) -> bool:
    """Whether ``app`` is exactly what the registry builds for its name."""
    try:
        return app == registry.stock(app.name)
    except WorkloadError:
        return False


def engine_for(
    cluster: Cluster, engine: CampaignEngine | None = None
) -> CampaignEngine:
    """The engine that measures on ``cluster``.

    Without ``engine``, a store-less engine simulating the cluster's
    topology.  An attached engine must simulate the cluster's topology:
    its store keys and physics follow its own, so a mismatch would
    silently price different hardware than the caller's cluster
    describes, and raises :class:`CampaignError` instead.
    """
    if engine is None:
        return CampaignEngine(topology=cluster.topology)
    if engine.topology != cluster.topology:
        raise CampaignError(
            f"campaign engine topology {engine.topology!r} does not match "
            f"the cluster's {cluster.topology!r}"
        )
    return engine


def run_app_jobs(
    jobs: tuple[CampaignJob, ...],
    app: Application,
    *,
    cluster: Cluster,
    engine: CampaignEngine | None = None,
    on_failure: str = "raise",
    retry_failed: bool = False,
) -> CampaignResults:
    """Run one application's job batch with live-object fidelity.

    Campaign jobs reference applications by registry name so the engine
    can rebuild them and stores can address them — which is only sound
    when ``app`` is exactly what the registry would build.  Custom or
    mutated instances therefore run against the live object, in one
    fleet-kernel pass, and are never cached.  The engine is
    :func:`engine_for` the cluster (so a topology mismatch is refused on
    either path).  ``on_failure`` and ``retry_failed`` carry
    :meth:`CampaignEngine.run`'s failure semantics through (the
    custom-instance path has no store, so they only shape engine runs).
    """
    engine = engine_for(cluster, engine)
    if _registry_faithful(app):
        return engine.run(
            CampaignPlan(tuple(jobs)),
            on_failure=on_failure,
            retry_failed=retry_failed,
        )
    payloads = dict(
        zip(
            (topology_job_key(job, cluster.topology) for job in jobs),
            _price_jobs(jobs, cluster.topology, app),
        )
    )
    report = CampaignReport(planned=len(jobs), cached=0, executed=len(jobs))
    return CampaignResults(payloads, report, topology=cluster.topology)
