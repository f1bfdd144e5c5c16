"""Campaign execution: serial or across a process worker pool.

:func:`execute_job` is a top-level function (picklable) that rebuilds
the job's node and application from seeds and the registry, runs the
simulator, and returns a small JSON-able payload.  Because every noise
stream is keyed through :func:`repro.util.rng.rng_for` by
(seed, node, run key, region, iteration) — never by process or call
order — the payload is bit-identical whether the job runs serially, in
a worker process, or in a different session entirely.  That property is
what makes the content-addressed :class:`~repro.campaign.store.ResultStore`
sound.  Every job runs through the fleet kernel
(:mod:`repro.execution.fleet_replay`): :class:`CampaignEngine` prices
fleet-able jobs in shards, a job on its own is a fleet of its members,
and ``counters`` jobs are the simulator's live-node fleet of one — every
path bit-identical to the recursive reference engine — so stores
written by any strategy agree.

Payload layout by mode:

``counters``
    ``{"totals": {papi_name: total}, "phase_time_s": s}`` — summed over
    the phase region's instances of one run.
``sweep`` / ``static``
    ``{"node_energy_j": J, "cpu_energy_j": J, "time_s": s}``.
``grid``
    The same three quantities as parallel lists over the row's UCF axis
    (plus ``"uncore_freqs_ghz"`` itself), measured in one pass through
    the fleet kernel (:mod:`repro.execution.fleet_replay`) — per cell
    bit-identical to the equivalent ``static`` job.
``savings``
    The energy triple plus ``switching_time_s`` and
    ``instrumentation_time_s`` — the controlled production runs of the
    Table VI comparison.  Controller-driven members replay their
    compiled switch schedule, bit-identical to the recursive engine, so
    cached savings results agree across engines.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.campaign.faultinject import maybe_fault
from repro.campaign.plan import (
    FLEET_MODES,
    CampaignJob,
    CampaignPlan,
    FleetShard,
    fleet_jobs,
)
from repro.campaign.resilience import (
    ON_FAILURE_POLICIES,
    DrainFlag,
    FailureRecord,
    PoolOutcome,
    ResumeManifest,
    RetryPolicy,
    failure_descriptor,
    graceful_drain,
    run_resilient_pool,
    run_resilient_serial,
)
from repro.campaign.store import ResultStore, job_key
from repro.errors import (
    CampaignError,
    CampaignExecutionError,
    CampaignInterrupted,
    WorkloadError,
)
from repro.execution.simulator import ExecutionSimulator
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode
from repro.hardware.topology import NodeTopology
from repro.workloads import registry
from repro.workloads.application import Application

#: Environment override for the default pool width.
WORKERS_ENV = "REPRO_CAMPAIGN_WORKERS"

#: Never spin up more than this many workers by default.
MAX_DEFAULT_WORKERS = 8

#: With auto-sized pools, require at least this many pending jobs per
#: worker before parallelising (a 3-job plan is cheaper run serially
#: than forking a pool for it).
MIN_JOBS_PER_WORKER = 8

#: Payload keys every result of a mode must carry; a cached payload
#: missing one was produced by an incompatible (older) result schema.
REQUIRED_PAYLOAD_KEYS: dict[str, tuple[str, ...]] = {
    "counters": ("totals", "phase_time_s"),
    "sweep": ("node_energy_j", "cpu_energy_j", "time_s"),
    "static": ("node_energy_j", "cpu_energy_j", "time_s"),
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


def default_worker_count() -> int:
    """Pool width: ``$REPRO_CAMPAIGN_WORKERS`` or cpu count (capped)."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise CampaignError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    return min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)


@functools.lru_cache(maxsize=64)
def _tuning_model_from_json(text: str):
    """Parse (and share) tuning models across a process's savings jobs.

    Repetitions of one configuration reference the same serialised
    model; sharing the parsed instance lets the RRL's compiled-schedule
    cache amortise the switch-schedule walk across them.
    """
    from repro.readex.tuning_model import TuningModel

    return TuningModel.from_json(text)


def _build_controller(job: CampaignJob):
    """Rebuild a ``savings`` job's controller from its description."""
    if job.controller == "none":
        return None
    from repro.execution.simulator import OperatingPoint
    from repro.readex.rrl import RRL, StaticController

    if job.controller == "static":
        return StaticController(
            OperatingPoint(
                core_freq_ghz=job.core_freq_ghz,
                uncore_freq_ghz=job.uncore_freq_ghz,
                threads=job.threads,
            )
        )
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
    app=None,
) -> dict[str, Any]:
    """Run one campaign job from scratch and return its payload.

    ``app`` overrides the registry lookup for callers holding a custom
    :class:`~repro.workloads.application.Application` instance that is
    not registered under ``job.app`` (such jobs bypass pools/stores).
    """
    if app is None:
        app = registry.build(job.app)
    if job.mode == "counters":
        node = ComputeNode(job.node_id, seed=job.node_seed, topology=topology)
        node.set_frequencies(job.core_freq_ghz, job.uncore_freq_ghz)
        product = ExecutionSimulator(node, seed=job.seed).run_phase_counters(
            app,
            threads=job.threads,
            counters=job.counters,
            run_key=job.run_key(),
        )
        return {
            "totals": dict(product.totals),
            "phase_time_s": product.phase_time_s,
        }
    # Every other mode is a fleet of fresh-node members — one per grid
    # cell for ``grid`` — so the payload agrees with a fleet shard's.
    from repro.execution.fleet_replay import fleet_run

    fleet = fleet_run(_job_fleet_members(job, app, topology))
    return _fleet_payload(job, fleet.results)


def execute_job_faulted(
    job: CampaignJob,
    topology: NodeTopology | None,
    index: int | None,
    attempt: int = 0,
) -> dict[str, Any]:
    """:func:`execute_job` with a fault-injection checkpoint.

    The engine's execution paths route through this wrapper so the
    deterministic fault harness (:mod:`repro.campaign.faultinject`) can
    target a job by (app, mode, pending index, attempt).  A no-op
    passthrough when ``REPRO_FAULT_INJECT`` is unset.
    """
    maybe_fault(
        "execute", app=job.app, mode=job.mode, index=index, attempt=attempt
    )
    return execute_job(job, topology)


# ---------------------------------------------------------------------------
# Fleet execution: many jobs per kernel invocation
# ---------------------------------------------------------------------------

def _job_fleet_members(job: CampaignJob, app: Application, topology):
    """The :class:`~repro.execution.fleet_replay.FleetMember` requests
    equivalent to one campaign job (one per grid cell for ``grid``)."""
    from repro.execution.fleet_replay import FleetMember
    from repro.execution.simulator import OperatingPoint

    threads = job.threads if job.threads is not None else app.default_threads
    common = dict(
        node_id=job.node_id,
        seed=job.seed,
        node_seed=job.node_seed,
        topology=topology,
    )
    if job.mode == "grid":
        return [
            FleetMember(
                app=app,
                run_key=run_key,
                point=OperatingPoint(job.core_freq_ghz, ucf, threads),
                threads=threads,
                **common,
            )
            for ucf, run_key in zip(job.uncore_freqs_ghz, job.cell_run_keys())
        ]
    if job.mode == "savings":
        # Default-start node; the controller (if any) reprograms it.
        return [
            FleetMember(
                app=app,
                run_key=job.run_key(),
                threads=threads,
                controller=_build_controller(job),
                instrumented=job.instrumented,
                instrumentation=_build_instrumentation(job, app),
                **common,
            )
        ]
    return [
        FleetMember(
            app=app,
            run_key=job.run_key(),
            point=OperatingPoint(
                job.core_freq_ghz, job.uncore_freq_ghz, threads
            ),
            threads=threads,
            **common,
        )
    ]


def _fleet_payload(job: CampaignJob, results) -> dict[str, Any]:
    """Assemble one job's store payload from its fleet members' runs —
    the exact layout :func:`execute_job` produces for the mode."""
    if job.mode == "grid":
        return {
            "uncore_freqs_ghz": list(job.uncore_freqs_ghz),
            "node_energy_j": [r.node_energy_j for r in results],
            "cpu_energy_j": [r.cpu_energy_j for r in results],
            "time_s": [r.time_s for r in results],
        }
    run = results[0]
    payload = {
        "node_energy_j": run.node_energy_j,
        "cpu_energy_j": run.cpu_energy_j,
        "time_s": run.time_s,
    }
    if job.mode == "savings":
        payload["switching_time_s"] = run.switching_time_s
        payload["instrumentation_time_s"] = run.instrumentation_time_s
    return payload


def execute_fleet_shard(
    shard: FleetShard, topology: NodeTopology | None = None
) -> dict[str, dict[str, Any]]:
    """Price one shard's jobs in a single fleet-kernel pass.

    Returns ``{store key: payload}`` with exactly the payloads (and
    keys) the per-job :func:`execute_job` path would produce — fleet
    execution is a strategy, not a schema.
    """
    from repro.execution.fleet_replay import fleet_run

    apps: dict[str, Application] = {}
    members: list = []
    spans: list[tuple[int, int]] = []
    for job in shard.jobs:
        app = apps.get(job.app)
        if app is None:
            app = registry.build(job.app)
            apps[job.app] = app
        job_members = _job_fleet_members(job, app, topology)
        spans.append((len(members), len(job_members)))
        members.extend(job_members)
    fleet = fleet_run(members)
    return {
        topology_job_key(job, topology): _fleet_payload(
            job, fleet.results[start:start + count]
        )
        for job, (start, count) in zip(shard.jobs, spans)
    }


def execute_fleet_shard_faulted(
    shard: FleetShard,
    topology: NodeTopology | None,
    index: int,
    indices: tuple[int, ...],
    attempt: int = 0,
) -> dict[str, dict[str, Any]]:
    """:func:`execute_fleet_shard` with fault-injection checkpoints.

    The shard as a whole answers to ``mode="fleet"`` directives
    (``index`` is the shard's position); each member job additionally
    answers to directives targeting its own (app, mode, pending index —
    ``indices`` runs parallel to ``shard.jobs``), so a fault aimed at
    one job fires whether that job runs in a shard or on its own.
    """
    maybe_fault(
        "execute", app=shard.jobs[0].app, mode="fleet", index=index,
        attempt=attempt,
    )
    for job, job_index in zip(shard.jobs, indices):
        maybe_fault(
            "execute", app=job.app, mode=job.mode, index=job_index,
            attempt=attempt,
        )
    return execute_fleet_shard(shard, topology)


def execute_fleet_shard_stored(
    shard: FleetShard,
    topology: NodeTopology | None,
    store_path: str,
    store_backend: str,
    descriptors: dict[str, dict[str, Any]],
    index: int,
    indices: tuple[int, ...],
    attempt: int = 0,
) -> dict[str, dict[str, Any]]:
    """Run one shard in a pool worker, persisting member rows directly.

    Each member job's row is put and flushed individually (with a
    per-row ``store``-stage fault checkpoint keyed by the job's app),
    so a worker killed mid-shard loses only the rows it had not yet
    written — the retry re-prices the shard bit-identically and the
    store no-ops the re-puts of surviving rows.
    """
    payloads = execute_fleet_shard_faulted(
        shard, topology, index, indices, attempt
    )
    store = _worker_store(store_path, store_backend)
    for job in shard.jobs:
        key = topology_job_key(job, topology)
        maybe_fault(
            "store", app=job.app, mode="fleet", index=index, attempt=attempt
        )
        store.put(key, descriptors[key], payloads[key])
        store.flush()
    return payloads


#: Per-process store instances for direct-writing pool workers, keyed
#: by (pid, path) — the pid guard matters under fork, where a parent's
#: populated cache is inherited verbatim and must not be reused.
_WORKER_STORES: dict[tuple[int, str], ResultStore] = {}


def _worker_store(path: str, backend: str) -> ResultStore:
    key = (os.getpid(), path)
    store = _WORKER_STORES.get(key)
    if store is None:
        store = ResultStore(path, backend=backend)
        _WORKER_STORES[key] = store
    return store


def execute_job_stored(
    job: CampaignJob,
    topology: NodeTopology | None,
    store_path: str,
    store_backend: str,
    key: str,
    descriptor: dict[str, Any],
    index: int | None = None,
    attempt: int = 0,
) -> dict[str, Any]:
    """Run one job in a pool worker and persist its result directly.

    With a backend that takes concurrent writers (SQLite, segments),
    each worker writes its own results instead of funneling them
    through the parent — an interrupted campaign keeps every finished
    job even if the parent dies before collecting futures.  The worker
    flushes after each put, so index sidecars stay current without the
    worker ever having to close the store.  A retried job whose earlier
    attempt persisted before crashing re-puts the same key, which the
    store no-ops (payloads are bit-identical by construction).
    """
    payload = execute_job_faulted(job, topology, index, attempt)
    maybe_fault(
        "store", app=job.app, mode=job.mode, index=index, attempt=attempt
    )
    store = _worker_store(store_path, store_backend)
    store.put(key, descriptor, payload)
    store.flush()
    return payload


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
    workers: int
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
    a job raises a :class:`CampaignError` naming the job and the remedy
    instead of a bare missing-key error.
    """

    def __init__(
        self,
        payloads: dict[str, dict[str, Any]],
        report: CampaignReport,
        topology: NodeTopology | None = None,
        failures: dict[str, FailureRecord] | None = None,
    ):
        self._payloads = payloads
        self._topology = topology
        self.report = report
        self.failures = failures or {}

    def __len__(self) -> int:
        return len(self._payloads)

    def failure_for(self, job: CampaignJob | str) -> FailureRecord | None:
        """The failure record for a job, or ``None`` if it succeeded."""
        key = job if isinstance(job, str) else topology_job_key(job, self._topology)
        return self.failures.get(key)

    def __getitem__(self, job: CampaignJob | str) -> dict[str, Any]:
        key = job if isinstance(job, str) else topology_job_key(job, self._topology)
        try:
            return self._payloads[key]
        except KeyError:
            record = self.failures.get(key)
            if record is not None:
                raise CampaignError(
                    f"job {key} has no result: {record.describe()}; re-run "
                    "with retry_failed=True (CLI: --retry-failed) to retry it"
                ) from None
            raise CampaignError(f"no result for job key {key}") from None


class CampaignEngine:
    """Executes campaign plans with caching, parallelism and resilience.

    ``max_workers=None`` auto-sizes the pool (see
    :func:`default_worker_count`); ``0`` or ``1`` forces serial
    in-process execution.  When a :class:`ResultStore` is attached,
    cached jobs are never re-simulated and fresh results are persisted
    as they are collected, so an interrupted campaign keeps its
    completed work.

    ``retry_policy`` governs fault tolerance (see
    :class:`~repro.campaign.resilience.RetryPolicy`): transient
    failures — worker death, per-job timeouts, I/O errors — are retried
    with deterministic seeded backoff and the pool is respawned as
    needed; deterministic failures fail fast.  What happens to a job
    that definitively fails is the per-run ``on_failure`` policy of
    :meth:`run`.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        max_workers: int | None = None,
        topology: NodeTopology | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.store = store
        self.max_workers = max_workers
        self.topology = topology
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.total_executed = 0
        self.total_cached = 0

    # ------------------------------------------------------------------
    def run(
        self,
        plan: CampaignPlan | Iterable[CampaignJob],
        *,
        on_failure: str = "raise",
        retry_failed: bool = False,
        resume_manifest: str | Path | None = None,
    ) -> CampaignResults:
        """Execute (or recall) every job of ``plan``.

        Uncached fleet-able jobs (see
        :data:`~repro.campaign.plan.FLEET_MODES`) are cut, in plan
        order, into :class:`~repro.campaign.plan.FleetShard`\\ s of
        :data:`~repro.campaign.plan.DEFAULT_FLEET_SHARD_SIZE` jobs and
        priced through the batched fleet kernel — one kernel invocation
        per shard, shards pool-parallel.  ``counters`` jobs, and a
        slice holding a single job (a one-job plan gains nothing from
        batching), run per job through :func:`execute_job` in the same
        resilient pass.  Payloads and store keys are those of
        :func:`execute_job` whichever way a job runs.

        ``on_failure`` decides what a definitive job failure does:
        ``"raise"`` (the default) aborts with a
        :class:`CampaignExecutionError` carrying partial results,
        ``"quarantine"`` records a :class:`FailureRecord` in the store
        (re-runs then skip the job until ``retry_failed=True``) and
        completes with partial results, ``"skip"`` completes with
        partial results without persisting anything about the failure.

        SIGINT/SIGTERM drain the run: in-flight jobs finish and are
        persisted, a :class:`ResumeManifest` is written to
        ``resume_manifest`` (when given), and
        :class:`CampaignInterrupted` is raised.
        """
        if on_failure not in ON_FAILURE_POLICIES:
            raise CampaignError(
                f"unknown on_failure policy: {on_failure!r}; "
                f"known: {ON_FAILURE_POLICIES}"
            )
        if not isinstance(plan, CampaignPlan):
            plan = CampaignPlan(tuple(plan))
        payloads: dict[str, dict[str, Any]] = {}
        pending: list[tuple[str, CampaignJob]] = []
        quarantined: dict[str, FailureRecord] = {}
        store_path = (
            str(self.store.path)
            if self.store is not None and self.store.path is not None
            else "store"
        )
        for job in plan:
            key = topology_job_key(job, self.topology)
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                validate_payload(job, cached, source=store_path)
                payloads[key] = cached
                continue
            if self.store is not None and not retry_failed:
                record = self._quarantine_record(job)
                if record is not None:
                    quarantined[key] = record
                    continue
            pending.append((key, job))

        if quarantined and on_failure == "raise":
            listed = "; ".join(
                f"{key}: {record.describe()}"
                for key, record in sorted(quarantined.items())
            )
            raise CampaignExecutionError(
                f"{len(quarantined)} job(s) of this plan are quarantined in "
                f"{store_path} from an earlier run — {listed}.  Re-run with "
                "retry_failed=True (CLI: --retry-failed) to retry them, or "
                "use on_failure='quarantine' to proceed with partial results",
                failures=quarantined,
            )

        cached_count = len(plan) - len(pending) - len(quarantined)
        drain = DrainFlag()
        with graceful_drain(drain):
            outcome, workers = self._execute_pending(
                pending, payloads, on_failure, drain
            )

        jobs_by_key = dict(pending)
        failed: dict[str, FailureRecord] = {}
        for key, task_failure in outcome.failures.items():
            job = jobs_by_key[key]
            failed[key] = FailureRecord(
                job_store_key=key,
                app=job.app,
                mode=job.mode,
                error_type=type(task_failure.exception).__name__,
                error_message=str(task_failure.exception),
                kind=task_failure.kind,
                attempts=task_failure.attempts,
            )
        if on_failure == "quarantine" and self.store is not None:
            for key, record in failed.items():
                descriptor = failure_descriptor(self._descriptor(jobs_by_key[key]))
                self.store.put(job_key(descriptor), descriptor, record.payload())

        self.total_executed += len(outcome.results)
        self.total_cached += cached_count
        report = CampaignReport(
            planned=len(plan),
            cached=cached_count,
            executed=len(outcome.results),
            workers=workers,
            failed=len(failed),
            quarantined=len(quarantined),
            retried=outcome.retried,
        )
        all_failures = {**quarantined, **failed}

        manifest_path = Path(resume_manifest) if resume_manifest else None
        if outcome.drained:
            manifest = ResumeManifest(
                store=(
                    str(self.store.path)
                    if self.store is not None and self.store.path is not None
                    else None
                ),
                planned=len(plan),
                completed=tuple(sorted(payloads)),
                quarantined=tuple(sorted(all_failures)),
                pending=tuple(
                    sorted(
                        key
                        for key, _ in pending
                        if key not in payloads and key not in all_failures
                    )
                ),
                signal_name=drain.signal_name,
            )
            written = manifest.save(manifest_path) if manifest_path else None
            raise CampaignInterrupted(
                f"campaign drained on {drain.signal_name}: {len(payloads)} of "
                f"{len(plan)} job(s) completed and persisted"
                + (f"; resume manifest at {written}" if written else ""),
                signal_name=drain.signal_name,
                completed=len(payloads),
                planned=len(plan),
                manifest=str(written) if written else None,
            )
        if manifest_path is not None and manifest_path.exists():
            manifest_path.unlink()  # the campaign outran its manifest

        if failed and on_failure == "raise":
            first = outcome.failures[next(iter(outcome.failures))]
            where = (
                f"completed payloads persisted to {store_path}"
                if self.store is not None
                else "completed payloads attached to this error (no store)"
            )
            summary = "; ".join(r.describe() for r in failed.values())
            raise CampaignExecutionError(
                f"{len(failed)} of {len(pending)} pending job(s) failed "
                f"({summary}); {len(payloads)} of {len(plan)} planned job(s) "
                f"completed, {where}; {len(outcome.not_run)} never ran",
                completed=payloads,
                failures=failed,
                not_run=outcome.not_run,
            ) from first.exception
        return CampaignResults(
            payloads, report, topology=self.topology, failures=all_failures
        )

    # ------------------------------------------------------------------
    def _descriptor(self, job: CampaignJob) -> dict[str, Any]:
        return qualified_descriptor(job, self.topology)

    def _persist(self, key: str, job: CampaignJob, payload: dict[str, Any]) -> None:
        if self.store is not None:
            self.store.put(key, self._descriptor(job), payload)

    def _worker_count(self, pending: int) -> int:
        """Pool width for this run: explicit settings are honoured; the
        auto default refuses to spin up a pool for small plans where
        fork/pickle overhead would dominate."""
        if pending == 0:
            return 0
        if self.max_workers is not None:
            return max(1, min(self.max_workers, pending))
        auto = min(default_worker_count(), pending // MIN_JOBS_PER_WORKER)
        return max(1, auto)
    @staticmethod
    def _pool(workers: int) -> ProcessPoolExecutor:
        """The engine's process pool: prefer fork on Linux, so workers
        inherit the imported registry and numpy and per-task startup
        stays negligible."""
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)

    def _direct_write(self) -> bool:
        """Whether pool workers should write the store themselves."""
        return (
            self.store is not None
            and self.store.path is not None
            and self.store.supports_concurrent_writers
        )

    def _quarantine_record(self, job: CampaignJob) -> FailureRecord | None:
        """The persisted failure record for ``job``, if any.

        Checked only after the result-cache lookup misses: a job that
        eventually succeeded (e.g. after ``retry_failed``) hits the
        result cache first, so its stale failure record is harmless.
        """
        descriptor = failure_descriptor(self._descriptor(job))
        payload = self.store.get(job_key(descriptor))
        if payload is None:
            return None
        return FailureRecord.from_payload(payload)

    def _execute_pending(
        self,
        pending: list[tuple[str, CampaignJob]],
        payloads: dict[str, dict[str, Any]],
        on_failure: str,
        drain: DrainFlag,
    ) -> tuple[PoolOutcome, int]:
        """Run the uncached jobs through the resilient execution loops;
        returns the outcome and the number of workers its first pass
        used.

        Fleet-able jobs are sliced into shards (one fleet-kernel pass
        each); ``counters`` jobs and single-job slices run per job in
        the same pass.  Tasks are identified by shard position
        (``int``) or job store key (``str``); the returned outcome is
        in job-key space.  A shard that fails definitively does not
        fail its members: those not persisted by then re-run per job in
        a follow-up pass of the same loop (with any tasks a ``"raise"``
        pass left unstarted on that failure), so failure records,
        quarantine and partial-result accounting stay per job.  Fault
        directives see a job's position in ``pending`` as its index
        whichever way it runs.
        """
        if not pending:
            return PoolOutcome(), 0
        jobs_by_key = dict(pending)
        index_of = {key: index for index, (key, _) in enumerate(pending)}
        fleetable = [(k, j) for k, j in pending if j.mode in FLEET_MODES]
        solo = [k for k, j in pending if j.mode not in FLEET_MODES]
        shards: list[tuple[FleetShard, tuple[str, ...]]] = []
        start = 0
        for shard in fleet_jobs(job for _, job in fleetable):
            keys = tuple(k for k, _ in fleetable[start:start + len(shard)])
            start += len(shard)
            if len(shard) == 1:
                solo.extend(keys)
            else:
                shards.append((shard, keys))

        # The auto width counts jobs, so cap it by tasks: a plan that
        # makes one task runs in-process.  An explicit max_workers >= 2
        # keeps its pool (process isolation and job timeouts), never
        # wider than the pass it runs.
        ntasks = len(shards) + len(solo)
        width = self._worker_count(len(pending))
        if self.max_workers is None:
            width = min(width, ntasks)
        direct = self._direct_write() and width > 1
        if direct:
            path, backend = str(self.store.path), self.store.backend

        def job_task(key: str) -> tuple:
            job, index = jobs_by_key[key], index_of[key]
            if direct:
                args = (
                    job, self.topology, path, backend, key,
                    self._descriptor(job), index,
                )
                return (key, execute_job_stored, args)
            return (key, execute_job_faulted, (job, self.topology, index))

        tasks: list[tuple] = []
        for position, (shard, keys) in enumerate(shards):
            indices = tuple(index_of[key] for key in keys)
            if direct:
                descriptors = {
                    key: self._descriptor(jobs_by_key[key]) for key in keys
                }
                args = (
                    shard, self.topology, path, backend, descriptors,
                    position, indices,
                )
                tasks.append((position, execute_fleet_shard_stored, args))
            else:
                args = (shard, self.topology, position, indices)
                tasks.append((position, execute_fleet_shard_faulted, args))
        tasks += [job_task(key) for key in solo]

        def by_job(task_id, result) -> dict[str, dict[str, Any]]:
            return result if isinstance(task_id, int) else {task_id: result}

        def on_success(task_id, result) -> None:
            for key, payload in by_job(task_id, result).items():
                payloads[key] = payload
                if not direct:
                    self._persist(key, jobs_by_key[key], payload)

        def keys_of(task_id) -> tuple[str, ...]:
            return shards[task_id][1] if isinstance(task_id, int) else (task_id,)

        # Each pass turns every failed shard into per-job tasks, so the
        # loop ends: a shard failure that stopped a "raise" pass is not
        # a job failure, and the tasks it left unstarted go again.
        stop = on_failure == "raise"
        task_of = {task[0]: task for task in tasks}
        outcome = PoolOutcome()
        while tasks:
            done = self._run_tasks(tasks, width, on_success, stop, drain, direct)
            outcome.retried += done.retried
            outcome.drained = done.drained
            for task_id, result in done.results.items():
                outcome.results.update(by_job(task_id, result))
            rerun: list[str] = []
            for task_id, failure in done.failures.items():
                if isinstance(task_id, int):
                    rerun.extend(keys_of(task_id))
                else:
                    outcome.failures[task_id] = failure
            if direct:
                # Rows a worker persisted before its shard died stay done.
                for key in rerun:
                    stored = self.store.get(key)
                    if stored is not None:
                        payloads[key] = outcome.results[key] = stored
            rerun = [key for key in rerun if key not in payloads]
            if done.drained or (stop and outcome.failures):
                for task_id in done.not_run:
                    outcome.not_run.extend(keys_of(task_id))
                outcome.not_run.extend(rerun)
                break
            rerun_tasks = [job_task(key) for key in rerun]
            task_of.update((task[0], task) for task in rerun_tasks)
            # Re-runs go first, so a member that fails for good under
            # "raise" stops the run before the rest of the plan.
            tasks = rerun_tasks + [task_of[task_id] for task_id in done.not_run]
        return outcome, min(width, ntasks)

    def _run_tasks(
        self,
        tasks: list[tuple],
        workers: int,
        on_success: Callable[[Any, Any], None],
        stop_on_failure: bool,
        drain: DrainFlag,
        direct: bool,
    ) -> PoolOutcome:
        """One resilient pass: in-process for ``workers`` of 0/1, else
        on a pool.

        Direct-writing workers (:func:`execute_job_stored`,
        :func:`execute_fleet_shard_stored`) persist their own results;
        the parent releases its handles before forking — a forked
        SQLite connection shares POSIX locks — and refreshes afterwards
        (in a ``finally``: even a raising run must leave the parent
        store rehydrated, never with released handles) so recalls see
        the worker-written records.
        """
        if workers <= 1:
            return run_resilient_serial(
                tasks,
                policy=self.retry_policy,
                on_success=on_success,
                stop_on_failure=stop_on_failure,
                drain=drain,
            )
        if direct:
            self.store.release()
        try:
            return run_resilient_pool(
                tasks,
                workers=min(workers, len(tasks)),
                pool_factory=self._pool,
                policy=self.retry_policy,
                on_success=on_success,
                stop_on_failure=stop_on_failure,
                drain=drain,
            )
        finally:
            if direct:
                self.store.refresh()


# ---------------------------------------------------------------------------
# Shared consumer dispatch
# ---------------------------------------------------------------------------

def _registry_faithful(app: Application) -> bool:
    """Whether ``app`` is exactly what the registry builds for its name."""
    try:
        stock = registry.build(app.name)
    except WorkloadError:
        return False
    return app == stock


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

    Campaign jobs reference applications by registry name so pools and
    stores can rebuild them — which is only sound when ``app`` is
    exactly what the registry would build.  Custom or mutated instances
    therefore run serially, in-process, against the live object, and
    are never cached.  An explicitly passed ``engine`` wins (including
    its topology); otherwise an ad-hoc engine simulates the cluster's
    topology.  ``on_failure`` and ``retry_failed`` carry
    :meth:`CampaignEngine.run`'s failure semantics through (the
    custom-instance path has no store, so they only shape engine runs).
    """
    if _registry_faithful(app):
        if engine is None:
            engine = CampaignEngine(topology=cluster.topology)
        return engine.run(
            CampaignPlan(tuple(jobs)),
            on_failure=on_failure,
            retry_failed=retry_failed,
        )
    payloads = {
        topology_job_key(job, cluster.topology): execute_job(
            job, cluster.topology, app=app
        )
        for job in jobs
    }
    report = CampaignReport(
        planned=len(jobs), cached=0, executed=len(jobs), workers=1
    )
    return CampaignResults(payloads, report, topology=cluster.topology)
