"""The warm process pool behind the service: parallel group execution.

The serving layer's coalescing (PR 8) and the fleet kernel (PR 9) make
one group cheap; this module makes *many* groups cheap by executing
independent coalesced groups concurrently across a persistent pool of
worker processes instead of through the service's single executor
thread.  Three properties make that sound:

**Bit-identity.**  Every noise stream is keyed by (seed, node, run key,
region, iteration) — never by process, wall clock or batch composition
— so a group priced in worker process A is byte-equal to the same group
priced in worker B, in the parent, or in yesterday's campaign.  Killing
a worker mid-group and re-running the group elsewhere cannot change an
answer, which is why the pool's crash recovery below is a plain
respawn-and-resubmit.

**Warm forks.**  Workers are forked from the parent *after*
:func:`warm_process` has populated the expensive per-process state —
built registry applications, compiled structural/controlled schedule
caches, the memoised region-timing and power-breakdown tables, the RNG
digest-prefix hash states and ziggurat tables.  Fork's copy-on-write
semantics hand every worker that state for free, so steady-state
dispatch pays no per-worker warm-up.  (On platforms without fork, the
pool initializer re-warms in each worker instead — same caches, paid
once per worker.)

**Direct store writes.**  With a concurrent-writer store backend
(SQLite, sharded segments), each worker opens its own handle (one
campaign engine per pid, :func:`_worker_options`) and persists grid
rows as it executes them — same keys, same payloads as the serial
service path, no funneling through the parent.  The service refuses to
pool against a JSONL or in-memory store (:func:`pool_supported`) and
falls back to in-process execution.

Workers never raise across the process boundary for expected failures:
a :class:`~repro.errors.ReproError` is converted in-worker to the same
structured error envelope the serial service path would produce
(:func:`failure_envelope`), because exceptions like
:class:`~repro.errors.CampaignExecutionError` carry keyword-only state
that does not survive pickling.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro import api
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, CampaignExecutionError, ReproError
from repro.serve import batcher as batching
from repro.serve.schema import error_response

__all__ = [
    "GroupDispatch",
    "WorkerPool",
    "WorkerSpec",
    "failure_envelope",
    "pool_supported",
    "warm_process",
]

#: Grid thinning stride of the warm-up sweep: keeps only the axis
#: defaults (a 2x2 grid), so warming one benchmark costs four cells
#: while still compiling its structural schedule and touching every
#: per-process cache a real request needs.
WARM_STRIDE = 1_000_000

#: Bounded pool-respawn budget per group: a group that sees the pool
#: break this many times in a row definitively fails (mirrors
#: :class:`repro.campaign.resilience.RetryPolicy.max_retries`).
DEFAULT_MAX_RESPAWNS = 2


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild its execution state.

    Engines and stores are not picklable; workers reconstruct them from
    the store path/backend (cached per pid).  ``store_path`` of
    ``None`` means the service runs storeless — workers then execute
    without a campaign engine, exactly like the storeless serial path.
    """

    store_path: str | None = None
    store_backend: str | None = None
    retry_failed: bool = False
    #: Benchmarks warmed at pool start (and per worker without fork).
    warm: tuple[str, ...] = ()


def pool_supported(store) -> str | None:
    """Why ``store`` cannot take pool workers (``None`` when it can).

    Parallel workers write (and read) the store concurrently, so the
    backend must support concurrent writers — SQLite (WAL) and sharded
    segments do; the JSONL tier and in-memory stores do not.
    """
    if store is None:
        return None
    if store.path is None:
        return "an in-memory store cannot be shared with worker processes"
    if not store.supports_concurrent_writers:
        return (
            f"store backend {store.backend!r} does not support "
            "concurrent writers"
        )
    return None


def failure_envelope(exc: ReproError) -> dict[str, Any]:
    """The structured error envelope for one failed group.

    Shared by the serial service path and the pool workers (which
    convert in-worker — :class:`CampaignExecutionError` carries
    keyword-only constructor state that does not survive pickling).
    Under ``on_failure="quarantine"`` a failed job surfaces when the
    facade indexes its missing payload: a ``CampaignError`` naming the
    failure and the ``retry_failed`` remedy.  Both that and an explicit
    :class:`CampaignExecutionError` mean "this job is known bad".
    """
    if isinstance(exc, CampaignExecutionError):
        detail = "; ".join(
            record.describe() for record in exc.failures.values()
        )
        return error_response("quarantined", detail or str(exc))
    if "retry_failed" in str(exc):
        return error_response("quarantined", str(exc))
    return error_response("execution-error", str(exc))


# ---------------------------------------------------------------------------
# Per-process warm state (parent before fork; worker initializer otherwise)
# ---------------------------------------------------------------------------

#: Benchmarks this process has already warmed.  Forked workers inherit
#: the parent's set (together with the caches it stands for), so the
#: fork path never re-warms; spawn-started workers import a fresh module
#: and warm themselves in the pool initializer.
_WARMED: set[str] = set()


def warm_process(benchmarks: tuple[str, ...]) -> None:
    """Populate this process's expensive per-request caches.

    One minimal-stride sweep per benchmark builds the registry
    application, compiles its structural schedule into the owner-keyed
    :class:`~repro.execution.controlled_replay.ScheduleCache` pool,
    fills the memoised region-timing and power-breakdown tables for the
    default operating points, and draws through the RNG digest-prefix /
    ziggurat fast paths so their tables exist.  Idempotent per
    benchmark; results are deliberately not stored anywhere.
    """
    for name in benchmarks:
        if name in _WARMED:
            continue
        api.sweep_grid(name, stride=WARM_STRIDE)
        _WARMED.add(name)


def _init_worker(spec: WorkerSpec) -> None:
    """Pool initializer: warm spawn-started workers.

    Under the fork start method this is a no-op — the parent warmed
    before the pool existed and ``_WARMED`` (with the caches behind it)
    arrives via copy-on-write.
    """
    warm_process(spec.warm)


def _spawn_probe(delay_s: float) -> int:
    """Hold a worker busy long enough to force the next one to spawn."""
    time.sleep(delay_s)
    return os.getpid()


# ---------------------------------------------------------------------------
# Worker-side group execution
# ---------------------------------------------------------------------------

#: Per-process campaign engines for group execution, keyed by (pid,
#: store path) — the pid guard matters under fork, where a parent's
#: engine (and its store handle) would otherwise be inherited.
_WORKER_CAMPAIGNS: dict[tuple[int, str | None], CampaignEngine] = {}


def _worker_options(spec: WorkerSpec) -> api.ExecutionOptions:
    engine = None
    if spec.store_path is not None:
        key = (os.getpid(), spec.store_path)
        engine = _WORKER_CAMPAIGNS.get(key)
        if engine is None:
            store = ResultStore(spec.store_path, backend=spec.store_backend)
            engine = CampaignEngine(store=store)
            _WORKER_CAMPAIGNS[key] = engine
    return api.ExecutionOptions(
        campaign=engine,
        on_failure="quarantine",
        retry_failed=spec.retry_failed,
    )


def _run_group(
    requests: tuple[api.TuningRequest, ...], spec: WorkerSpec
) -> tuple:
    """Execute one coalesced group in a worker process.

    Returns ``("ok", [TuningAnswer.payload(), ...], pid)`` — payload
    dicts, not answers, so nothing model-shaped crosses the process
    boundary — or ``("error", envelope, pid)`` with the same structured
    envelope the serial path produces.  The worker's store handle is
    flushed before returning, so every grid row of an answered group is
    durable (and visible to other workers) by the time the client has
    its response.
    """
    options = _worker_options(spec)
    try:
        answers = batching.answer_group(list(requests), options)
    except ReproError as exc:
        outcome = ("error", failure_envelope(exc), os.getpid())
    else:
        outcome = (
            "ok",
            [answer.payload() for answer in answers],
            os.getpid(),
        )
    if options.campaign is not None and options.campaign.store is not None:
        options.campaign.store.flush()
    return outcome


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------

def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a broken pool down, killing workers that will not exit (its
    survivors cannot be cancelled through the executor API)."""
    procs = getattr(pool, "_processes", None)
    processes = list(procs.values()) if procs else []
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)


class GroupDispatch:
    """Cancellation handle for one dispatched group.

    The service registers one per in-flight group; at the drain
    deadline it calls :meth:`cancel`, which succeeds only for groups
    whose pool future has not started executing — exactly the queued
    work a bounded drain is allowed to abandon.  A running group is
    never interrupted (its waiters get their real answer).
    """

    __slots__ = ("future", "cancelled")

    def __init__(self) -> None:
        self.future: Future | None = None
        self.cancelled = False

    def cancel(self) -> bool:
        future = self.future
        if future is not None and future.cancel():
            self.cancelled = True
        return self.cancelled


class WorkerPool:
    """A persistent, warm, crash-tolerant process pool for group execution.

    Forked once at service start (after :func:`warm_process`), then
    reused for every group — no per-request process churn.  A
    ``BrokenProcessPool`` (a worker SIGKILLed mid-group, an OOM kill)
    triggers a generation-guarded respawn: the first affected group
    rebuilds the pool, concurrent victims just resubmit, and each group
    retries up to ``max_respawns`` times.  Resubmission is safe because
    answers are bit-identical wherever they run and store re-puts of
    already-persisted rows are no-ops.
    """

    def __init__(
        self,
        workers: int,
        spec: WorkerSpec,
        *,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ):
        if workers < 2:
            raise CampaignError(
                f"a worker pool needs at least 2 workers, got {workers} "
                "(use the in-process serial path instead)"
            )
        self.workers = workers
        self.spec = spec
        self.max_respawns = max_respawns
        self._executor: ProcessPoolExecutor | None = None
        self._generation = 0
        self._respawn_lock = asyncio.Lock()
        self._inflight = 0
        #: Groups completed per worker pid (a respawned pool's workers
        #: appear as fresh pids alongside their predecessors).
        self.groups_by_pid: dict[int, int] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Warm the parent, then create the pool (workers fork warm).

        The caller must release its own store handle around this call:
        modern ``ProcessPoolExecutor``s spawn workers lazily on submit,
        so the probes below force every worker to fork *now* — each
        probe occupies a worker long enough that the next submit finds
        no idle one and spawns a fresh process — while the parent holds
        no open handles a child could inherit.
        """
        if self._executor is not None:
            return
        warm_process(self.spec.warm)
        self._executor = self._make_pool()
        probes = [
            self._executor.submit(_spawn_probe, 0.1)
            for _ in range(self.workers)
        ]
        for probe in probes:
            probe.result(timeout=60.0)

    def _make_pool(self) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.spec,),
        )

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    @property
    def generation(self) -> int:
        """How many times the pool has been respawned after a crash."""
        return self._generation

    def metrics(self) -> dict[str, Any]:
        """The worker-pool gauges exposed at ``GET /metrics``."""
        return {
            "workers": self.workers,
            "busy_workers": min(self._inflight, self.workers),
            "queue_depth": max(0, self._inflight - self.workers),
            "groups_executed": sum(self.groups_by_pid.values()),
            "groups_per_worker": {
                str(pid): count
                for pid, count in sorted(self.groups_by_pid.items())
            },
        }

    # ------------------------------------------------------------------
    async def run_group(
        self,
        requests: list[api.TuningRequest],
        dispatch: GroupDispatch | None = None,
    ) -> tuple:
        """Execute one group on the pool; returns the worker's outcome.

        Raises :class:`asyncio.CancelledError` when ``dispatch`` was
        cancelled before the group started (drain deadline), and the
        final :class:`BrokenProcessPool` when the respawn budget is
        exhausted — everything else comes back as an ``("ok", ...)`` /
        ``("error", ...)`` outcome tuple from :func:`_run_group`.
        """
        if self._executor is None:
            raise CampaignError("worker pool is not started")
        self._inflight += 1
        try:
            respawns = 0
            while True:
                generation = self._generation
                try:
                    future = self._executor.submit(
                        _run_group, tuple(requests), self.spec
                    )
                except BrokenProcessPool:
                    respawns += 1
                    if respawns > self.max_respawns:
                        raise
                    await self._respawn(generation)
                    continue
                if dispatch is not None:
                    dispatch.future = future
                try:
                    outcome = await asyncio.wrap_future(future)
                except asyncio.CancelledError:
                    if dispatch is not None and dispatch.cancelled:
                        raise
                    # A respawn tore down the old pool and cancelled its
                    # queued futures; this group was an innocent victim
                    # and resubmits against the fresh pool for free.
                    await self._respawn(generation)
                    continue
                except BrokenProcessPool:
                    respawns += 1
                    if respawns > self.max_respawns:
                        raise
                    await self._respawn(generation)
                    continue
                if outcome[0] == "ok":
                    pid = outcome[2]
                    self.groups_by_pid[pid] = (
                        self.groups_by_pid.get(pid, 0) + 1
                    )
                return outcome
        finally:
            self._inflight -= 1

    async def _respawn(self, seen_generation: int) -> None:
        """Replace a broken pool, exactly once per generation.

        Concurrent victims of one crash all call in; the first one
        holding the lock respawns, the rest see the bumped generation
        and simply resubmit.  The old pool's corpse is force-killed off
        the event loop (its joins can take seconds).
        """
        async with self._respawn_lock:
            if self._generation != seen_generation or self._executor is None:
                return
            broken = self._executor
            self._executor = self._make_pool()
            self._generation += 1
            await asyncio.get_running_loop().run_in_executor(
                None, _kill_pool, broken
            )
