"""The request lifecycle: admission → dedup → coalesce → execute → respond.

:class:`TuningService` is the transport-agnostic core of ``repro-serve``
(the HTTP front end in :mod:`repro.serve.server` is a thin shell around
:meth:`TuningService.handle`, and the throughput benchmark drives
``handle`` directly).  One request flows through four gates:

1. **Admission** — parse and validate against the wire schema, then
   check the values only execution would otherwise reject (node id,
   thread count, tuning model: :func:`~repro.serve.schema.
   check_admissible`), so a bad request is answered ``bad-value`` alone
   and never fails the group it would have joined; while draining, new
   work is refused with a ``draining`` error so clients retry
   elsewhere.
2. **Dedup** — an *exact* duplicate of an in-flight request joins its
   future (zero extra work); a request whose grid rows are all in the
   result store is answered from the store without touching the
   execution path.  Result records always shadow failure records here —
   a stale :class:`~repro.campaign.resilience.FailureRecord` left over
   from a failed run that later succeeded must not quarantine a request
   whose answer is sitting in the store (the same precedence
   :meth:`CampaignEngine.run` applies).  Only when rows are *missing*
   does a persisted failure record quarantine the request (unless the
   service runs with ``retry_failed=True``).
3. **Coalesce** — distinct pending requests wait together in the
   :class:`~repro.serve.batcher.CoalescingBatcher` and are answered
   from one pass of the fleet kernel.  Admission is *work-conserving*:
   while an execution slot is free (fewer group tasks in flight than
   ``workers``), the pending group fires on the next loop tick, so only
   requests admitted in the same tick join it and an idle service adds
   no delay; while every slot is busy, requests accumulate and the
   group fires as soon as a running group finishes, so under load
   batches grow by themselves.  A group that reaches ``max_batch``
   fires at once.
4. **Execute** — with ``workers >= 2`` and a concurrent-writer store
   backend, groups execute *concurrently* on the warm process pool of
   :mod:`repro.serve.workers` (a group is first split by grid key so
   distinct measurements spread across workers); otherwise groups run
   serially on one worker thread.
   Either way execution goes through the campaign engine (store-backed
   caching plus the PR-7 retry/timeout semantics) and definitive
   failures come back as structured ``quarantined`` /
   ``execution-error`` responses, never as a dead connection.
   Responses are bit-identical across both paths.

Graceful drain (:meth:`drain`): stop admitting, flush the pending
group immediately, and wait for in-flight work — bounded by the drain
deadline: a group still *queued* (not yet started) when the deadline
expires is cancelled and its waiters get a structured ``draining``
error instead of hanging forever; groups already running always finish
and answer normally.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import api
from repro.campaign.engine import (
    CampaignEngine,
    qualified_descriptor,
    topology_job_key,
)
from repro.campaign.plan import grid_jobs
from repro.campaign.resilience import FailureRecord, failure_descriptor
from repro.campaign.store import ResultStore, job_key
from repro.errors import ReproError, SchemaError, TuningError
from repro.execution.simulator import OperatingPoint
from repro.serve import batcher as batching
from repro.serve import workers as pooling
from repro.serve.schema import (
    check_admissible,
    error_response,
    ok_response,
    parse_request,
)

__all__ = ["DEFAULT_DRAIN_DEADLINE_S", "ServiceMetrics", "TuningService"]

#: Default bound on :meth:`TuningService.drain`: how long flushed and
#: in-flight groups may keep executing before still-queued ones are
#: cancelled with a ``draining`` error.
DEFAULT_DRAIN_DEADLINE_S = 30.0

#: Sentinel distinguishing "use the service default" from an explicit
#: ``deadline_s=None`` (wait forever) in :meth:`TuningService.drain`.
_UNSET: Any = object()

#: Error codes one group member can cause on its own (a ``ReproError``
#: in execution); only these are retried one request at a time.  An
#: ``internal`` failure (the pool broken past its respawn budget) has a
#: shared cause and answers the whole group at once.
_MEMBER_FAILURES = frozenset({"execution-error", "quarantined"})


@dataclass
class ServiceMetrics:
    """Lifetime counters, exposed verbatim at ``GET /metrics``."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    #: Requests answered entirely from the result store.
    cached_hits: int = 0
    #: Requests that joined an identical in-flight request's future.
    inflight_joins: int = 0
    #: Requests refused because the service was draining.
    drain_rejections: int = 0
    #: Requests answered with a ``quarantined`` error.
    quarantined: int = 0
    #: Requests whose queued group was cancelled at the drain deadline.
    drain_cancelled: int = 0

    def payload(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "cached_hits": self.cached_hits,
            "inflight_joins": self.inflight_joins,
            "drain_rejections": self.drain_rejections,
            "quarantined": self.quarantined,
            "drain_cancelled": self.drain_cancelled,
        }


@dataclass
class _Inflight:
    """One in-flight identity: its future and how many callers wait."""

    future: asyncio.Future
    waiters: int = 1
    coalesced_with: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


class TuningService:
    """Asyncio tuning service with store dedup and cross-request batching.

    ``admission="batched"`` (the default) coalesces every pending
    request — across benchmarks, threads, nodes and seeds — into groups
    of at most ``max_batch``; ``"unbatched"`` degrades to a
    one-request-per-sweep service (the benchmark's control arm) while
    keeping the rest of the lifecycle identical.  A ``store`` turns on
    persistent dedup and quarantine; without one the service still
    coalesces and joins in-flight duplicates, it just never remembers.

    ``workers >= 2`` executes independent groups concurrently on a
    warm process pool (:mod:`repro.serve.workers`) when the store can
    take parallel writers (SQLite/segments, or no store at all); a
    JSONL or in-memory store falls back to the serial in-process path
    and records why under ``worker_pool.fallback`` in the metrics.
    ``warm`` names benchmarks whose caches are preloaded before the
    pool forks, so workers start warm.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        max_batch: int = batching.DEFAULT_MAX_BATCH,
        admission: str = "batched",
        retry_failed: bool = False,
        retry_policy=None,
        workers: int = 1,
        drain_deadline_s: float | None = DEFAULT_DRAIN_DEADLINE_S,
        warm: tuple[str, ...] = (),
    ):
        if admission not in ("batched", "unbatched"):
            raise SchemaError(
                f"unknown admission mode: {admission!r}; "
                "known: ('batched', 'unbatched')"
            )
        if admission == "unbatched":
            max_batch = 1
        self.admission = admission
        self.retry_failed = retry_failed
        self.metrics = ServiceMetrics()
        self.batcher = batching.CoalescingBatcher(max_batch=max_batch)
        self.engine = (
            CampaignEngine(store=store, retry_policy=retry_policy)
            if store is not None
            else None
        )
        # "quarantine": definitive failures persist as FailureRecords
        # (with a store), so later duplicates are refused instantly
        # instead of re-simulating a known-bad job.
        self.options = api.ExecutionOptions(
            campaign=self.engine,
            on_failure="quarantine",
            retry_failed=retry_failed,
        )
        self._inflight: dict[api.TuningRequest, _Inflight] = {}
        self._draining = False
        #: Set when the drain deadline fires; no solo retry starts after.
        self._drain_expired = False
        self.drain_deadline_s = drain_deadline_s
        #: The pending group's next-tick firing, armed while a slot is free.
        self._fire_handle: asyncio.Handle | None = None
        #: Execution tasks of fired groups (the busy slots; what drain
        #: waits for).
        self._group_tasks: set[asyncio.Task] = set()
        #: Cancellation handles of dispatched groups (drain deadline).
        self._dispatches: set[pooling.GroupDispatch] = set()
        # Serial path: one worker thread, so the engine and store never
        # see concurrent in-process writers and batched throughput
        # gains come from doing fewer sweeps — the pool below is what
        # adds cores.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._serial_inflight = 0
        self._serial_groups = 0
        # Parallel path: a warm process pool, only when the store can
        # take concurrent writers (or there is no store to write).
        self.workers = 1
        self.pool_fallback: str | None = None
        self._pool: pooling.WorkerPool | None = None
        requested = max(1, int(workers))
        if requested > 1:
            reason = pooling.pool_supported(store)
            if reason is not None:
                self.pool_fallback = reason
            else:
                spec = pooling.WorkerSpec(
                    store_path=(
                        str(store.path) if store is not None else None
                    ),
                    store_backend=(
                        store.backend if store is not None else None
                    ),
                    retry_failed=retry_failed,
                    warm=tuple(warm),
                )
                self._pool = pooling.WorkerPool(requested, spec)
                # Workers must not inherit an open store handle: release
                # the parent's before the pool forks, reopen after.
                if store is not None:
                    store.release()
                try:
                    self._pool.start()
                finally:
                    if store is not None:
                        store.refresh()
                self.workers = requested
        elif warm:
            pooling.warm_process(tuple(warm))

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def metrics_payload(self) -> dict[str, Any]:
        payload = self.metrics.payload()
        payload.update(
            admitted=self.batcher.admitted,
            coalesced=self.batcher.coalesced,
            groups_fired=self.batcher.groups_fired,
            pending=self.batcher.pending,
            inflight=len(self._inflight),
        )
        payload["worker_pool"] = self._pool_metrics()
        return payload

    def _pool_metrics(self) -> dict[str, Any]:
        """Worker-pool gauges: saturation must be observable."""
        if self._pool is not None:
            return self._pool.metrics()
        gauges: dict[str, Any] = {
            "workers": 1,
            "busy_workers": min(1, self._serial_inflight),
            "queue_depth": max(0, self._serial_inflight - 1),
            "groups_executed": self._serial_groups,
            "groups_per_worker": {"in-process": self._serial_groups},
        }
        if self.pool_fallback is not None:
            gauges["fallback"] = self.pool_fallback
        return gauges

    # ------------------------------------------------------------------
    async def handle(self, payload: Any) -> dict[str, Any]:
        """Serve one wire request; always returns a response envelope."""
        self.metrics.requests += 1
        response = await self._handle(payload)
        if response.get("status") == "ok":
            self.metrics.ok += 1
        else:
            self.metrics.errors += 1
        return response

    async def _handle(self, payload: Any) -> dict[str, Any]:
        if self._draining:
            self.metrics.drain_rejections += 1
            return error_response(
                "draining", "service is draining; resubmit elsewhere"
            )
        try:
            request = parse_request(payload).resolved()
            check_admissible(
                request, self.options.resolve_cluster(request.seed)
            )
        except SchemaError as exc:
            return error_response("bad-request", str(exc))
        except TuningError as exc:
            return error_response("bad-value", str(exc))

        # Exact in-flight duplicate: join its future.
        entry = self._inflight.get(request)
        if entry is not None:
            entry.waiters += 1
            self.metrics.inflight_joins += 1
            return await asyncio.shield(entry.future)

        # Store fast path: a fully cached grid answers without executing,
        # and a persisted failure quarantines without executing.
        if self.engine is not None and self.engine.store is not None:
            hit = await self._from_store(request)
            if hit is not None:
                return hit

        return await self._enqueue(request)

    # ------------------------------------------------------------------
    def _grid_jobs(self, request: api.TuningRequest):
        cfs, ucfs = api.grid_axes(request.stride)
        cluster = self.options.resolve_cluster(request.seed)
        points = [
            OperatingPoint(cf, ucf, request.threads)
            for cf in cfs
            for ucf in ucfs
        ]
        jobs = grid_jobs(
            request.benchmark,
            label="heatmap",
            points=points,
            node_id=request.node_id,
            seed=request.seed,
            node_seed=cluster.seed,
        )
        return jobs, cfs, ucfs

    async def _from_store(self, request: api.TuningRequest) -> dict | None:
        """Answer (or quarantine) one request from the result store.

        Returns ``None`` when any grid row is missing *and* none of the
        missing rows carries a failure record — the request then takes
        the normal coalesce/execute path.  A result record always wins
        over a failure record for the same job: stale quarantine
        entries (failed once, re-run successfully later) never shadow a
        stored answer.
        """
        store = self.engine.store
        topology = self.engine.topology
        jobs, cfs, ucfs = self._grid_jobs(request)
        payloads = []
        for job in jobs:
            payload = store.get(topology_job_key(job, topology))
            if payload is not None:
                # Results shadow failure records, not the reverse.
                payloads.append(payload)
                continue
            if not self.retry_failed:
                failure = store.get(
                    job_key(
                        failure_descriptor(
                            qualified_descriptor(job, topology)
                        )
                    )
                )
                if failure is not None:
                    record = FailureRecord.from_payload(failure)
                    self.metrics.quarantined += 1
                    return error_response(
                        "quarantined",
                        f"job is quarantined: {record.describe()}; "
                        "restart the service with --retry-failed to retry",
                    )
            return None
        # TMM-carrying requests still need their dynamic run priced; let
        # the execution path do it (the engine caches that job too).
        if request.tmm is not None:
            return None
        shape = (len(cfs), len(ucfs))
        grid = api.GridMeasurement(
            benchmark=request.benchmark,
            threads=request.threads,
            node_id=request.node_id,
            seed=request.seed,
            core_frequencies=cfs,
            uncore_frequencies=ucfs,
            node_energy_j=np.array(
                [e for p in payloads for e in p["node_energy_j"]]
            ).reshape(shape),
            cpu_energy_j=np.array(
                [e for p in payloads for e in p["cpu_energy_j"]]
            ).reshape(shape),
            time_s=np.array(
                [t for p in payloads for t in p["time_s"]]
            ).reshape(shape),
        )
        self.metrics.cached_hits += 1
        return ok_response(
            grid.answer(request), meta={"cached": True, "coalesced": 0}
        )

    # ------------------------------------------------------------------
    async def _enqueue(self, request: api.TuningRequest) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        entry = _Inflight(future=loop.create_future())
        self._inflight[request] = entry
        if self.batcher.admit(request):
            self._fire()
        else:
            self._schedule_fire()
        return await asyncio.shield(entry.future)

    def _schedule_fire(self) -> None:
        """Fire the pending group on the next loop tick if a slot is free.

        The one tick lets requests admitted in the same tick (an
        ``asyncio.gather`` burst, same-instant arrivals) join the group.
        With every slot busy nothing is armed: the group keeps growing
        until a running group's task finishes and calls back here.
        """
        if (
            self._fire_handle is None
            and self.batcher.pending
            and len(self._group_tasks) < self.workers
        ):
            self._fire_handle = asyncio.get_running_loop().call_soon(
                self._fire
            )

    def _fire(self) -> None:
        """Flush the pending group (next tick, max_batch or drain)."""
        if self._fire_handle is not None:
            self._fire_handle.cancel()
            self._fire_handle = None
        group = self.batcher.pop()
        if group:
            self._launch(group)

    def _launch(self, group: list[api.TuningRequest]) -> None:
        """Start one fired group's execution task(s).

        With a pool, the group is first split by grid key
        (``batching.split_group``) over the free slots, so distinct
        measurements execute concurrently across idle workers instead
        of serialising the whole queue onto one; requests sharing a grid
        stay together, so no measurement is duplicated.  Serially
        (one slot), the group runs whole.
        """
        loop = asyncio.get_running_loop()
        free = self.workers - len(self._group_tasks)
        for part in batching.split_group(group, free):
            task = loop.create_task(self._execute_group(part))
            self._group_tasks.add(task)
            task.add_done_callback(self._group_done)

    def _group_done(self, task: asyncio.Task) -> None:
        """A slot freed up: fire whatever accumulated meanwhile."""
        self._group_tasks.discard(task)
        self._schedule_fire()

    async def _dispatch_group(
        self,
        requests: list[api.TuningRequest],
        dispatch: pooling.GroupDispatch,
    ) -> tuple:
        """Execute one group; returns a worker-style outcome tuple."""
        if self._pool is not None:
            return await self._pool.run_group(requests, dispatch)
        future = self._executor.submit(
            batching.answer_group, list(requests), self.options
        )
        dispatch.future = future
        self._serial_inflight += 1
        try:
            answers = await asyncio.wrap_future(future)
        finally:
            self._serial_inflight -= 1
        self._serial_groups += 1
        return ("ok", [answer.payload() for answer in answers], None)

    async def _execute_group(self, group: list[api.TuningRequest]) -> None:
        """Execute one group and answer its waiters.

        A group of several requests that fails with an error one member
        can cause (an injected fault, a quarantined job) is re-dispatched
        one request at a time, in admission order and on the same slot,
        so only a request that fails alone keeps its error.  Once the
        drain deadline has fired no retry starts: the requests not yet
        retried get the group's error, as does every member of a group
        failing for a shared cause.
        """
        outcome = await self._run_dispatch(group)
        if outcome is None:
            return
        if outcome[0] == "error":
            envelope = outcome[1]
            pending = list(group)
            if len(group) > 1 and envelope["error"]["code"] in _MEMBER_FAILURES:
                while pending and not self._drain_expired:
                    await self._execute_group([pending.pop(0)])
            if envelope["error"]["code"] == "quarantined":
                self.metrics.quarantined += len(pending)
            for request in pending:
                self._resolve(request, dict(envelope))
            return
        coalesced = len(group) - 1
        for request, payload in zip(group, outcome[1]):
            self._resolve(
                request,
                ok_response(
                    payload, meta={"cached": False, "coalesced": coalesced}
                ),
            )

    async def _run_dispatch(self, group: list[api.TuningRequest]) -> tuple | None:
        """Dispatch one group; returns its outcome tuple, or ``None``
        when the drain deadline cancelled it before it started (its
        waiters are then already answered with ``draining``)."""
        dispatch = pooling.GroupDispatch()
        self._dispatches.add(dispatch)
        try:
            return await self._dispatch_group(group, dispatch)
        except asyncio.CancelledError:
            if not dispatch.cancelled:
                raise
            # Drain deadline: this group never started executing.
            self.metrics.drain_cancelled += len(group)
            response = error_response(
                "draining",
                "the drain deadline expired before this queued "
                "group started; resubmit against another instance",
            )
            for request in group:
                self._resolve(request, dict(response))
            return None
        except ReproError as exc:
            return ("error", pooling.failure_envelope(exc), None)
        except Exception as exc:  # pool broken beyond its respawn budget
            return (
                "error",
                error_response(
                    "internal",
                    f"worker pool failed executing this group: {exc}",
                ),
                None,
            )
        finally:
            self._dispatches.discard(dispatch)

    def _resolve(self, request: api.TuningRequest, response: dict) -> None:
        entry = self._inflight.pop(request, None)
        if entry is not None and not entry.future.done():
            entry.future.set_result(response)

    # ------------------------------------------------------------------
    async def drain(self, deadline_s: float | None = _UNSET) -> None:
        """Stop admitting, flush the pending group, await in-flight work.

        Bounded: after ``deadline_s`` (defaulting to the service's
        ``drain_deadline_s``; ``None`` waits forever) any group that
        has not *started* executing is cancelled and its waiters get a
        structured ``draining`` error.  Groups already running always
        finish and answer normally — cancellation succeeds only on
        queued executor futures, so no in-progress work is interrupted.
        A running group that fails after the deadline is not retried
        request by request: each member gets the group's error.
        """
        self._draining = True
        if deadline_s is _UNSET:
            deadline_s = self.drain_deadline_s
        self._fire()
        while self._group_tasks:
            done, pending = await asyncio.wait(
                set(self._group_tasks), timeout=deadline_s
            )
            if pending:
                self._drain_expired = True
                for dispatch in list(self._dispatches):
                    dispatch.cancel()
                # Cancelled groups resolve immediately with `draining`;
                # running ones keep going — wait them out unbounded.
                deadline_s = None
        futures = [e.future for e in self._inflight.values()]
        if futures:
            await asyncio.gather(*futures, return_exceptions=True)

    async def aclose(self) -> None:
        """Drain, then release the execution backends and the store."""
        await self.drain()
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
        if self.engine is not None and self.engine.store is not None:
            self.engine.store.flush()
