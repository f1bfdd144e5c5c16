"""The coalescing queue: many pending requests, one kernel pass.

Every :class:`~repro.api.TuningRequest` field — benchmark, threads,
stride, node, seed — is a per-member axis of the fleet replay kernel
(:mod:`repro.execution.fleet_replay`): each cell of each requested
grid is just one fleet member.  The batcher therefore files *all*
pending requests into one group, so N queued requests across M
applications cost one fleet pass, and requests that share a **grid
key** (see :meth:`repro.api.TuningRequest.grid_key`) share one
measurement.  The group flushes when it reaches ``max_batch`` members
or its ``max_wait_s`` admission window closes.

This is sound because every cell's noise stream is keyed by (seed,
node, run key, region, iteration) — never by process, wall clock or
batch composition — so a coalesced answer is bit-identical to the solo
:func:`repro.api.tune` answer (property-tested in
``tests/serve/test_batcher.py``).

The batcher itself is a synchronous data structure — no asyncio, no
threads — so its invariants are directly testable; the service
(:mod:`repro.serve.service`) supplies the event loop, window timer and
futures around it.  :func:`answer_group` is the pure execution step:
one batched measurement of the group's distinct grids, then one answer
per member request.
"""

from __future__ import annotations

from dataclasses import replace

from repro import api
from repro.errors import CampaignError

__all__ = ["CoalescingBatcher", "answer_group", "split_group"]

#: Default admission window and batch cap.  The window only delays the
#: *first* request of a group; followers join for free.  20 ms is long
#: against network jitter between near-simultaneous clients and short
#: against a sweep (hundreds of ms cold).
DEFAULT_MAX_WAIT_S = 0.02
DEFAULT_MAX_BATCH = 16


class CoalescingBatcher:
    """Gather pending tuning requests into one group, deterministically.

    ``admit`` files a request and returns ``(started, fire)`` —
    ``started`` is True when the admission opened a new group (the
    caller should arm its flush timer for ``max_wait_s``) and ``fire``
    is True when it filled the group to ``max_batch`` (flush now, don't
    wait for the window).  ``pop`` removes the group's requests, in
    admission order (results never depend on order anyway — every
    member's answer is bit-identical to its solo answer).
    """

    def __init__(
        self,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_s: float = DEFAULT_MAX_WAIT_S,
    ):
        if max_batch < 1:
            raise CampaignError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise CampaignError("max_wait_s must be >= 0")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._group: list[api.TuningRequest] = []
        #: Lifetime counters (the service exposes them via /metrics).
        self.admitted = 0
        self.coalesced = 0
        self.groups_fired = 0

    # ------------------------------------------------------------------
    def admit(self, request: api.TuningRequest) -> tuple[bool, bool]:
        """File one resolved request; returns (started, fire)."""
        started = not self._group
        if not started:
            self.coalesced += 1
        self._group.append(request)
        self.admitted += 1
        return started, len(self._group) >= self.max_batch

    def pop(self) -> list[api.TuningRequest]:
        """Remove and return the pending requests (empty if none)."""
        group, self._group = self._group, []
        if group:
            self.groups_fired += 1
        return group

    @property
    def pending(self) -> int:
        return len(self._group)


def split_group(
    requests: list[api.TuningRequest], parts: int
) -> list[list[api.TuningRequest]]:
    """Partition one fired group by grid key for parallel execution.

    A group holds *every* pending request; executing it
    as one unit would serialise the whole queue onto one pool worker.
    Splitting by grid key keeps the batching win intact — requests that
    share a measurement stay together, so no grid is ever measured
    twice — while distinct grids spread round-robin across up to
    ``parts`` subgroups that execute concurrently.  Admission order is
    preserved within each subgroup and answers are bit-identical either
    way (only ``meta.coalesced``, which is explicitly not part of the
    answer, observes the partitioning).
    """
    if parts <= 1 or len(requests) <= 1:
        return [requests]
    slot_of: dict[tuple, int] = {}
    buckets: list[list[api.TuningRequest]] = []
    for request in requests:
        key = request.grid_key()
        slot = slot_of.get(key)
        if slot is None:
            slot = len(slot_of) % parts
            slot_of[key] = slot
            if slot == len(buckets):
                buckets.append([])
        buckets[slot].append(request)
    return buckets


def answer_group(
    requests: list[api.TuningRequest],
    options: api.ExecutionOptions | None = None,
) -> list[api.TuningAnswer]:
    """Answer one coalesced group from one batched measurement.

    The group's *distinct* grid keys are deduplicated and their grids
    measured in a single :func:`repro.api.sweep_grids` invocation (one
    fleet-kernel pass spanning every benchmark/thread/node/seed in the
    group); each request's objective argmin — plus its TMM-priced
    dynamic run, when it carries one — is then evaluated from its grid.
    Per request, the result is bit-identical to :func:`repro.api.tune`,
    which performs exactly this fold for a group of one.
    """
    if not requests:
        return []
    resolved = [request.resolved() for request in requests]
    grid_of: dict[tuple, api.GridMeasurement] = {}
    unique = []
    for request in resolved:
        key = request.grid_key()
        if key not in grid_of:
            grid_of[key] = None  # type: ignore[assignment]
            unique.append(request)
    options = options if options is not None else api.ExecutionOptions()
    grids = api.sweep_grids(
        [request.grid_spec() for request in unique], options=options
    )
    for request, grid in zip(unique, grids):
        grid_of[request.grid_key()] = grid
    answers = []
    for request in resolved:
        answer = grid_of[request.grid_key()].answer(request)
        if request.tmm is not None:
            answer = replace(
                answer, dynamic=api._dynamic_outcome(request, options)
            )
        answers.append(answer)
    return answers
