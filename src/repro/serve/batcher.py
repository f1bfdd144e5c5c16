"""The coalescing queue: many pending requests, one kernel pass.

Every :class:`~repro.api.TuningRequest` field — benchmark, threads,
stride, node, seed — is a per-member axis of the fleet replay kernel
(:mod:`repro.execution.fleet_replay`): each cell of each requested
grid is just one fleet member.  The batcher therefore files *all*
pending requests into one group, so N queued requests across M
applications cost one fleet pass, and requests that share a **grid
spec** (see :meth:`repro.api.TuningRequest.grid_spec`) share one
measurement.  The service decides *when* a group fires (see
:mod:`repro.serve.service`: on the next loop tick while an execution
slot is free, or when a running group finishes); the batcher only
signals a group that has reached ``max_batch`` members.

This is sound because every cell's noise stream is keyed by (seed,
node, run key, region, iteration) — never by process, wall clock or
batch composition — so a coalesced answer is bit-identical to the solo
:func:`repro.api.tune` answer (property-tested in
``tests/serve/test_batcher.py``).

The batcher itself is a synchronous data structure — no asyncio, no
threads — so its invariants are directly testable; the service
(:mod:`repro.serve.service`) supplies the event loop, firing rule and
futures around it.  :func:`answer_group` is the pure execution step,
:func:`repro.api.tune_many`: one engine run over the group's distinct
jobs (grid rows and TMM-driven dynamic runs), then one answer per
member request.
"""

from __future__ import annotations

from repro import api
from repro.errors import CampaignError

__all__ = ["CoalescingBatcher", "answer_group", "split_group"]

#: Default batch cap: a group this large fires at once.
DEFAULT_MAX_BATCH = 16


class CoalescingBatcher:
    """Gather pending tuning requests into one group, deterministically.

    ``admit`` files a request and returns True when it filled the
    group to ``max_batch`` (flush now).  ``pop`` removes the group's
    requests, in admission order (results never depend on order anyway
    — every member's answer is bit-identical to its solo answer).
    """

    def __init__(self, *, max_batch: int = DEFAULT_MAX_BATCH):
        if max_batch < 1:
            raise CampaignError("max_batch must be >= 1")
        self.max_batch = max_batch
        self._group: list[api.TuningRequest] = []
        #: Lifetime counters (the service exposes them via /metrics).
        self.admitted = 0
        self.coalesced = 0
        self.groups_fired = 0

    # ------------------------------------------------------------------
    def admit(self, request: api.TuningRequest) -> bool:
        """File one resolved request; True when the group is full."""
        if self._group:
            self.coalesced += 1
        self._group.append(request)
        self.admitted += 1
        return len(self._group) >= self.max_batch

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
    """Partition one fired group by grid spec for parallel execution.

    A group holds *every* pending request; executing it
    as one unit would serialise the whole queue onto one pool worker.
    Splitting by grid spec keeps the batching win intact — requests that
    share a measurement stay together, so no grid is ever measured
    twice — while distinct grids spread round-robin across up to
    ``parts`` subgroups that execute concurrently.  Admission order is
    preserved within each subgroup and answers are bit-identical either
    way (only ``meta.coalesced``, which is explicitly not part of the
    answer, observes the partitioning).
    """
    if parts <= 1 or len(requests) <= 1:
        return [requests]
    slot_of: dict[api.GridSpec, int] = {}
    buckets: list[list[api.TuningRequest]] = []
    for request in requests:
        spec = request.grid_spec()
        slot = slot_of.get(spec)
        if slot is None:
            slot = len(slot_of) % parts
            slot_of[spec] = slot
            if slot == len(buckets):
                buckets.append([])
        buckets[slot].append(request)
    return buckets


#: Answer one coalesced group from one engine run, each member
#: bit-identical to its solo :func:`repro.api.tune`.  Callers reach it
#: through this module, so the service's executor can be wrapped here.
answer_group = api.tune_many
