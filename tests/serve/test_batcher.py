"""Coalescing-queue invariants and the bit-equality property.

The property that makes the serving layer trustworthy: however
requests are interleaved into the batcher and wherever the groups
are cut, every request's coalesced answer equals its solo
:func:`repro.api.tune` answer to the bit.  Hypothesis drives the
admission orders; the solo answers are computed once per request
identity and memoised.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import CampaignError
from repro.execution import fleet_replay
from repro.serve.batcher import CoalescingBatcher, answer_group

#: The request universe for the property: small grids (stride 7 keeps
#: 3 x 3 cells), two seeds, every objective.  Identities are distinct
#: but several share a grid key — exactly the coalescing case.
UNIVERSE = [
    api.TuningRequest("EP", stride=7, seed=seed, objective=objective)
    for seed in (0, 7)
    for objective in ("energy", "edp", "ed2p")
]

_SOLO_CACHE: dict[api.TuningRequest, dict] = {}


def solo_payload(request: api.TuningRequest) -> dict:
    if request not in _SOLO_CACHE:
        _SOLO_CACHE[request] = api.tune(request).payload()
    return _SOLO_CACHE[request]


class TestCoalescingBatcher:
    def test_same_grid_key_coalesces(self):
        batcher = CoalescingBatcher(max_batch=4)
        a = api.TuningRequest("EP", stride=7, objective="energy").resolved()
        b = api.TuningRequest("EP", stride=7, objective="edp").resolved()
        assert batcher.admit(a) is False
        assert batcher.admit(b) is False
        assert batcher.coalesced == 1
        assert batcher.pop() == [a, b]

    def test_max_batch_fires_immediately(self):
        batcher = CoalescingBatcher(max_batch=2)
        a = api.TuningRequest("EP", stride=7, objective="energy").resolved()
        b = api.TuningRequest("EP", stride=7, objective="edp").resolved()
        assert batcher.admit(a) is False
        assert batcher.admit(b) is True

    def test_pop_is_idempotent(self):
        batcher = CoalescingBatcher()
        request = api.TuningRequest("EP", stride=7).resolved()
        batcher.admit(request)
        assert batcher.pop() == [request]
        assert batcher.pop() == []
        assert batcher.groups_fired == 1

    def test_pop_flushes_everything(self):
        batcher = CoalescingBatcher()
        for request in UNIVERSE:
            batcher.admit(request.resolved())
        assert batcher.pending == len(UNIVERSE)
        assert len(batcher.pop()) == len(UNIVERSE)
        assert batcher.pending == 0

    def test_admit_after_pop_opens_a_fresh_group(self):
        batcher = CoalescingBatcher(max_batch=4)
        a = api.TuningRequest("EP", stride=7).resolved()
        b = api.TuningRequest("Mcb", stride=7).resolved()
        batcher.admit(a)
        first = batcher.pop()
        assert batcher.admit(b) is False
        second = batcher.pop()
        assert first == [a] and second == [b]
        assert batcher.groups_fired == 2
        assert batcher.coalesced == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CampaignError):
            CoalescingBatcher(max_batch=0)


class TestFleetCoalescing:
    """The batcher merges *across* grid keys: different benchmarks,
    seeds and nodes share one pending group, priced by a single
    fleet-kernel invocation."""

    def test_distinct_grid_keys_share_one_group(self):
        batcher = CoalescingBatcher(max_batch=8)
        requests = [
            api.TuningRequest("EP", stride=7, seed=0).resolved(),
            api.TuningRequest("EP", stride=7, seed=1).resolved(),
            api.TuningRequest("FT", stride=7).resolved(),
        ]
        for request in requests:
            batcher.admit(request)
        assert batcher.coalesced == 2
        assert batcher.pop() == requests
        assert batcher.pending == 0

    def test_two_apps_one_fleet_invocation_bit_identical(self, monkeypatch):
        """The regression the fleet key exists for: two requests with
        different benchmarks are priced by exactly one fleet-kernel
        pass, and each answer is bit-identical to its solo answer."""
        calls = []
        real_fleet_run = fleet_replay.fleet_run

        def counting_fleet_run(members, **kwargs):
            calls.append(len(members))
            return real_fleet_run(members, **kwargs)

        monkeypatch.setattr(fleet_replay, "fleet_run", counting_fleet_run)
        requests = [
            api.TuningRequest("EP", stride=7).resolved(),
            api.TuningRequest("FT", stride=7).resolved(),
        ]
        answers = answer_group(list(requests))
        assert len(calls) == 1
        # every cell of both benchmarks' grids rode the one invocation
        assert calls[0] == sum(
            len(axis_cfs) * len(axis_ucfs)
            for axis_cfs, axis_ucfs in [api.grid_axes(7)] * 2
        )
        monkeypatch.undo()
        for request, answer in zip(requests, answers):
            assert answer.payload() == api.tune(request).payload()


class TestAnswerGroup:
    def test_empty_group(self):
        assert answer_group([]) == []

    def test_mixed_grid_keys_answered_bit_identically(self):
        """A group spanning grid keys (the fleet-coalesced case) gets
        each member the same answer as its solo ``tune``."""
        requests = [
            api.TuningRequest("EP", stride=7, seed=0).resolved(),
            api.TuningRequest("EP", stride=7, seed=1).resolved(),
        ]
        answers = answer_group(list(requests))
        for request, answer in zip(requests, answers):
            assert answer.payload() == solo_payload(request)

    @given(
        order=st.permutations(range(len(UNIVERSE))),
        max_batch=st.integers(min_value=1, max_value=len(UNIVERSE)),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_admission_order_is_bit_identical_to_solo(
        self, order, max_batch
    ):
        """The tentpole invariant: coalesced == solo, always."""
        batcher = CoalescingBatcher(max_batch=max_batch)
        fired: list = []
        for index in order:
            request = UNIVERSE[index].resolved()
            if batcher.admit(request):
                fired.append(batcher.pop())
        if batcher.pending:
            fired.append(batcher.pop())
        answered = 0
        for group in fired:
            answers = answer_group(group)
            for request, answer in zip(group, answers):
                assert answer.payload() == solo_payload(request)
                answered += 1
        assert answered == len(UNIVERSE)
