"""Property-based invariants of the switch-schedule compiler.

Complements the bit-identity suite: instead of comparing against the
recursive engine, these check structural invariants that must hold for
*every* compiled :class:`~repro.execution.controlled_replay.ControlSchedule`
— whatever the application, tuning model or entry state hypothesis
draws — and the schedule cache those compiles are looked up in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.execution.controlled_replay import ScheduleCache, schedule_cache_key
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.node import ComputeNode, NodeRecipe
from repro.hardware.topology import NodeTopology
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry

APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke", "BT-MZ")

CONFIG_POOL = (
    OperatingPoint(2.5, 2.1, 24),
    OperatingPoint(2.4, 2.0, 24),
    OperatingPoint(2.2, 1.8, 20),
    OperatingPoint(1.8, 2.4, 16),
)


@st.composite
def compiled_schedules(draw):
    """A freshly compiled schedule plus its ingredients."""
    app = registry.build(draw(st.sampled_from(APPS)))
    regions = [r.name for r in app.phase.children]
    tuned = draw(
        st.lists(st.sampled_from(regions), unique=True, max_size=len(regions))
    ) if regions else []
    best = {"phase": draw(st.sampled_from(CONFIG_POOL))}
    for name in tuned:
        best[name] = draw(st.sampled_from(CONFIG_POOL))
    model = TuningModel.from_best_configs(app.name, "phase", best)
    node = ComputeNode(draw(st.integers(min_value=0, max_value=3)))
    if draw(st.booleans()):
        node.set_frequencies(1.6, 1.5)
    instrumented = draw(st.booleans())
    schedule = RRL(model).compile_schedule(
        app,
        node,
        threads=config.DEFAULT_OPENMP_THREADS,
        instrumented=instrumented,
        instrumentation=None,
    )
    return app, schedule


class TestScheduleInvariants:
    @given(compiled_schedules())
    @settings(max_examples=30, deadline=None)
    def test_switch_count_bounded_by_region_enters(self, compiled):
        """The RRL switches at region enters only, at most once each."""
        _app, schedule = compiled
        assert 0 <= schedule.switch_charges <= schedule.region_enters

    @given(compiled_schedules())
    @settings(max_examples=30, deadline=None)
    def test_segments_partition_the_trace(self, compiled):
        """Spans cover every iteration exactly once, in order."""
        app, schedule = compiled
        assert schedule.iterations == app.phase_iterations
        covered = []
        for index, start, count in schedule.spans:
            assert 0 <= index < len(schedule.patterns)
            assert count >= 1
            covered.extend(range(start, start + count))
        assert covered == list(range(app.phase_iterations))

    @given(compiled_schedules())
    @settings(max_examples=30, deadline=None)
    def test_patterns_converge_quickly(self, compiled):
        """Name-keyed decisions reach their fixed point by iteration two,
        so the walk never compiles more than two distinct patterns."""
        _app, schedule = compiled
        assert 1 <= len(schedule.patterns) <= 2

    @given(compiled_schedules())
    @settings(max_examples=30, deadline=None)
    def test_patterns_share_the_region_tree(self, compiled):
        """Patterns differ in operating points and switch charges only —
        the flattened tree (regions, children, work rows) is invariant."""
        app, schedule = compiled
        reference = schedule.patterns[0]
        region_count = sum(1 for _ in app.phase.walk())
        assert len(reference.slots) == region_count
        for pattern in schedule.patterns[1:]:
            assert len(pattern.slots) == len(reference.slots)
            for a, b in zip(pattern.slots, reference.slots):
                assert a.region.name == b.region.name
                assert a.children == b.children
                assert a.has_work == b.has_work
                assert a.work_index == b.work_index

    @given(compiled_schedules())
    @settings(max_examples=30, deadline=None)
    def test_charge_spans_nest(self, compiled):
        """Every slot's charge span contains its children's spans."""
        _app, schedule = compiled
        for pattern in schedule.patterns:
            for slot in pattern.slots:
                assert 0 <= slot.charge_start <= slot.charge_end
                assert slot.charge_end <= pattern.num_charges
                for child in slot.children:
                    child_slot = pattern.slots[child]
                    assert slot.charge_start <= child_slot.charge_start
                    assert child_slot.charge_end <= slot.charge_end

    @given(compiled_schedules())
    @settings(max_examples=20, deadline=None)
    def test_replayed_switching_time_matches_schedule(self, compiled):
        """The run's accounted switching time is exactly the schedule's
        switch charges times their constant latencies."""
        app, schedule = compiled
        latency_total = sum(
            float(pattern.switch_latencies.sum()) * count
            for (index, _start, count) in schedule.spans
            for pattern in (schedule.patterns[index],)
        )
        assert latency_total >= 0
        # Switch charges exist iff latency accrues.
        assert (schedule.switch_charges > 0) == (latency_total > 0)


class TestScheduleStatistics:
    def test_stats_match_trace_arithmetic(self):
        """Region enters counted by the compiled run equal slots x
        iterations, however the spans segment the trace."""
        app = registry.build("Lulesh")
        best = {"phase": OperatingPoint(2.5, 2.1, 24)}
        for i, region in enumerate(app.phase.children[:3]):
            best[region.name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
        model = TuningModel.from_best_configs("Lulesh", "phase", best)
        rrl = RRL(model)
        ExecutionSimulator(ComputeNode(0)).run(
            app, controller=rrl, instrumented=True, run_key=("stats", 0)
        )
        region_count = sum(1 for _ in app.phase.walk())
        assert rrl.stats.region_enters == region_count * app.phase_iterations
        assert rrl.stats.scenario_hits <= rrl.stats.region_enters
        assert rrl.stats.frequency_switches <= rrl.stats.scenario_hits


class TestScheduleCache:
    def test_fifo_eviction_past_maxsize(self):
        """Past ``maxsize`` entries the oldest goes first: after
        ``maxsize + 1`` puts the first key misses and the second hits."""
        app = registry.build("EP")
        cache = ScheduleCache(maxsize=3)
        for k in range(4):
            cache.put(app, (k,), f"schedule-{k}")
        assert cache.get(app, (0,)) is None
        assert cache.get(app, (1,)) == "schedule-1"
        assert cache.get(app, (3,)) == "schedule-3"

    @pytest.mark.parametrize(
        "core, uncore",
        [
            (config.DEFAULT_CORE_FREQ_GHZ, config.DEFAULT_UNCORE_FREQ_GHZ),
            (1.6, config.DEFAULT_UNCORE_FREQ_GHZ),
            (config.DEFAULT_CORE_FREQ_GHZ, 1.5),
            (1.6, 1.5),
        ],
    )
    def test_node_recipe_keys_like_its_node(self, core, uncore):
        """A fresh member's recipe keys the cache exactly as the node it
        describes, programmed: a frequency off the default is pending."""
        topology = NodeTopology.build(1, 12)
        recipe = NodeRecipe(3, 11, topology, core, uncore)
        node = ComputeNode(3, seed=11, topology=topology)
        node.set_frequencies(core, uncore)
        run = dict(threads=8, instrumented=True, instrumentation=None)
        assert schedule_cache_key(recipe, **run) == schedule_cache_key(node, **run)
        built = recipe.build()
        assert schedule_cache_key(built, **run) == schedule_cache_key(node, **run)
        assert built.pending_transitions == (
            core != config.DEFAULT_CORE_FREQ_GHZ,
            uncore != config.DEFAULT_UNCORE_FREQ_GHZ,
        )
