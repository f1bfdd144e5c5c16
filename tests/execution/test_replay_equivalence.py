"""Bit-identity of the vectorized replay fast path vs the recursive engine.

The replay engine (:mod:`repro.execution.replay`) must be *exactly*
equivalent to the generic recursive engine for every eligible run: every
``RunResult`` field, every ``RegionInstance`` row (values and order), the
node's meter state afterwards, and the phase counter totals of the
campaign ``counters`` mode.  These tests sweep applications, operating
points, thread counts, nodes and instrumentation configurations and
compare to the bit — no tolerances anywhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.campaign.engine import _PhaseCounterCollector
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.execution.simulator import ExecutionSimulator, InstanceLog, RunResult
from repro.hardware.node import ComputeNode
from repro.hardware.rapl import RaplDomain
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry

#: A spread of benchmarks: OpenMP / MPI / hybrid, small and large trees.
APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke", "BT-MZ")

CANONICAL_COUNTERS = tuple(preset(c).name for c in TABLE1_COUNTERS)


def make_node(node_id=0, seed=config.DEFAULT_SEED, cf=None, ucf=None):
    node = ComputeNode(node_id, seed=seed)
    if cf is not None:
        node.set_frequencies(cf, ucf)
    return node


def meter_state(node):
    """Observable meter state after a run (reader-visible energies)."""
    return (
        node.now_s,
        node.hdeem.now_s,
        tuple(
            node.rapl.read_joules(s, domain)
            for s in range(node.topology.num_sockets)
            for domain in (RaplDomain.PACKAGE, RaplDomain.DRAM)
        ),
    )


def run_both(app, *, node_id=0, node_seed=config.DEFAULT_SEED, seed=config.DEFAULT_SEED,
             cf=None, ucf=None, **kwargs):
    """One run through each engine on identically-prepared nodes."""
    n1 = make_node(node_id, node_seed, cf, ucf)
    n2 = make_node(node_id, node_seed, cf, ucf)
    fast = ExecutionSimulator(n1, seed=seed).run(app, **kwargs)
    generic = ExecutionSimulator(n2, seed=seed).run(app, fast_path=False, **kwargs)
    return fast, generic, n1, n2


def assert_identical(fast, generic, n1, n2):
    assert fast.engine == "fleet"
    assert generic.engine == "generic"
    # Scalar fields, exactly.
    assert fast.time_s == generic.time_s
    assert fast.node_energy_j == generic.node_energy_j
    assert fast.cpu_energy_j == generic.cpu_energy_j
    assert fast.switching_time_s == generic.switching_time_s
    assert fast.instrumentation_time_s == generic.instrumentation_time_s
    assert fast.operating_point == generic.operating_point
    # Instance rows: same count, order and every field (dataclass
    # equality covers timings and operating points).
    assert len(fast.instances) == len(generic.instances)
    assert fast.instances == generic.instances
    # Whole-result equality (engine field excluded by design).
    assert fast == generic
    # The node is left in an identical observable state.
    assert meter_state(n1) == meter_state(n2)


class TestReplayEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_default_run_bit_identical(self, app_name):
        app = registry.build(app_name)
        assert_identical(*run_both(app, run_key=("equiv", 0)))

    @pytest.mark.parametrize("app_name", APPS)
    def test_instrumented_run_bit_identical(self, app_name):
        app = registry.build(app_name)
        assert_identical(
            *run_both(app, instrumented=True, run_key=("equiv", 1))
        )

    @pytest.mark.parametrize(
        "cf,ucf",
        [
            (config.CORE_FREQ_MIN_GHZ, config.UNCORE_FREQ_MIN_GHZ),
            (config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ),
            (config.CORE_FREQ_MAX_GHZ, config.UNCORE_FREQ_MAX_GHZ),
        ],
    )
    def test_operating_points_bit_identical(self, cf, ucf):
        app = registry.build("Lulesh")
        assert_identical(*run_both(app, cf=cf, ucf=ucf, run_key=("equiv", 2)))

    @pytest.mark.parametrize("threads", (12, 16, 24))
    def test_thread_counts_bit_identical(self, threads):
        app = registry.build("Mcb")
        assert_identical(
            *run_both(app, threads=threads, run_key=("equiv", 3))
        )

    @pytest.mark.parametrize("node_id", (0, 3, 7))
    def test_nodes_bit_identical(self, node_id):
        app = registry.build("FT")
        assert_identical(
            *run_both(app, node_id=node_id, node_seed=11, run_key=("equiv", 4))
        )

    def test_filtered_instrumentation_bit_identical(self):
        app = registry.build("Lulesh")
        n1, n2 = make_node(), make_node()
        instr1, instr2 = Instrumentation(app), Instrumentation(app)
        fast = ExecutionSimulator(n1).run(
            app, instrumentation=instr1, run_key=("equiv", 5)
        )
        generic = ExecutionSimulator(n2).run(
            app, instrumentation=instr2, run_key=("equiv", 5), fast_path=False
        )
        assert_identical(fast, generic, n1, n2)

    @given(
        app_name=st.sampled_from(APPS),
        cf=st.sampled_from(config.CORE_FREQUENCIES_GHZ),
        ucf=st.sampled_from(config.UNCORE_FREQUENCIES_GHZ),
        seed=st.integers(min_value=0, max_value=2**16),
        label=st.integers(min_value=0, max_value=5),
        instrumented=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sweep_bit_identical(
        self, app_name, cf, ucf, seed, label, instrumented
    ):
        """Property sweep across apps x operating points x seeds."""
        app = registry.build(app_name)
        assert_identical(
            *run_both(
                app,
                seed=seed,
                cf=cf,
                ucf=ucf,
                instrumented=instrumented,
                run_key=("sweep", label),
            )
        )

    def test_consecutive_runs_on_one_node(self):
        """Replay leaves the node in the exact state recursion would,
        so run sequences interleave engines freely."""
        app = registry.build("FT")
        n1, n2 = make_node(), make_node()
        s1, s2 = ExecutionSimulator(n1), ExecutionSimulator(n2)
        for key in (("seq", 0), ("seq", 1)):
            fast = s1.run(app, run_key=key)
            generic = s2.run(app, run_key=key, fast_path=False)
            assert fast == generic
        assert meter_state(n1) == meter_state(n2)


class TestPhaseCounterEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_totals_bit_identical_to_listener_path(self, app_name):
        app = registry.build(app_name)
        n1, n2 = make_node(seed=7), make_node(seed=7)
        collector = _PhaseCounterCollector(CANONICAL_COUNTERS)
        reference = ExecutionSimulator(n1, seed=3).run(
            app,
            listeners=(collector,),
            collect_counters=True,
            run_key=("counters", None, 0),
        )
        product = ExecutionSimulator(n2, seed=3).run_phase_counters(
            app, counters=CANONICAL_COUNTERS, run_key=("counters", None, 0)
        )
        assert product.totals == collector.totals
        assert product.phase_time_s == collector.phase_time
        # The underlying instrumented run is also identical.
        assert product.result == reference
        assert meter_state(n1) == meter_state(n2)

    def test_unknown_counter_totals_zero(self):
        app = registry.build("EP")
        product = ExecutionSimulator(make_node()).run_phase_counters(
            app, counters=("NOT_A_COUNTER",), run_key=()
        )
        assert product.totals == {"NOT_A_COUNTER": 0.0}


class _NullController:
    def on_region_enter(self, region, iteration, node):
        return 0

    def on_region_exit(self, region, iteration, node):
        pass


class _NullListener:
    def on_enter(self, region, iteration, time_s):
        pass

    def on_exit(self, region, iteration, time_s, metrics):
        pass


class TestDispatch:
    def test_uncontrolled_run_uses_replay(self):
        run = ExecutionSimulator(make_node()).run(registry.build("EP"))
        assert run.engine == "fleet"

    def test_controller_run_uses_generic(self):
        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"), controller=_NullController()
        )
        assert run.engine == "generic"

    def test_listener_run_uses_generic(self):
        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"), listeners=(_NullListener(),)
        )
        assert run.engine == "generic"

    def test_fast_path_false_forces_generic(self):
        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"), fast_path=False
        )
        assert run.engine == "generic"

    def test_instrumented_runs_stay_on_replay(self):
        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"), instrumented=True
        )
        assert run.engine == "fleet"


class TestInstanceLog:
    def _instance(self, name, iteration=0):
        run = ExecutionSimulator(make_node()).run(registry.build("EP"))
        return run.instances[0]

    def test_lazy_materialisation(self):
        produced = []

        def producer():
            produced.append(True)
            return []

        log = InstanceLog.deferred(producer)
        assert not produced
        assert len(log) == 0
        assert produced == [True]
        len(log)  # second access does not re-produce
        assert produced == [True]

    def test_region_index_matches_scan(self):
        run = ExecutionSimulator(make_node()).run(registry.build("Lulesh"))
        for name in {i.region_name for i in run.instances}:
            assert run.region_instances(name) == [
                i for i in run.instances if i.region_name == name
            ]

    def test_index_maintained_across_append(self):
        run = ExecutionSimulator(make_node()).run(registry.build("EP"))
        first = run.region_instances("phase")
        extra = first[0]
        run.instances.append(extra)
        assert run.region_instances("phase") == first + [extra]

    def test_equality_with_plain_list(self):
        log = InstanceLog()
        assert log == []
        run = ExecutionSimulator(make_node()).run(registry.build("EP"))
        assert run.instances == list(run.instances)

    def test_region_times_and_energies_consistent(self):
        run = ExecutionSimulator(make_node()).run(registry.build("FT"))
        total = sum(i.time_s for i in run.instances if i.region_name == "phase")
        assert run.region_time_s("phase") == total
        assert run.region_energy_j("phase") == sum(
            i.node_energy_j for i in run.instances if i.region_name == "phase"
        )

    def test_run_result_default_construction_still_appends(self):
        run = RunResult(
            app_name="x", node_id=0, operating_point=None
        )
        assert list(run.instances) == []
        assert run.region_instances("anything") == []
