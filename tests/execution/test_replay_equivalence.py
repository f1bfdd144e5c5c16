"""Bit-identity of the vectorized replay fast path vs the recursive engine.

The replay engine (:mod:`repro.execution.replay`) must be *exactly*
equivalent to the recursive reference engine for every run: every
``RunResult`` field, every ``RegionInstance`` row (values and order), the
node's meter state afterwards, and the phase counter totals of the
campaign ``counters`` mode.  These tests sweep applications, operating
points, thread counts, nodes and instrumentation configurations and
compare to the bit — no tolerances anywhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.execution.simulator import ExecutionSimulator, InstanceLog, RunResult
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry
from tests.oracles.engine import (
    PhaseCounterCollector,
    assert_identical,
    make_node,
    meter_state,
    recursive_run,
    run_both,
)

#: A spread of benchmarks: OpenMP / MPI / hybrid, small and large trees.
APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke", "BT-MZ")

CANONICAL_COUNTERS = tuple(preset(c).name for c in TABLE1_COUNTERS)


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
        generic = recursive_run(
            n2, app, instrumentation=instr2, run_key=("equiv", 5)
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
        s1 = ExecutionSimulator(n1)
        for key in (("seq", 0), ("seq", 1)):
            fast = s1.run(app, run_key=key)
            generic = recursive_run(n2, app, run_key=key)
            assert fast == generic
        assert meter_state(n1) == meter_state(n2)


class TestPhaseCounterEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_totals_bit_identical_to_listener_path(self, app_name):
        app = registry.build(app_name)
        n1, n2 = make_node(seed=7), make_node(seed=7)
        collector = PhaseCounterCollector(CANONICAL_COUNTERS)
        reference = recursive_run(
            n1,
            app,
            seed=3,
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
