"""Bit-identity of the controlled-run replay vs the recursive engine.

The controlled replay (:mod:`repro.execution.controlled_replay`) must be
*exactly* equivalent to the generic recursive engine with the same
controller attached: every ``RunResult`` field, every ``RegionInstance``
row (values and order), the controller's
:class:`~repro.readex.rrl.RRLStatistics`, the node's observable meter
and frequency state afterwards.  These tests sweep applications, tuning
models, nodes, seeds and instrumentation configurations — including the
schedule-cache hit path and controller reuse — and compare to the bit,
no tolerances anywhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TuningError
from repro.execution.fleet_replay import FleetMember, fleet_run
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry
from tests.oracles.engine import (
    assert_identical,
    make_node,
    meter_state,
    recursive_run,
    run_both,
)
from tests.oracles.static import StaticController, static_rrl

#: A spread of benchmarks: OpenMP / MPI / hybrid, small and large trees.
APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke", "BT-MZ")

#: Deterministic per-app tuning models: alternate two scenarios over the
#: phase's children plus a phase scenario — the shape the DTA produces.
TMM_VARIANTS = ("paired", "uniform", "threads")


def make_tmm(app, variant: str = "paired") -> TuningModel:
    regions = [r.name for r in app.phase.children][:4]
    if variant == "uniform":
        best = {name: OperatingPoint(2.2, 1.8, 24) for name in regions}
        best["phase"] = OperatingPoint(2.2, 1.8, 24)
    elif variant == "threads":
        best = {"phase": OperatingPoint(2.5, 2.4, 20)}
        for i, name in enumerate(regions):
            best[name] = OperatingPoint(2.3, 2.0, 16 if i % 2 else 20)
    else:
        best = {"phase": OperatingPoint(2.5, 2.1, 24)}
        for i, name in enumerate(regions):
            best[name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app.name, "phase", best)


class TestControlledReplayEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_rrl_run_bit_identical(self, app_name):
        app = registry.build(app_name)
        model = make_tmm(app)
        assert_identical(
            *run_both(
                app, lambda: RRL(model), instrumented=True, run_key=("dyn", 0)
            )
        )

    @pytest.mark.parametrize("app_name", APPS)
    def test_uninstrumented_rrl_run_bit_identical(self, app_name):
        """The Table 6 "config setting" variant: switching, no probes."""
        app = registry.build(app_name)
        model = make_tmm(app)
        assert_identical(
            *run_both(app, lambda: RRL(model), run_key=("config-only", 0))
        )

    @pytest.mark.parametrize("variant", TMM_VARIANTS)
    def test_tuning_model_variants_bit_identical(self, variant):
        app = registry.build("Lulesh")
        model = make_tmm(app, variant)
        assert_identical(
            *run_both(
                app, lambda: RRL(model), instrumented=True, run_key=("v", variant)
            )
        )

    def test_filtered_instrumentation_bit_identical(self):
        app = registry.build("Lulesh")
        model = make_tmm(app)
        filtered = {
            r.name
            for r in app.phase.children
            if Instrumentation(app).is_instrumented(r)
            and r.kind.value == "function"
        }
        n1, n2 = make_node(), make_node()
        fast = ExecutionSimulator(n1).run(
            app,
            controller=RRL(model),
            instrumentation=Instrumentation(app, filtered=set(filtered)),
            run_key=("filt", 0),
        )
        generic = recursive_run(
            n2,
            app,
            controller=RRL(model),
            instrumentation=Instrumentation(app, filtered=set(filtered)),
            run_key=("filt", 0),
        )
        assert_identical(fast, generic, n1, n2)

    @pytest.mark.parametrize("node_id", (0, 3, 7))
    def test_nodes_bit_identical(self, node_id):
        app = registry.build("FT")
        model = make_tmm(app)
        assert_identical(
            *run_both(
                app,
                lambda: RRL(model),
                node_id=node_id,
                node_seed=11,
                instrumented=True,
                run_key=("n", node_id),
            )
        )

    def test_entry_state_off_default_bit_identical(self):
        """Runs starting away from the platform default still compile
        the correct first-iteration switch pattern."""
        app = registry.build("Mcb")
        model = make_tmm(app)
        assert_identical(
            *run_both(
                app,
                lambda: RRL(model),
                cf=1.6,
                ucf=1.5,
                instrumented=True,
                run_key=("entry", 0),
            )
        )

    @pytest.mark.parametrize("app_name", ("EP", "Lulesh"))
    def test_static_controller_bit_identical(self, app_name):
        app = registry.build(app_name)
        point = OperatingPoint(2.4, 1.3, 24)
        assert_identical(
            *run_both(
                app,
                lambda: static_rrl(app, point),
                reference_factory=lambda: StaticController(point),
                run_key=("st", 0),
            )
        )

    def test_reused_controller_accumulates_identically(self):
        """One RRL across consecutive runs: stats accumulate and the
        second run starts from the first run's hardware state."""
        app = registry.build("Lulesh")
        model = make_tmm(app)
        n1, n2 = make_node(), make_node()
        c1, c2 = RRL(model), RRL(model)
        s1 = ExecutionSimulator(n1)
        for k in range(3):
            fast = s1.run(app, controller=c1, instrumented=True, run_key=("seq", k))
            generic = recursive_run(
                n2, app, controller=c2, instrumented=True, run_key=("seq", k)
            )
            assert fast == generic
        assert c1.stats == c2.stats
        assert meter_state(n1) == meter_state(n2)

    def test_nodes_share_one_schedule_walk(self, monkeypatch):
        """The walk is node-invariant: runs of one tuning model on four
        nodes walk the controller trace once, and each node still prices
        its own physics (every run equals the recursive engine)."""
        from repro.execution import controlled_replay

        walks = []
        walk = controlled_replay.compile_schedule_by_walk

        def counting_walk(*args, **kwargs):
            walks.append(args[2].node_id)
            return walk(*args, **kwargs)

        monkeypatch.setattr(
            controlled_replay, "compile_schedule_by_walk", counting_walk
        )
        app = registry.build("Lulesh")
        model = make_tmm(app)
        for node_id in range(4):
            for rep in range(2):
                assert_identical(
                    *run_both(
                        app,
                        lambda: RRL(model),
                        node_id=node_id,
                        instrumented=True,
                        run_key=("nodes", node_id, rep),
                    )
                )
        assert walks == [0]

    def test_schedule_cache_hits_stay_bit_identical(self):
        """Repetitions of one configuration (the Table 6 averaging loop)
        reuse the compiled schedule; results must not drift."""
        app = registry.build("FT")
        model = make_tmm(app)
        for rep in range(4):
            assert_identical(
                *run_both(
                    app,
                    lambda: RRL(model),
                    instrumented=True,
                    run_key=("rep", rep),
                )
            )

    @given(
        app_name=st.sampled_from(APPS),
        seed=st.integers(min_value=0, max_value=2**16),
        node_id=st.integers(min_value=0, max_value=7),
        variant=st.sampled_from(TMM_VARIANTS),
        instrumented=st.booleans(),
        label=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_sweep_bit_identical(
        self, app_name, seed, node_id, variant, instrumented, label
    ):
        """Property sweep: apps x tuning models x nodes x seeds."""
        app = registry.build(app_name)
        model = make_tmm(app, variant)
        assert_identical(
            *run_both(
                app,
                lambda: RRL(model),
                seed=seed,
                node_id=node_id,
                instrumented=instrumented,
                run_key=("sweep", label),
            )
        )


class _Foreign:
    """Hooks only: no ``compile_schedule``."""

    def on_region_enter(self, region, iteration, node):
        return 0

    def on_region_exit(self, region, iteration, node):
        pass


class _Declining(_Foreign):
    """Compiles nothing, leaving itself and the node untouched."""

    def compile_schedule(self, app, node, *, threads, instrumented,
                         instrumentation):
        return None


def node_state(node):
    return meter_state(node), node.rapl_state()


class TestRefusals:
    """Every controller compiles; anything else is refused before the
    node changes."""

    @pytest.mark.parametrize("controller", (_Foreign, _Declining))
    def test_run_refuses_non_compiling_controller(self, controller):
        node = make_node(cf=2.1, ucf=1.9)
        before = node_state(node)
        with pytest.raises(TuningError, match="compile"):
            ExecutionSimulator(node).run(
                registry.build("EP"), controller=controller()
            )
        assert node_state(node) == before

    @pytest.mark.parametrize("controller", (_Foreign, _Declining))
    def test_fleet_refuses_non_compiling_controller(self, controller):
        node = make_node(cf=2.1, ucf=1.9)
        before = node_state(node)
        app = registry.build("EP")
        members = [
            FleetMember(app=app, run_key=("fresh",)),
            FleetMember(app=app, run_key=("live",), node=node,
                        controller=controller()),
        ]
        with pytest.raises(TuningError, match="compile"):
            fleet_run(members)
        assert node_state(node) == before

    def test_run_refuses_controller_with_counters(self):
        app = registry.build("EP")
        node = make_node()
        before = node_state(node)
        with pytest.raises(TuningError, match="counters"):
            ExecutionSimulator(node).run(
                app, controller=RRL(make_tmm(app)), collect_counters=True
            )
        assert node_state(node) == before
