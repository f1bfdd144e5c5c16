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

from repro import config
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.node import ComputeNode
from repro.hardware.rapl import RaplDomain
from repro.readex.rrl import RRL, StaticController
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry

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


def make_node(node_id=0, seed=config.DEFAULT_SEED, cf=None, ucf=None):
    node = ComputeNode(node_id, seed=seed)
    if cf is not None:
        node.set_frequencies(cf, ucf)
    return node


def meter_state(node):
    """Observable meter + frequency state after a run."""
    return (
        node.now_s,
        node.hdeem.now_s,
        node.core_freq_ghz,
        node.uncore_freq_ghz,
        node.dvfs.log.count,
        node.ufs.log.count,
        tuple(
            node.rapl.read_joules(s, domain)
            for s in range(node.topology.num_sockets)
            for domain in (RaplDomain.PACKAGE, RaplDomain.DRAM)
        ),
    )


def run_both(app, controller_factory, *, node_id=0, node_seed=config.DEFAULT_SEED,
             seed=config.DEFAULT_SEED, cf=None, ucf=None, **kwargs):
    """One controlled run through each engine on identical nodes."""
    n1 = make_node(node_id, node_seed, cf, ucf)
    n2 = make_node(node_id, node_seed, cf, ucf)
    c1, c2 = controller_factory(), controller_factory()
    fast = ExecutionSimulator(n1, seed=seed).run(app, controller=c1, **kwargs)
    generic = ExecutionSimulator(n2, seed=seed).run(
        app, controller=c2, fast_path=False, **kwargs
    )
    return fast, generic, n1, n2, c1, c2


def assert_identical(fast, generic, n1, n2, c1=None, c2=None):
    assert fast.engine == "fleet"
    assert generic.engine == "generic"
    assert fast.time_s == generic.time_s
    assert fast.node_energy_j == generic.node_energy_j
    assert fast.cpu_energy_j == generic.cpu_energy_j
    assert fast.switching_time_s == generic.switching_time_s
    assert fast.instrumentation_time_s == generic.instrumentation_time_s
    assert fast.operating_point == generic.operating_point
    assert len(fast.instances) == len(generic.instances)
    assert fast.instances == generic.instances
    assert fast == generic
    assert meter_state(n1) == meter_state(n2)
    if isinstance(c1, RRL):
        assert c1.stats == c2.stats


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
        generic = ExecutionSimulator(n2).run(
            app,
            controller=RRL(model),
            instrumentation=Instrumentation(app, filtered=set(filtered)),
            run_key=("filt", 0),
            fast_path=False,
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
            *run_both(app, lambda: StaticController(point), run_key=("st", 0))
        )

    def test_reused_controller_accumulates_identically(self):
        """One RRL across consecutive runs: stats accumulate and the
        second run starts from the first run's hardware state."""
        app = registry.build("Lulesh")
        model = make_tmm(app)
        n1, n2 = make_node(), make_node()
        c1, c2 = RRL(model), RRL(model)
        s1, s2 = ExecutionSimulator(n1), ExecutionSimulator(n2)
        for k in range(3):
            fast = s1.run(app, controller=c1, instrumented=True, run_key=("seq", k))
            generic = s2.run(
                app, controller=c2, instrumented=True, run_key=("seq", k),
                fast_path=False,
            )
            assert fast == generic
        assert c1.stats == c2.stats
        assert meter_state(n1) == meter_state(n2)

    def test_variability_override_not_served_stale_schedules(self):
        """A node with an explicit variability override must not reuse a
        schedule compiled under another node's physics (the cache keys
        on the power model's variability, not just id/seed)."""
        from repro.hardware.power import NodeVariability

        app = registry.build("FT")
        model = make_tmm(app)
        # Populate the cache with the default-variability physics.
        default_node = make_node(0, seed=1)
        ExecutionSimulator(default_node).run(
            app, controller=RRL(model), instrumented=True, run_key=("warm",)
        )
        override = NodeVariability.sample(99, seed=1234)
        n1 = ComputeNode(0, seed=1, variability=override)
        n2 = ComputeNode(0, seed=1, variability=override)
        fast = ExecutionSimulator(n1).run(
            app, controller=RRL(model), instrumented=True, run_key=("ovr",)
        )
        generic = ExecutionSimulator(n2).run(
            app, controller=RRL(model), instrumented=True, run_key=("ovr",),
            fast_path=False,
        )
        assert_identical(fast, generic, n1, n2)

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


class TestDispatch:
    def test_rrl_run_uses_replay(self):
        app = registry.build("EP")
        run = ExecutionSimulator(make_node()).run(
            app, controller=RRL(make_tmm(app)), instrumented=True
        )
        assert run.engine == "fleet"

    def test_static_run_uses_replay(self):
        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"),
            controller=StaticController(OperatingPoint(2.4, 1.3, 24)),
        )
        assert run.engine == "fleet"

    def test_foreign_controller_keeps_recursion(self):
        class Foreign:
            def on_region_enter(self, region, iteration, node):
                return 0

            def on_region_exit(self, region, iteration, node):
                pass

        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"), controller=Foreign()
        )
        assert run.engine == "generic"

    def test_declining_compiler_falls_back_to_recursion(self):
        class Declining:
            def on_region_enter(self, region, iteration, node):
                return 0

            def on_region_exit(self, region, iteration, node):
                pass

            def compile_schedule(self, app, node, *, threads, instrumented,
                                 instrumentation):
                return None

        run = ExecutionSimulator(make_node()).run(
            registry.build("EP"), controller=Declining()
        )
        assert run.engine == "generic"

    def test_listener_run_keeps_recursion_even_with_rrl(self):
        class Listener:
            def on_enter(self, region, iteration, time_s):
                pass

            def on_exit(self, region, iteration, time_s, metrics):
                pass

        app = registry.build("EP")
        run = ExecutionSimulator(make_node()).run(
            app, controller=RRL(make_tmm(app)), listeners=(Listener(),)
        )
        assert run.engine == "generic"
