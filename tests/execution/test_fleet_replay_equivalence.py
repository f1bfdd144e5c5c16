"""Bit-identity of the fleet kernel vs the recursive reference engine.

The fleet kernel (:mod:`repro.execution.fleet_replay`) batches the
application x node x controller x configuration axes into one padded
pricing pass.  It must be *exactly* equivalent to executing each member
individually on the recursive engine (``tests/oracles/engine.py``) on a
fresh node: every ``RunResult`` field, every ``RegionInstance`` row,
the controller's :class:`~repro.readex.rrl.RRLStatistics`, and the
meter/MSR end state the run would leave behind.  These tests sweep
apps, nodes, TMMs and seeds, then property-test random fleet
compositions — including the invariant that permuting or splitting a
fleet never changes any member's payload.  The grid cases measure
static CF x UCF grids (heatmaps, exhaustive search, trade-offs) the
same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api, config
from repro.errors import FrequencyError, WorkloadError
from repro.execution.fleet_replay import FleetMember, fleet_run, meter_end_state
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode
from repro.readex.rrl import RRL, StaticController
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry
from tests.oracles.engine import PhaseCounterCollector, recursive_run, run_reference

#: OpenMP / MPI / hybrid benchmarks with different tree sizes, so mixed
#: fleets exercise genuinely ragged charge-row lengths.
APPS = ("Lulesh", "Mcb", "FT", "EP")

_APP_CACHE: dict = {}


def build_app(name):
    if name not in _APP_CACHE:
        _APP_CACHE[name] = registry.build(name)
    return _APP_CACHE[name]


def make_tmm(app) -> TuningModel:
    regions = [r.name for r in app.phase.children][:4]
    best = {"phase": OperatingPoint(2.5, 2.1, 24)}
    for i, name in enumerate(regions):
        best[name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app.name, "phase", best)


#: Member shapes, mirroring every analysis-layer call site: grid cells
#: (programmed static points, plain or instrumented), savings variants
#: (default / static controller / instrumented RRL / config-only RRL).
KINDS = (
    "default",
    "static_point",
    "instrumented_point",
    "static_ctrl",
    "rrl",
    "rrl_instrumented",
)


def build_member(spec) -> FleetMember:
    """A fresh FleetMember (fresh controller/instrumentation) per spec."""
    app = build_app(spec["app"])
    kind = spec["kind"]
    member = FleetMember(
        app=app,
        run_key=(kind, spec["app"], spec.get("tag", 0)),
        node_id=spec.get("node_id", 0),
        seed=spec.get("seed", config.DEFAULT_SEED),
        node_seed=spec.get("node_seed"),
    )
    if kind == "default":
        member.threads = config.DEFAULT_OPENMP_THREADS
    elif kind in ("static_point", "instrumented_point"):
        member.point = OperatingPoint(
            spec.get("cf", 2.0), spec.get("ucf", 2.2), spec.get("threads", 24)
        )
        member.instrumented = kind == "instrumented_point"
    elif kind == "static_ctrl":
        member.controller = StaticController(OperatingPoint(2.2, 1.8, 24))
        member.threads = 24
    elif kind == "rrl":
        member.controller = RRL(make_tmm(app))
    else:
        member.controller = RRL(make_tmm(app))
        member.instrumented = True
        member.instrumentation = Instrumentation.compiler_default(app)
    return member


def assert_member_identical(got, end, member_ref: FleetMember):
    ref, node = run_reference(member_ref)
    assert got == ref
    assert list(got.instances) == list(ref.instances)
    assert end == meter_end_state(node)


class TestFleetEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_every_member_kind_bit_identical(self, app_name):
        specs = [{"app": app_name, "kind": kind} for kind in KINDS]
        fleet = fleet_run([build_member(s) for s in specs])
        assert len(fleet) == len(specs)
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    def test_mixed_apps_nodes_and_seeds(self):
        specs = [
            {"app": "Lulesh", "kind": "default"},
            {"app": "EP", "kind": "static_point", "cf": 1.8, "ucf": 1.6,
             "threads": 12, "node_id": 3, "seed": 11, "node_seed": 77},
            {"app": "FT", "kind": "rrl", "seed": 5},
            {"app": "Mcb", "kind": "static_point", "cf": 2.3, "ucf": 2.8,
             "node_id": 1},
            {"app": "Lulesh", "kind": "rrl_instrumented"},
            {"app": "FT", "kind": "static_ctrl", "node_seed": 9},
        ]
        fleet = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    def test_interleaved_structure_block_bit_identical_to_recursive(self):
        """Members of one structure interleaved with others: the Lulesh
        static/default members flatten as one block whose rows sit
        apart in the fleet (and in the noise draw's member order), next
        to an instrumented Lulesh structure and a controlled member."""
        specs = [
            {"app": "Lulesh", "kind": "static_point"},
            {"app": "Lulesh", "kind": "rrl"},
            {"app": "EP", "kind": "static_point"},
            {"app": "Lulesh", "kind": "default"},
            {"app": "Lulesh", "kind": "instrumented_point"},
        ]
        fleet = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    def test_rrl_statistics_match_per_run_engine(self):
        app = build_app("Lulesh")
        fleet_ctrl, ref_ctrl = RRL(make_tmm(app)), RRL(make_tmm(app))
        member = FleetMember(app=app, run_key=("dynamic", 0), controller=fleet_ctrl)
        fleet = fleet_run([member])
        node = ComputeNode(0, seed=config.DEFAULT_SEED)
        ref = recursive_run(node, app, controller=ref_ctrl, run_key=("dynamic", 0))
        assert fleet.results[0] == ref
        assert fleet_ctrl.stats == ref_ctrl.stats

    def test_empty_fleet(self):
        fleet = fleet_run([])
        assert len(fleet) == 0
        assert fleet.results == ()

    def test_invalid_thread_count_raises(self):
        app = build_app("Lulesh")
        member = FleetMember(app=app, run_key=("bad",), threads=999)
        with pytest.raises(WorkloadError, match="invalid thread count"):
            fleet_run([member])

    def test_lazy_instances(self):
        member = build_member({"app": "EP", "kind": "static_point"})
        fleet = fleet_run([member])
        # Instances materialise lazily and stay stable across reads.
        first = list(fleet.results[0].instances)
        assert first == list(fleet.results[0].instances)
        assert len(first) > 0


#: Random fleet compositions: any app, any member kind, varied seeds
#: and node ids — mixed static/RRL members with ragged phase counts.
member_specs = st.lists(
    st.fixed_dictionaries(
        {
            "app": st.sampled_from(APPS),
            "kind": st.sampled_from(KINDS),
            "seed": st.integers(0, 3),
            "node_id": st.integers(0, 2),
            "tag": st.integers(0, 1),
        }
    ),
    min_size=1,
    max_size=5,
)


class TestFleetProperties:
    @settings(max_examples=8, deadline=None)
    @given(specs=member_specs)
    def test_random_compositions_bit_identical(self, specs):
        fleet = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    @settings(max_examples=8, deadline=None)
    @given(specs=member_specs, data=st.data())
    def test_order_independence(self, specs, data):
        """Permuting the fleet permutes — never perturbs — the payloads."""
        order = data.draw(st.permutations(range(len(specs))))
        baseline = fleet_run([build_member(s) for s in specs])
        permuted = fleet_run([build_member(specs[j]) for j in order])
        for pos, j in enumerate(order):
            assert permuted.results[pos] == baseline.results[j]
            assert list(permuted.results[pos].instances) == list(
                baseline.results[j].instances
            )
            assert permuted.end_states[pos] == baseline.end_states[j]

    @settings(max_examples=8, deadline=None)
    @given(specs=member_specs, data=st.data())
    def test_padding_independence_under_splits(self, specs, data):
        """Splitting a fleet (different padded widths per sub-fleet)
        never changes any member's payload."""
        cut = data.draw(st.integers(0, len(specs)))
        whole = fleet_run([build_member(s) for s in specs])
        left = fleet_run([build_member(s) for s in specs[:cut]])
        right = fleet_run([build_member(s) for s in specs[cut:]])
        rejoined = list(left.results) + list(right.results)
        rejoined_ends = list(left.end_states) + list(right.end_states)
        for i in range(len(specs)):
            assert rejoined[i] == whole.results[i]
            assert list(rejoined[i].instances) == list(whole.results[i].instances)
            assert rejoined_ends[i] == whole.end_states[i]

    def test_solo_equals_batched(self):
        """Each member alone prices identically to the batched fleet —
        the padded matrix is invisible."""
        specs = [
            {"app": "Lulesh", "kind": "rrl"},
            {"app": "EP", "kind": "static_point"},
            {"app": "FT", "kind": "default"},
        ]
        batched = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            solo = fleet_run([build_member(spec)])
            assert solo.results[0] == batched.results[i]
            assert list(solo.results[0].instances) == list(
                batched.results[i].instances
            )
            assert solo.end_states[0] == batched.end_states[i]


#: Counters the entry-state sequence synthesises.
ENTRY_COUNTERS = ("PAPI_TOT_INS", "PAPI_L3_TCM", "NOT_A_COUNTER")


def entry_state_sequence(recursive: bool):
    """Five runs back to back on one live node, HDEEM measuring across
    all of them: every run starts from the state the previous one left
    (frequencies, clock, HDEEM timeline, RAPL residuals)."""
    app = build_app("Lulesh")
    node = ComputeNode(3, seed=11)
    sim = ExecutionSimulator(node, seed=5)

    def run(app, **kwargs):
        if recursive:
            return recursive_run(node, app, seed=5, **kwargs)
        return sim.run(app, **kwargs)

    filtered = Instrumentation(
        app=app, filtered={"CalcQForElems", "LagrangeNodal_misc"}
    )
    node.hdeem.start()
    steps = []

    def record(result, extra=None):
        steps.append((result, list(result.instances), meter_end_state(node), extra))

    record(run(app, run_key=("entry", 0)))
    record(
        run(
            app,
            controller=RRL(make_tmm(app)),
            instrumented=True,
            run_key=("entry", 1),
        )
    )
    record(
        run(
            app,
            controller=StaticController(OperatingPoint(2.2, 1.8, 24)),
            run_key=("entry", 2),
        )
    )
    collector = PhaseCounterCollector(ENTRY_COUNTERS)
    result = run(
        app, listeners=(collector,), collect_counters=True, run_key=("entry", 3)
    )
    record(result, (collector.totals, collector.phase_time))
    record(run(app, instrumentation=filtered, run_key=("entry", 4)))
    return steps, node.hdeem.stop()


class TestLiveNodeMembers:
    """Live-node members carry their node's entry state through the
    kernel: solo runs on one node chain exactly like recursive runs."""

    def test_run_sequence_on_one_node_matches_recursion(self):
        fast_steps, fast_hdeem = entry_state_sequence(recursive=False)
        ref_steps, ref_hdeem = entry_state_sequence(recursive=True)
        for fast, ref in zip(fast_steps, ref_steps):
            assert fast == ref  # result, instance rows, meter state, counters
        assert fast_hdeem == ref_hdeem

    def test_live_member_among_fresh_members(self):
        """A live member priced alongside fresh ones gets exactly its
        solo result and node state; the fresh members are unperturbed."""
        app = build_app("Mcb")

        def warmed_node():
            node = ComputeNode(2, seed=9)
            node.set_frequencies(2.1, 1.9)
            ExecutionSimulator(node, seed=4).run(app, run_key=("warm",))
            return node

        solo_node, live_node = warmed_node(), warmed_node()
        solo = recursive_run(solo_node, app, seed=4, run_key=("live",))
        specs = [
            {"app": "Mcb", "kind": "static_point"},
            {"app": "EP", "kind": "rrl"},
            {"app": "Mcb", "kind": "default", "node_id": 2},
        ]
        members = [build_member(s) for s in specs]
        members.insert(
            1,
            FleetMember(
                app=app, run_key=("live",), node_id=2, seed=4, node=live_node,
                threads=app.default_threads,
            ),
        )
        fleet = fleet_run(members)
        assert fleet.results[1] == solo
        assert list(fleet.results[1].instances) == list(solo.instances)
        assert fleet.end_states[1] is None
        assert meter_end_state(live_node) == meter_end_state(solo_node)
        for i, spec in zip((0, 2, 3), specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    def test_live_node_hosts_one_member_per_fleet(self):
        node = ComputeNode(0)
        app = build_app("EP")
        members = [
            FleetMember(app=app, run_key=(k,), node=node) for k in range(2)
        ]
        with pytest.raises(WorkloadError, match="one member per fleet"):
            fleet_run(members)


#: A thinned grid (3 x 4 cells) that keeps the suite fast.
GRID = [
    (cf, ucf)
    for cf in config.CORE_FREQUENCIES_GHZ[::6]
    for ucf in config.UNCORE_FREQUENCIES_GHZ[::5]
]

#: Grid apps: OpenMP / MPI / hybrid, small and large trees.
GRID_APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke")


def grid_fleet(app, points, keys, *, node_id=0, seed=config.DEFAULT_SEED,
               node_seed=None, instrumented=False):
    """One fresh-node member per grid cell, priced in one fleet pass."""
    return fleet_run(
        FleetMember(
            app=app,
            run_key=key,
            node_id=node_id,
            seed=seed,
            node_seed=node_seed,
            point=point,
            instrumented=instrumented,
        )
        for point, key in zip(points, keys)
    )


def recursive_cell(app, point, run_key, *, node_id=0,
                   node_seed=config.DEFAULT_SEED, seed=config.DEFAULT_SEED,
                   **kwargs):
    """One grid cell on the recursive engine: fresh node, program, run."""
    node = ComputeNode(node_id, seed=node_seed)
    node.set_frequencies(point.core_freq_ghz, point.uncore_freq_ghz)
    run = recursive_run(
        node, app, seed=seed, threads=point.threads, run_key=run_key, **kwargs
    )
    return run, node


class TestGridEquivalence:
    """Static grids through the fleet kernel vs the recursive engine."""

    @pytest.mark.parametrize("app_name", GRID_APPS)
    def test_heatmap_grid_cells_bit_identical(self, app_name):
        app = build_app(app_name)
        points = [OperatingPoint(cf, ucf, 24) for cf, ucf in GRID]
        keys = [("heatmap", cf, ucf) for cf, ucf in GRID]
        fleet = grid_fleet(app, points, keys)
        assert len(fleet) == len(points)
        for point, key, result, end in zip(
            points, keys, fleet.results, fleet.end_states
        ):
            ref, node = recursive_cell(app, point, key)
            # Full RunResult equality covers node/cpu energy, times and
            # every lazily materialised RegionInstance row.
            assert result == ref
            assert meter_end_state(node) == end

    def test_region_timings_and_instances_match(self):
        app = build_app("Lulesh")
        point = OperatingPoint(1.8, 2.2, 20)
        key = ("static", 1.8, 2.2, 20)
        fleet = grid_fleet(app, [point], [key])
        ref, _node = recursive_cell(app, point, key)
        got, want = list(fleet.results[0].instances), list(ref.instances)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert g == w  # includes the RegionTiming payload
            assert g.timing == w.timing

    def test_exhaustive_search_run_keys_with_threads(self):
        """The static-search path: per-thread grids, historical keys."""
        app = build_app("Lulesh")
        points = [
            OperatingPoint(cf, ucf, t) for t in (12, 24) for cf, ucf in GRID[:4]
        ]
        keys = [
            ("static", p.core_freq_ghz, p.uncore_freq_ghz, p.threads)
            for p in points
        ]
        fleet = grid_fleet(app, points, keys)
        for point, key, result in zip(points, keys, fleet.results):
            ref, _ = recursive_cell(app, point, key)
            assert result == ref

    def test_tradeoff_mixed_thread_grid(self):
        """Per-cell thread counts in one fleet (the trade-off idiom)."""
        app = build_app("Lulesh")
        points = [
            OperatingPoint(),
            OperatingPoint(1.2, 1.3, 12),
            OperatingPoint(2.4, 1.7, 16),
        ]
        keys = [("tradeoff", str(p)) for p in points]
        fleet = grid_fleet(app, points, keys)
        for point, key, result in zip(points, keys, fleet.results):
            ref, _ = recursive_cell(app, point, key)
            assert result == ref

    def test_meter_end_state_matches_recursive_engine(self):
        app = build_app("FT")
        point = OperatingPoint(2.0, 1.5, 24)
        fleet = grid_fleet(app, [point], [("x",)])
        ref, node = recursive_cell(app, point, ("x",))
        assert fleet.results[0] == ref
        assert meter_end_state(node) == fleet.end_states[0]

    def test_instrumented_grid(self):
        app = build_app("Mcb")
        point = OperatingPoint(2.2, 2.5, 20)
        fleet = grid_fleet(app, [point], [("probe",)], instrumented=True)
        ref, node = recursive_cell(app, point, ("probe",), instrumented=True)
        assert fleet.results[0] == ref
        assert fleet.results[0].instrumentation_time_s == ref.instrumentation_time_s
        assert meter_end_state(node) == fleet.end_states[0]

    @settings(max_examples=8, deadline=None)
    @given(
        app_name=st.sampled_from(GRID_APPS),
        seed=st.integers(0, 2**20),
        node_seed=st.integers(0, 2**20),
        node_id=st.integers(0, 3),
        threads=st.sampled_from(config.OPENMP_THREAD_CANDIDATES),
    )
    def test_hypothesis_grid(self, app_name, seed, node_seed, node_id, threads):
        app = build_app(app_name)
        cells = GRID[:3]
        points = [OperatingPoint(cf, ucf, threads) for cf, ucf in cells]
        keys = [("heatmap", cf, ucf) for cf, ucf in cells]
        fleet = grid_fleet(
            app, points, keys, node_id=node_id, seed=seed, node_seed=node_seed
        )
        for point, key, result, end in zip(
            points, keys, fleet.results, fleet.end_states
        ):
            ref, node = recursive_cell(
                app, point, key, node_id=node_id, node_seed=node_seed, seed=seed
            )
            assert result == ref
            assert meter_end_state(node) == end


class TestGridValidation:
    def test_empty_grid_list(self):
        assert api.sweep_grids([]) == []

    def test_out_of_range_frequency_rejected(self):
        app = build_app("EP")
        with pytest.raises(FrequencyError, match="core frequency"):
            grid_fleet(app, [OperatingPoint(9.9, 3.0, 24)], [("k",)])

    def test_invalid_thread_count_rejected(self):
        app = build_app("Lulesh")
        with pytest.raises(WorkloadError, match="thread count"):
            grid_fleet(app, [OperatingPoint(2.5, 3.0, 99)], [("k",)])

    def test_mpi_only_codes_pin_their_threads(self):
        app = build_app("Kripke")
        assert not app.model.supports_thread_tuning
        point = OperatingPoint(2.0, 2.0, 12)
        fleet = grid_fleet(app, [point], [("k",)])
        assert fleet.results[0].operating_point.threads == app.default_threads
        ref, _ = recursive_cell(app, point, ("k",))
        assert fleet.results[0] == ref


class TestConsumerEquivalence:
    def test_heatmap_matches_loop_oracle(self):
        from repro.analysis.heatmap import energy_heatmap
        from tests.oracles.grids import loop_heatmap

        cluster = Cluster(2)
        fleet = energy_heatmap("FT", threads=24, cluster=cluster)
        loop = loop_heatmap("FT", threads=24, cluster=cluster)
        assert np.array_equal(fleet.normalized, loop.normalized)
        assert fleet.best == loop.best
        assert fleet.plateau() == loop.plateau()

    def test_tradeoff_matches_loop_oracle(self):
        from repro.analysis.tradeoffs import energy_time_tradeoff
        from tests.oracles.grids import loop_tradeoff

        cluster = Cluster(2)
        configurations = [
            OperatingPoint(1.6, 2.5, 20), OperatingPoint(2.4, 1.7, 24)
        ]
        fleet = energy_time_tradeoff("Mcb", configurations, cluster=cluster)
        loop = loop_tradeoff("Mcb", configurations, cluster=cluster)
        assert fleet == loop
