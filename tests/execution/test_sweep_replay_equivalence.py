"""Bit-identity of the config-axis sweep engine vs the per-config loop.

The sweep engine (:mod:`repro.execution.sweep_replay`) must be
*exactly* equivalent to measuring one configuration at a time on fresh
nodes: every ``RunResult`` field, every ``RegionInstance`` row (values,
timings and order), and the meter/MSR end state the equivalent
fresh-node run would leave behind.  These tests sweep benchmarks,
thread counts, seeds and grid shapes and compare to the bit — no
tolerances anywhere — for the heatmap, exhaustive-search and trade-off
paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.errors import FrequencyError, WorkloadError
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.sweep_replay import meter_end_state, sweep_run
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode
from repro.workloads import registry

#: A spread of benchmarks: OpenMP / MPI / hybrid, small and large trees.
APPS = ("Lulesh", "Mcb", "FT", "EP", "Kripke")

#: A thinned grid (3 x 4 cells) that keeps the suite fast.
GRID = [
    (cf, ucf)
    for cf in config.CORE_FREQUENCIES_GHZ[::6]
    for ucf in config.UNCORE_FREQUENCIES_GHZ[::5]
]


def reference_run(app, point, run_key, *, node_id=0, node_seed=config.DEFAULT_SEED,
                  seed=config.DEFAULT_SEED, fast_path=None, **kwargs):
    """The per-config loop body: fresh node, program, run."""
    node = ComputeNode(node_id, seed=node_seed)
    node.set_frequencies(point.core_freq_ghz, point.uncore_freq_ghz)
    run = ExecutionSimulator(node, seed=seed).run(
        app, threads=point.threads, run_key=run_key, fast_path=fast_path, **kwargs
    )
    return run, node


class TestGridEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_heatmap_grid_cells_bit_identical(self, app_name):
        app = registry.build(app_name)
        points = [OperatingPoint(cf, ucf, 24) for cf, ucf in GRID]
        keys = [("heatmap", cf, ucf) for cf, ucf in GRID]
        sweep = sweep_run(app, points, run_keys=keys)
        assert len(sweep) == len(points)
        for point, key, result, end in zip(
            points, keys, sweep.results, sweep.end_states
        ):
            ref, node = reference_run(app, point, key)
            # Full RunResult equality covers node/cpu energy, times and
            # every lazily materialised RegionInstance row.
            assert result == ref
            assert result.engine == "sweep"
            assert meter_end_state(node) == end

    def test_region_timings_and_instances_match(self):
        app = registry.build("Lulesh")
        point = OperatingPoint(1.8, 2.2, 20)
        sweep = sweep_run(app, [point], run_keys=[("static", 1.8, 2.2, 20)])
        ref, _node = reference_run(app, point, ("static", 1.8, 2.2, 20))
        got, want = list(sweep.results[0].instances), list(ref.instances)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert g == w  # includes the RegionTiming payload
            assert g.timing == w.timing

    def test_exhaustive_search_run_keys_with_threads(self):
        """The static-search path: per-thread grids, historical keys."""
        app = registry.build("Lulesh")
        points = [
            OperatingPoint(cf, ucf, t)
            for t in (12, 24)
            for cf, ucf in GRID[:4]
        ]
        keys = [
            ("static", p.core_freq_ghz, p.uncore_freq_ghz, p.threads)
            for p in points
        ]
        sweep = sweep_run(app, points, run_keys=keys)
        for point, key, result in zip(points, keys, sweep.results):
            ref, _ = reference_run(app, point, key)
            assert result == ref

    def test_tradeoff_mixed_thread_sweep(self):
        """Per-cell thread counts in one sweep (the trade-off idiom)."""
        app = registry.build("Lulesh")
        points = [
            OperatingPoint(),
            OperatingPoint(1.2, 1.3, 12),
            OperatingPoint(2.4, 1.7, 16),
        ]
        keys = [("tradeoff", str(p)) for p in points]
        sweep = sweep_run(app, points, run_keys=keys)
        for point, key, result in zip(points, keys, sweep.results):
            ref, _ = reference_run(app, point, key)
            assert result == ref

    def test_matches_recursive_engine_too(self):
        app = registry.build("FT")
        point = OperatingPoint(2.0, 1.5, 24)
        sweep = sweep_run(app, [point], run_keys=[("x",)])
        ref, node = reference_run(app, point, ("x",), fast_path=False)
        assert sweep.results[0] == ref
        assert meter_end_state(node) == sweep.end_states[0]

    def test_instrumented_sweep(self):
        app = registry.build("Mcb")
        point = OperatingPoint(2.2, 2.5, 20)
        sweep = sweep_run(
            app, [point], run_keys=[("probe",)], instrumented=True
        )
        ref, node = reference_run(app, point, ("probe",), instrumented=True)
        assert sweep.results[0] == ref
        assert sweep.results[0].instrumentation_time_s == ref.instrumentation_time_s
        assert meter_end_state(node) == sweep.end_states[0]

    def test_simulator_dispatch_uses_node_recipe(self):
        cluster = Cluster(4, seed=17)
        app = registry.build("EP")
        sim = ExecutionSimulator(cluster.node(2), seed=3)
        point = OperatingPoint(1.5, 2.0, 24)
        sweep = sim.sweep_run(app, [point], run_keys=[("k",)])
        node = cluster.fresh_node(2)
        node.set_frequencies(1.5, 2.0)
        ref = ExecutionSimulator(node, seed=3).run(
            app, threads=24, run_key=("k",)
        )
        assert sweep.results[0] == ref
        assert sweep.results[0].node_id == 2

    @settings(max_examples=8, deadline=None)
    @given(
        app_name=st.sampled_from(APPS),
        seed=st.integers(0, 2**20),
        node_seed=st.integers(0, 2**20),
        node_id=st.integers(0, 3),
        threads=st.sampled_from(config.OPENMP_THREAD_CANDIDATES),
    )
    def test_hypothesis_sweep(self, app_name, seed, node_seed, node_id, threads):
        app = registry.build(app_name)
        cells = GRID[:3]
        points = [OperatingPoint(cf, ucf, threads) for cf, ucf in cells]
        keys = [("heatmap", cf, ucf) for cf, ucf in cells]
        sweep = sweep_run(
            app, points, run_keys=keys,
            node_id=node_id, seed=seed, node_seed=node_seed,
        )
        for point, key, result, end in zip(
            points, keys, sweep.results, sweep.end_states
        ):
            ref, node = reference_run(
                app, point, key, node_id=node_id, node_seed=node_seed, seed=seed
            )
            assert result == ref
            assert meter_end_state(node) == end


class TestSweepValidation:
    def test_empty_sweep(self):
        app = registry.build("EP")
        sweep = sweep_run(app, [], run_keys=[])
        assert len(sweep) == 0

    def test_mismatched_run_keys_rejected(self):
        app = registry.build("EP")
        with pytest.raises(WorkloadError, match="run keys"):
            sweep_run(app, [OperatingPoint()], run_keys=[])

    def test_out_of_range_frequency_rejected(self):
        app = registry.build("EP")
        with pytest.raises(FrequencyError, match="core frequency"):
            sweep_run(app, [OperatingPoint(9.9, 3.0, 24)], run_keys=[("k",)])

    def test_invalid_thread_count_rejected(self):
        app = registry.build("Lulesh")
        with pytest.raises(WorkloadError, match="thread count"):
            sweep_run(app, [OperatingPoint(2.5, 3.0, 99)], run_keys=[("k",)])

    def test_mpi_only_codes_pin_their_threads(self):
        app = registry.build("Kripke")
        assert not app.model.supports_thread_tuning
        point = OperatingPoint(2.0, 2.0, 12)
        sweep = sweep_run(app, [point], run_keys=[("k",)])
        assert sweep.results[0].operating_point.threads == app.default_threads


class TestConsumerEquivalence:
    def test_heatmap_engines_identical(self):
        from repro.analysis.heatmap import energy_heatmap
        from tests.oracles.grids import loop_heatmap

        cluster = Cluster(2)
        sweep = energy_heatmap("FT", threads=24, cluster=cluster)
        loop = loop_heatmap("FT", threads=24, cluster=cluster)
        assert np.array_equal(sweep.normalized, loop.normalized)
        assert sweep.best == loop.best
        assert sweep.plateau() == loop.plateau()

    def test_tradeoff_engines_identical(self):
        from repro.analysis.tradeoffs import energy_time_tradeoff
        from tests.oracles.grids import loop_tradeoff

        cluster = Cluster(2)
        configurations = [
            OperatingPoint(1.6, 2.5, 20), OperatingPoint(2.4, 1.7, 24)
        ]
        sweep = energy_time_tradeoff("Mcb", configurations, cluster=cluster)
        loop = loop_tradeoff("Mcb", configurations, cluster=cluster)
        assert sweep == loop
