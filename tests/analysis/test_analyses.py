"""Tests for the per-figure/table analysis producers."""

import pytest

from repro import config
from repro.analysis.heatmap import energy_heatmap
from repro.analysis.savings import compare_static_dynamic
from repro.analysis.tradeoffs import energy_time_tradeoff, pareto_front
from repro.analysis.tuning_time import tuning_time_comparison
from repro.analysis.variability import variability_study
from repro.analysis import reporting
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry
from tests.oracles.grids import loop_variability
from tests.oracles.savings import recursive_savings


@pytest.fixture(scope="module")
def cluster():
    return Cluster(6)


class TestVariability:
    @pytest.fixture(scope="class")
    def study(self, cluster):
        return variability_study("Lulesh", axis="core", nodes=(0, 1, 2), cluster=cluster)

    def test_nodes_have_distinct_raw_energy(self, study):
        mins = [s.min() for s in study.raw_energy_j.values()]
        assert len({round(m, 3) for m in mins}) == 3

    def test_normalization_reduces_spread(self, study):
        assert study.normalized_spread < study.raw_spread
        assert study.spread_reduction > 2.0

    def test_series_cover_all_core_frequencies(self, study):
        assert study.frequencies == config.CORE_FREQUENCIES_GHZ
        for series in study.raw_energy_j.values():
            assert len(series) == 14

    def test_uncore_axis(self, cluster):
        study = variability_study(
            "Lulesh", axis="uncore", nodes=(0, 1), cluster=cluster
        )
        assert study.frequencies == config.UNCORE_FREQUENCIES_GHZ
        assert study.normalized_spread < study.raw_spread

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            variability_study("Lulesh", axis="dram")

    @pytest.mark.parametrize("axis", ["core", "uncore"])
    def test_fleet_engine_bit_identical_to_loop(self, axis, cluster):
        """The fleet-kernel sweep equals the per-cell loop oracle."""
        kwargs = dict(axis=axis, nodes=(0, 2), cluster=cluster)
        fleet = variability_study("Mcb", **kwargs)
        loop = loop_variability("Mcb", **kwargs)
        for node_id in (0, 2):
            assert (
                fleet.raw_energy_j[node_id].tolist()
                == loop.raw_energy_j[node_id].tolist()
            )
            assert (
                fleet.normalized_energy[node_id].tolist()
                == loop.normalized_energy[node_id].tolist()
            )

    def test_rendering(self, study):
        text = reporting.render_variability(study)
        assert "Lulesh" in text and "spread" in text


class TestHeatmap:
    @pytest.fixture(scope="class")
    def lulesh_map(self, cluster):
        return energy_heatmap(
            "Lulesh", threads=24, cluster=cluster, selected=(2.4, 1.7)
        )

    def test_grid_shape(self, lulesh_map):
        assert lulesh_map.normalized.shape == (14, 18)

    def test_compute_bound_best_high_cf_low_ucf(self, lulesh_map):
        cf, ucf = lulesh_map.best
        assert cf >= 2.2
        assert ucf <= 2.0

    def test_calibration_cell_is_unity(self, lulesh_map):
        assert lulesh_map.value_at(2.0, 1.5) == pytest.approx(1.0, abs=0.02)

    def test_plateau_contains_best(self, lulesh_map):
        assert lulesh_map.best in lulesh_map.plateau()

    def test_selected_within_plateau(self, lulesh_map):
        assert lulesh_map.selected_within_plateau(threshold=0.03)

    def test_memory_bound_best_low_cf_high_ucf(self, cluster):
        heatmap = energy_heatmap("Mcb", threads=20, cluster=cluster)
        cf, ucf = heatmap.best
        assert cf <= 1.9
        assert ucf >= 2.2

    def test_rendering_marks_best(self, lulesh_map):
        text = reporting.render_heatmap(lulesh_map)
        assert "*" in text and "+" in text


class TestSavings:
    @pytest.fixture(scope="class")
    def lulesh_savings(self, cluster):
        tmm = TuningModel.from_best_configs(
            "Lulesh",
            "phase",
            {
                "phase": OperatingPoint(2.4, 1.7, 24),
                "IntegrateStressForElems": OperatingPoint(2.5, 1.7, 24),
                "CalcFBHourglassForceForElems": OperatingPoint(2.4, 1.6, 24),
                "CalcKinematicsForElems": OperatingPoint(2.4, 1.8, 24),
                "CalcQForElems": OperatingPoint(2.4, 1.7, 24),
                "ApplyMaterialPropertiesForElems": OperatingPoint(2.4, 1.7, 20),
            },
        )
        return compare_static_dynamic(
            "Lulesh",
            OperatingPoint(2.4, 1.6, 24),
            tmm,
            cluster=cluster,
            runs=3,
        )

    def test_both_strategies_save_energy(self, lulesh_savings):
        s = lulesh_savings
        assert s.static_job_energy_saving > 0
        assert s.dynamic_job_energy_saving > 0

    def test_cpu_savings_exceed_job_savings(self, lulesh_savings):
        """Blade power dilutes job-energy savings (Table VI pattern)."""
        s = lulesh_savings
        assert s.static_cpu_energy_saving > s.static_job_energy_saving
        assert s.dynamic_cpu_energy_saving > s.dynamic_job_energy_saving

    def test_dynamic_costs_time(self, lulesh_savings):
        assert lulesh_savings.dynamic_time_saving < 0

    def test_overhead_is_negative(self, lulesh_savings):
        """Switching + instrumentation always cost time."""
        assert lulesh_savings.overhead < 0

    def test_rendering(self, lulesh_savings):
        text = reporting.render_savings([lulesh_savings])
        assert "Lulesh" in text and "average" in text

    def test_engines_and_campaign_bit_identical(self, cluster):
        """The replayed row equals the recursive-engine oracle, and the
        campaign-backed path reproduces the in-process loop exactly."""
        from repro import api
        from repro.campaign.engine import CampaignEngine

        tmm = TuningModel.from_best_configs(
            "Lulesh", "phase",
            {
                "phase": OperatingPoint(2.5, 2.1, 24),
                "CalcKinematicsForElems": OperatingPoint(2.4, 2.0, 24),
                "CalcQForElems": OperatingPoint(2.5, 2.0, 24),
            },
        )
        static = OperatingPoint(2.4, 2.0, 24)
        row = compare_static_dynamic(
            "Lulesh", static, tmm, cluster=cluster, runs=2
        )
        assert row == recursive_savings(
            "Lulesh", static, tmm, cluster=cluster, runs=2
        )
        via_campaign = compare_static_dynamic(
            "Lulesh", static, tmm, cluster=cluster, runs=2,
            options=api.ExecutionOptions(campaign=CampaignEngine()),
        )
        assert via_campaign == row

    def test_many_matches_solo_rows_and_shares_one_campaign_run(
        self, cluster
    ):
        """compare_static_dynamic_many batches every benchmark's four
        variants into one fleet campaign run, each row bit-identical
        to its solo compare_static_dynamic call."""
        from repro import api
        from repro.analysis.savings import (
            SavingsCase,
            compare_static_dynamic_many,
        )
        from repro.campaign.engine import CampaignEngine

        def case(benchmark):
            app = registry.build(benchmark)
            best = {"phase": OperatingPoint(2.5, 2.1, 24)}
            for child in app.phase.children[:2]:
                best[child.name] = OperatingPoint(2.4, 2.0, 24)
            return SavingsCase(
                benchmark=benchmark,
                static_config=OperatingPoint(2.4, 2.0, 24),
                tuning_model=TuningModel.from_best_configs(
                    benchmark, "phase", best
                ),
            )

        cases = [case("Lulesh"), case("EP")]
        engine = CampaignEngine()
        options = api.ExecutionOptions(campaign=engine, cluster=cluster)
        rows = compare_static_dynamic_many(
            cases, runs=2, options=options
        )
        assert engine.total_executed > 0
        solo = [
            compare_static_dynamic(
                c.benchmark, c.static_config, c.tuning_model,
                cluster=cluster, runs=2,
            )
            for c in cases
        ]
        assert rows == solo
        # without a campaign engine, the cases run one at a time and
        # still produce identical rows
        plain = compare_static_dynamic_many(
            cases, runs=2, options=api.ExecutionOptions(cluster=cluster)
        )
        assert plain == solo

    def test_campaign_topology_mismatch_rejected(self, cluster):
        from repro import api
        from repro.campaign.engine import CampaignEngine
        from repro.errors import CampaignError
        from repro.hardware.topology import NodeTopology

        with pytest.raises(CampaignError, match="topology"):
            compare_static_dynamic(
                "Lulesh", OperatingPoint(2.4, 1.6, 24),
                TuningModel.from_best_configs(
                    "Lulesh", "phase", {"phase": OperatingPoint(2.4, 1.6, 24)}
                ),
                cluster=cluster, runs=1,
                options=api.ExecutionOptions(
                    campaign=CampaignEngine(topology=NodeTopology.build(1, 8))
                ),
            )


class TestTuningTime:
    def test_exhaustive_dwarfs_model_based(self, cluster):
        cmp = tuning_time_comparison("Mcb", cluster=cluster)
        assert cmp.exhaustive_time_s > 100 * cmp.model_based_run_time_s
        assert cmp.phase_exploitation_speedup > 1.0

    def test_formula_matches_paper(self, cluster):
        cmp = tuning_time_comparison("Mcb", cluster=cluster, num_regions=5)
        e = cmp.estimate
        assert e.exhaustive_runs == 5 * 4 * 14 * 18
        assert e.model_based_experiments == 14

    def test_rendering(self, cluster):
        text = reporting.render_tuning_time(tuning_time_comparison("Mcb", cluster=cluster))
        assert "exhaustive" in text


class TestTradeoffs:
    def test_default_point_is_reference(self, cluster):
        points = energy_time_tradeoff(
            "EP",
            [OperatingPoint(1.2, 1.3, 24)],
            cluster=cluster,
        )
        default = [p for p in points if p.configuration == OperatingPoint()][0]
        assert default.relative_time == pytest.approx(1.0)
        assert default.relative_energy == pytest.approx(1.0)

    def test_low_frequency_trades_time_for_energy(self, cluster):
        """Memory-bound code: lower CF costs time but saves energy."""
        points = energy_time_tradeoff(
            "Mcb", [OperatingPoint(1.6, 2.5, 20)], cluster=cluster
        )
        slow = [p for p in points if p.configuration.core_freq_ghz == 1.6][0]
        assert slow.relative_time > 1.0
        assert slow.relative_energy < 1.0

    def test_extreme_downclock_wastes_energy_on_compute_bound(self, cluster):
        """EP at minimum frequencies: static power dominates the stretched
        run time, so energy rises — the reason interior optima exist."""
        points = energy_time_tradeoff(
            "EP", [OperatingPoint(1.2, 1.3, 24)], cluster=cluster
        )
        slow = [p for p in points if p.configuration.core_freq_ghz == 1.2][0]
        assert slow.relative_time > 1.5
        assert slow.relative_energy > 1.0

    def test_pareto_front_is_nondominated(self, cluster):
        points = energy_time_tradeoff(
            "EP",
            [
                OperatingPoint(cf, ucf, 24)
                for cf in (1.2, 1.8, 2.4)
                for ucf in (1.3, 2.0)
            ],
            cluster=cluster,
        )
        front = pareto_front(points)
        assert front
        for a in front:
            assert not any(
                b.relative_time <= a.relative_time
                and b.relative_energy <= a.relative_energy
                and b.pareto_key != a.pareto_key
                for b in points
            )


class TestRosterRendering:
    def test_table2(self):
        text = reporting.render_roster(registry.roster())
        assert "NPB-3.3" in text and "BEM4I" in text

    def test_region_configs(self):
        text = reporting.render_region_configs(
            "Lulesh", {"CalcQForElems": OperatingPoint(2.5, 2.0, 24)}
        )
        assert "CalcQForElems" in text
