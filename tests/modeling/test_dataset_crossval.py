"""Tests for dataset acquisition, cross-validation, selection, regression.

These use small benchmark subsets / reduced thread sweeps to stay fast;
the full 19-benchmark pipeline runs in the benchmarks.
"""

import numpy as np
import pytest

from repro import config
from repro.campaign.engine import (
    CampaignEngine,
    CampaignReport,
    CampaignResults,
    execute_job,
    topology_job_key,
)
from repro.errors import ModelError
from repro.hardware.cluster import Cluster
from repro.modeling.crossval import kfold_indices, kfold_mape, leave_one_out_mape
from repro.modeling.dataset import (
    FEATURE_COUNTERS,
    build_dataset,
    measure_counter_rates,
    sweep_operating_points,
)
from repro.modeling.regression import RegressionEnergyModel
from repro.modeling.selection import select_counters
from repro.modeling.training import TrainingConfig, train_network
from repro.workloads import registry


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(
        ("EP", "Mcb", "Lulesh", "CG", "BT", "XSBench"), thread_counts=(16, 24)
    )


class TestSweep:
    def test_sweep_covers_both_axes(self):
        points = sweep_operating_points()
        cfs = {p[0] for p in points}
        ucfs = {p[1] for p in points}
        assert cfs == set(config.CORE_FREQUENCIES_GHZ)
        assert ucfs == set(config.UNCORE_FREQUENCIES_GHZ)

    def test_calibration_point_appears_once(self):
        points = sweep_operating_points()
        cal = (config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ)
        assert points.count(cal) == 1

    def test_sweep_size(self):
        assert len(sweep_operating_points()) == 14 + 18 - 1


class PerJobEngine(CampaignEngine):
    """Reference engine: prices every job alone through execute_job."""

    def run(self, plan, **kwargs):
        payloads = {
            topology_job_key(job, self.topology): execute_job(job, self.topology)
            for job in plan
        }
        report = CampaignReport(
            planned=len(payloads), cached=0, executed=len(payloads)
        )
        return CampaignResults(payloads, report, topology=self.topology)


class TestDataset:
    def test_fleet_strategy_builds_bit_identical_dataset(self):
        benchmarks = ("EP", "Mcb")
        reference = build_dataset(
            benchmarks,
            thread_counts=(24,),
            engine=PerJobEngine(topology=Cluster(4).topology),
        )
        fleet = build_dataset(benchmarks, thread_counts=(24,))
        assert fleet.features.tolist() == reference.features.tolist()
        assert fleet.targets.tolist() == reference.targets.tolist()
        assert fleet.times.tolist() == reference.times.tolist()
        assert fleet.groups.tolist() == reference.groups.tolist()

    def test_feature_layout(self, small_dataset):
        assert small_dataset.features.shape[1] == len(FEATURE_COUNTERS) + 2
        assert small_dataset.feature_names[-2:] == ("CF", "UCF")

    def test_sample_count(self, small_dataset):
        assert small_dataset.features.shape[0] == 6 * 2 * 31

    def test_calibration_target_is_unity(self, small_dataset):
        cal_mask = np.all(
            small_dataset.features[:, -2:] == [2.0, 1.5], axis=1
        )
        assert np.allclose(small_dataset.targets[cal_mask], 1.0)

    def test_counter_rates_frequency_independent(self):
        """Rates derive from application characteristics only (Sec. IV-B)."""
        app = registry.build("EP")
        cluster = Cluster(2)
        rates = measure_counter_rates(app, cluster, threads=24)
        assert all(v >= 0 for v in rates.values())
        assert rates["PAPI_LD_INS"] > 0

    def test_split_by_benchmark(self, small_dataset):
        train, test = small_dataset.split({"Mcb"})
        assert set(test.groups) == {"Mcb"}
        assert "Mcb" not in set(train.groups)

    def test_subset_unknown_benchmark_rejected(self, small_dataset):
        with pytest.raises(ModelError):
            small_dataset.subset({"nope"})

    def test_memory_bound_apps_have_higher_memory_rates(self, small_dataset):
        ld = small_dataset.feature_names.index("LD_INS")
        stl = small_dataset.feature_names.index("RES_STL")
        mcb = small_dataset.counter_rates[("Mcb", 24)]
        ep = small_dataset.counter_rates[("EP", 24)]
        assert mcb[stl] > ep[stl]


class TestCrossval:
    def test_kfold_partitions(self):
        splits = kfold_indices(20, 4, seed=1)
        assert len(splits) == 4
        all_test = np.concatenate([t for _, t in splits])
        assert sorted(all_test.tolist()) == list(range(20))
        for train, test in splits:
            assert not set(train) & set(test)

    def test_kfold_bad_k_rejected(self):
        with pytest.raises(ModelError):
            kfold_indices(5, 1)
        with pytest.raises(ModelError):
            kfold_indices(5, 6)

    def test_loocv_returns_every_benchmark(self, small_dataset):
        def fit_predict(tx, ty, ex):
            return RegressionEnergyModel().fit(tx, ty).predict(ex)

        res = leave_one_out_mape(small_dataset, fit_predict)
        assert set(res) == set(small_dataset.benchmarks)
        assert all(v >= 0 for v in res.values())

    def test_nn_generalises_to_unseen_benchmark(self, small_dataset):
        """Held-out Lulesh is predicted within reasonable MAPE."""
        train, test = small_dataset.split({"Lulesh"})
        model = train_network(
            train.features, train.targets, config=TrainingConfig(epochs=8)
        )
        pred = model.predict(test.features)
        err = float(np.mean(np.abs((pred - test.targets) / test.targets))) * 100
        assert err < 15.0

    def test_kfold_mape_runs(self, small_dataset):
        def fit_predict(tx, ty, ex):
            return RegressionEnergyModel().fit(tx, ty).predict(ex)

        score = kfold_mape(
            small_dataset.features, small_dataset.targets, fit_predict, k=5
        )
        assert 0 < score < 50


class TestRegressionModel:
    def test_fits_linear_data_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = 2.0 + x @ np.array([1.0, -2.0, 0.5])
        model = RegressionEnergyModel().fit(x, y)
        assert np.allclose(model.predict(x), y, atol=1e-8)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ModelError):
            RegressionEnergyModel().predict(np.ones((1, 3)))


class TestSelection:
    def test_selects_informative_counters(self, small_dataset):
        # Use the full preset set as candidates for a real selection run.
        ds = small_dataset
        freqs = ds.features[:, -2:]
        rates = ds.features[:, :-2]
        sel = select_counters(
            rates, list(ds.feature_names[:-2]), freqs, ds.targets
        )
        assert 1 <= len(sel.counters) <= 7
        assert sel.mean_vif < 10.0
        assert sel.adjusted_r2 > 0.3

    def test_misaligned_names_rejected(self):
        with pytest.raises(ModelError):
            select_counters(
                np.ones((10, 3)), ["a", "b"], np.ones((10, 2)), np.ones(10)
            )
