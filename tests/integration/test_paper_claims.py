"""The paper's own claims, checked at full scale in tier-1.

Figure 5: the network, validated with leave-one-benchmark-out CV over
all 19 benchmarks at five epochs, keeps every held-out benchmark's
MAPE in single digits on average, none pathological, and beats the
regression baseline's 10-fold CV (paper: average 5.20 vs 7.54).  These
are the assertions of ``benchmarks/bench_fig5_loocv_mape.py``, on the
same dataset, without its persistent store.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.hardware.cluster import Cluster
from repro.modeling.crossval import kfold_mape, network_loocv_mape
from repro.modeling.dataset import build_dataset
from repro.modeling.regression import RegressionEnergyModel
from repro.modeling.training import TrainingConfig
from repro.paper import LOOCV_EPOCHS
from repro.workloads import registry


def test_fig5_network_beats_regression_on_all_benchmarks():
    dataset = build_dataset(
        registry.benchmark_names(), cluster=Cluster(8, seed=config.DEFAULT_SEED)
    )
    results = network_loocv_mape(dataset, config=TrainingConfig(epochs=LOOCV_EPOCHS))

    def regression_fit_predict(train_x, train_y, test_x):
        return RegressionEnergyModel().fit(train_x, train_y).predict(test_x)

    regression = kfold_mape(
        dataset.features, dataset.targets, regression_fit_predict, k=10
    )
    values = list(results.values())
    average = float(np.mean(values))
    assert len(results) == 19
    assert average < 10.0  # single-digit accuracy on average
    assert max(values) < 20.0  # no pathological benchmark
    assert average < regression  # the network beats the regression baseline
