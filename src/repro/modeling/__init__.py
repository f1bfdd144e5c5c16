"""Energy modelling (Section IV): the neural network and its baselines.

* :mod:`repro.modeling.layers` / :mod:`.network` / :mod:`.adam` /
  :mod:`.loss` / :mod:`.training` — the paper's 9-5-5-1 ReLU network
  implemented from scratch on numpy, He initialisation, ADAM, MSE;
* :mod:`repro.modeling.scaler` — standardise/center input features;
* :mod:`repro.modeling.selection` / :mod:`.vif` — the optimal-counter
  selection algorithm of Chadha et al. [24] with the VIF
  multicollinearity criterion (Table I);
* :mod:`repro.modeling.regression` — the regression-based power/time
  baseline of [24] (10-fold CV comparison in Section V-B);
* :mod:`repro.modeling.dataset` — training-set assembly from traces;
* :mod:`repro.modeling.crossval` / :mod:`.metrics` — LOOCV / k-fold and
  MAPE;
* :mod:`repro.modeling.batched` — the batched model-evaluation engine
  (full-matrix forward/backward, grid-shaped prediction);
* :mod:`repro.modeling.model_cache` — content-addressed caching of
  trained model parameters in the campaign result store.
"""

from repro.modeling.scaler import StandardScaler
from repro.modeling.layers import Dense, ReLU
from repro.modeling.network import EnergyNetwork
from repro.modeling.adam import Adam
from repro.modeling.loss import mse, mse_gradient
from repro.modeling.training import TrainedModel, TrainingConfig, train_network
from repro.modeling.dataset import EnergyDataset, FEATURE_COUNTERS, build_dataset
from repro.modeling.selection import CounterSelection, select_counters
from repro.modeling.vif import mean_vif, variance_inflation_factors
from repro.modeling.regression import RegressionEnergyModel
from repro.modeling.crossval import (
    kfold_indices,
    kfold_mape,
    leave_one_out_mape,
    network_loocv_mape,
)
from repro.modeling.metrics import mape, mean_absolute_error
from repro.modeling.batched import (
    BatchedModelEvaluator,
    GridPrediction,
    predict_energy_grid,
)
from repro.modeling.model_cache import train_network_cached

__all__ = [
    "BatchedModelEvaluator",
    "GridPrediction",
    "predict_energy_grid",
    "network_loocv_mape",
    "train_network_cached",
    "StandardScaler",
    "Dense",
    "ReLU",
    "EnergyNetwork",
    "Adam",
    "mse",
    "mse_gradient",
    "TrainingConfig",
    "TrainedModel",
    "train_network",
    "EnergyDataset",
    "FEATURE_COUNTERS",
    "build_dataset",
    "CounterSelection",
    "select_counters",
    "variance_inflation_factors",
    "mean_vif",
    "RegressionEnergyModel",
    "kfold_indices",
    "kfold_mape",
    "leave_one_out_mape",
    "mape",
    "mean_absolute_error",
]
