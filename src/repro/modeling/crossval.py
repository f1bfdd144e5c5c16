"""Cross-validation: LOOCV over benchmarks, k-fold over samples.

The paper evaluates the network with leave-one-*benchmark*-out CV (each
step holds out every sample of one benchmark) and contrasts it with the
10-fold random-index CV of the regression baseline, which can place
samples of one benchmark in both train and test sets.

:func:`leave_one_out_mape` stays the generic serial harness for any
``fit_predict`` callable; :func:`network_loocv_mape` is the energy
network's production path: every fold is a row subset of the one
dataset, so all folds train in a single lockstep pass
(:func:`~repro.modeling.training.train_networks`) over the shared
feature matrix, trained parameters are recalled from the
content-addressed result store, and held-out benchmarks are predicted
through the batched evaluation engine — all bit-identical to the
serial loop kept as a test oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ModelError
from repro.modeling.batched import BatchedModelEvaluator
from repro.modeling.dataset import EnergyDataset
from repro.modeling.metrics import mape
from repro.modeling.model_cache import train_networks_cached
from repro.modeling.training import TrainingConfig
from repro.util.rng import rng_for

if TYPE_CHECKING:
    from repro.campaign.engine import CampaignEngine

#: fit_predict(train_x, train_y, test_x) -> predictions
FitPredict = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def leave_one_out_mape(
    dataset: EnergyDataset, fit_predict: FitPredict
) -> dict[str, float]:
    """LOOCV per benchmark: MAPE on each held-out benchmark (Figure 5)."""
    results: dict[str, float] = {}
    for bench in dataset.benchmarks:
        train, test = dataset.split({bench})
        pred = fit_predict(train.features, train.targets, test.features)
        results[bench] = mape(np.asarray(pred), test.targets)
    return results


# ---------------------------------------------------------------------------
# Network LOOCV: lockstep folds, cached weights, batched prediction
# ---------------------------------------------------------------------------

def network_loocv_mape(
    dataset: EnergyDataset,
    *,
    config: TrainingConfig = TrainingConfig(),
    campaign: CampaignEngine | None = None,
) -> dict[str, float]:
    """Figure 5's network LOOCV: per-benchmark MAPE of held-out folds.

    Each fold is a row subset of the dataset.  Folds whose trained
    weights ``campaign``'s result store holds are recalled; the rest
    train together in one lockstep pass and are persisted
    (:func:`~repro.modeling.model_cache.train_networks_cached`).
    Held-out benchmarks are predicted with the batched evaluator —
    bit-identical to training and predicting one fold at a time.
    """
    store = campaign.store if campaign is not None else None
    features, targets = dataset.features, dataset.targets
    folds = [np.flatnonzero(dataset.groups != bench) for bench in dataset.benchmarks]
    models = train_networks_cached(features, targets, folds, config=config, store=store)
    results = {}
    for bench, model in zip(dataset.benchmarks, models):
        test = dataset.groups == bench
        predicted = BatchedModelEvaluator(model).predict(features[test])
        results[bench] = mape(predicted, targets[test])
    return results


def kfold_indices(
    n: int, k: int, *, seed: int = 0, shuffle: bool = True
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random-index k-fold splits (the baseline's 10-fold CV)."""
    if not 2 <= k <= n:
        raise ModelError(f"need 2 <= k <= n, got k={k}, n={n}")
    idx = np.arange(n)
    if shuffle:
        idx = rng_for("kfold", n, k, seed=seed).permutation(n)
    folds = np.array_split(idx, k)
    splits = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        splits.append((train, test))
    return splits


def kfold_mape(
    features: np.ndarray,
    targets: np.ndarray,
    fit_predict: FitPredict,
    *,
    k: int = 10,
    seed: int = 0,
) -> float:
    """Mean MAPE over random-index k-fold splits."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    scores = []
    for train, test in kfold_indices(features.shape[0], k, seed=seed):
        pred = fit_predict(features[train], targets[train], features[test])
        scores.append(mape(np.asarray(pred), targets[test]))
    return float(np.mean(scores))
