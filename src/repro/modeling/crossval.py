"""Cross-validation: LOOCV over benchmarks, k-fold over samples.

The paper evaluates the network with leave-one-*benchmark*-out CV (each
step holds out every sample of one benchmark) and contrasts it with the
10-fold random-index CV of the regression baseline, which can place
samples of one benchmark in both train and test sets.

:func:`leave_one_out_mape` stays the generic serial harness for any
``fit_predict`` callable; :func:`network_loocv_mape` is the energy
network's production path: folds train as parallel jobs through a
:class:`~repro.campaign.engine.CampaignEngine`, trained parameters are
recalled from the content-addressed result store, and held-out
benchmarks are predicted through the batched evaluation engine — all
bit-identical to the serial pointwise loop kept as a test oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.campaign.engine import CampaignEngine
from repro.campaign.store import job_key
from repro.errors import ModelError
from repro.modeling.batched import BatchedModelEvaluator
from repro.modeling.dataset import EnergyDataset
from repro.modeling.metrics import mape
from repro.modeling.model_cache import (
    dataset_digest,
    model_from_payload,
    model_to_payload,
    training_descriptor,
)
from repro.modeling.training import TrainedModel, TrainingConfig, train_network
from repro.util.rng import rng_for

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
# Network LOOCV: parallel folds, cached weights, batched prediction
# ---------------------------------------------------------------------------

def _train_fold(task: tuple[np.ndarray, np.ndarray, TrainingConfig]) -> dict:
    """Campaign worker: train one fold, return JSON-able parameters.

    Top-level (picklable) so :meth:`CampaignEngine.map_tasks` can fan
    folds out across the process pool; training is deterministic, so
    the payload is bit-identical wherever the fold runs.
    """
    features, targets, config = task
    return model_to_payload(train_network(features, targets, config=config))


def network_loocv_folds(
    dataset: EnergyDataset,
) -> list[tuple[str, EnergyDataset, EnergyDataset]]:
    """The leave-one-benchmark-out folds, in benchmark order."""
    return [
        (bench, *dataset.split({bench})) for bench in dataset.benchmarks
    ]


def network_loocv_mape(
    dataset: EnergyDataset,
    *,
    config: TrainingConfig = TrainingConfig(),
    campaign: CampaignEngine | None = None,
) -> dict[str, float]:
    """Figure 5's network LOOCV: per-benchmark MAPE of held-out folds.

    Fold training dispatches through ``campaign`` (parallel workers,
    trained weights recalled from / persisted to its result store) and
    held-out benchmarks are predicted with the batched evaluator —
    bit-identical to training and predicting one fold at a time.
    """
    folds = network_loocv_folds(dataset)
    store = campaign.store if campaign is not None else None
    models: dict[str, TrainedModel | None] = {}
    pending: list[tuple[str, str, dict]] = []
    for bench, train, _test in folds:
        descriptor = training_descriptor(
            dataset_digest(train.features, train.targets), config
        )
        key = job_key(descriptor)
        cached = store.get(key) if store is not None else None
        if cached is not None:
            models[bench] = model_from_payload(cached)
        else:
            models[bench] = None
            pending.append((bench, key, descriptor))

    if pending:
        by_bench = {bench: (train, test) for bench, train, test in folds}
        tasks = [
            (by_bench[bench][0].features, by_bench[bench][0].targets, config)
            for bench, _key, _descriptor in pending
        ]
        if campaign is not None:
            payloads = campaign.map_tasks(_train_fold, tasks)
        else:
            payloads = [_train_fold(task) for task in tasks]
        for (bench, key, descriptor), payload in zip(pending, payloads):
            if store is not None:
                store.put(key, descriptor, payload)
            models[bench] = model_from_payload(payload)

    results = {}
    for bench, _train, test in folds:
        model = models[bench]
        assert model is not None
        evaluator = BatchedModelEvaluator(model)
        results[bench] = mape(evaluator.predict(test.features), test.targets)
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
