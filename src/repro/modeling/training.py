"""Training loop for the energy network.

Section V-B: stochastic optimisation with ADAM, default parameters,
learning rate 1e-3; five epochs for the LOOCV study, ten for the final
deployed model (more epochs over-fit).

:func:`train_networks` trains K networks in lockstep, each on its own
row subset of one shared dataset (the LOOCV folds are such subsets):
every step advances each network by one batch through stacked matmuls
and one fused ADAM update.  Each network is bit-identical to training
it alone, which is what :func:`train_network` does (K = 1).  The serial
layer-by-layer loop this replaced is kept as the test oracle
``tests/oracles/models.py::serial_train_network``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.modeling.batched import backward_batch, forward_batch
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.util.rng import rng_for

#: ADAM's default decay rates and epsilon (Kingma & Ba 2014).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters (paper defaults)."""

    epochs: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 1  # stochastic updates
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ModelError("epochs and batch size must be positive")
        if self.learning_rate <= 0:
            raise ModelError("learning rate must be positive")


@dataclass
class TrainedModel:
    """Network plus the scaler fitted on its training set."""

    network: EnergyNetwork
    scaler: StandardScaler
    losses: list[float]

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.network.predict(self.scaler.transform(np.atleast_2d(features)))


def train_network(
    features: np.ndarray,
    targets: np.ndarray,
    *,
    config: TrainingConfig = TrainingConfig(),
) -> TrainedModel:
    """Standardise features, then fit the network with ADAM on MSE.

    Returns the trained model with its scaler and the per-epoch loss
    trajectory (useful for over-fitting analysis).
    """
    features, targets = _check_shapes(features, targets)
    rows = np.arange(features.shape[0])
    return train_networks(features, targets, [rows], config)[0]


def train_networks(
    features: np.ndarray,
    targets: np.ndarray,
    row_sets,
    config: TrainingConfig = TrainingConfig(),
) -> list[TrainedModel]:
    """Train one network per row subset of a shared dataset, in lockstep.

    Model ``k`` is bit-identical to :func:`train_network` on
    ``features[row_sets[k]]``: its scaler is fitted on those rows, each
    step gathers its next batch from the shared matrix and standardises
    it on the fly, and ADAM's bias correction counts its own steps.
    All networks walk their epochs together; one that has used up its
    epoch's rows sits out the remaining steps of that epoch.
    """
    features, targets = _check_shapes(features, targets)
    rows = [_check_rows(r, features.shape[0]) for r in row_sets]
    if not rows:
        return []
    scalers = [StandardScaler().fit(features[r]) for r in rows]
    init = EnergyNetwork(n_inputs=features.shape[1], seed=config.seed)
    shapes = [p.shape for p in init.parameters]
    # Largest row set first: the networks still inside an epoch are then
    # a prefix of the stack, and those sharing a batch length are
    # contiguous, so every update acts on a slice, never on a copy.
    order = sorted(range(len(rows)), key=lambda f: -rows[f].size)
    sizes = [rows[f].size for f in order]
    k, batch = len(order), config.batch_size
    n_batches = [-(-size // batch) for size in sizes]

    params = np.tile(np.concatenate([p.ravel() for p in init.parameters]), (k, 1))
    grads = np.zeros_like(params)
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    weights = _layer_views(params, shapes)
    gradients = _layer_views(grads, shapes)
    mean = np.stack([scalers[f].mean_ for f in order])[:, None, :]
    scale = np.stack([scalers[f].scale_ for f in order])[:, None, :]
    y = targets[:, None]
    # Bias corrections by step count, with Python-int exponents:
    # 0.9 ** np.int64(t) can differ from 0.9 ** t in the last bit.
    total = config.epochs * n_batches[0]
    correction1 = np.array([1.0] + [1 - ADAM_BETA1**t for t in range(1, total + 1)])
    correction2 = np.array([1.0] + [1 - ADAM_BETA2**t for t in range(1, total + 1)])
    steps = np.zeros(k, dtype=np.intp)
    epoch_loss = np.zeros(k)

    views: dict[tuple[int, int], tuple] = {}

    def stack_slice(lo: int, hi: int) -> tuple:
        if (lo, hi) not in views:
            part = slice(lo, hi)
            views[lo, hi] = (
                [w[part] for w in weights],
                [g[part] for g in gradients],
                params[part], grads[part], moment1[part], moment2[part],
                mean[part], scale[part], steps[part], epoch_loss[part],
            )
        return views[lo, hi]

    runs = [_batch_runs(sizes, start, batch) for start in range(0, sizes[0], batch)]
    rngs = [rng_for("training-shuffle", seed=config.seed) for _ in order]
    table = np.zeros((k, sizes[0]), dtype=np.intp)
    losses: list[list[float]] = [[] for _ in order]
    for _epoch in range(config.epochs):
        for f, (src, rng) in enumerate(zip(order, rngs)):
            table[f, : sizes[f]] = rows[src][rng.permutation(sizes[f])]
        epoch_loss[:] = 0.0
        for step, step_runs in enumerate(runs):
            start = step * batch
            for lo, hi, length in step_runs:
                w, g, p, gp, m, v, mu, sigma, t, loss = stack_slice(lo, hi)
                picked = table[lo:hi, start : start + length]
                x = (features[picked] - mu) / sigma
                saved: list[np.ndarray] = []
                diff = forward_batch(w, x, saved=saved) - y[picked]
                loss += np.add.reduce(diff**2, axis=(1, 2)) / length
                backward_batch(w, x, 2.0 * diff / length, saved=saved, out=g)
                t += 1
                _adam_update(
                    p, gp, m, v,
                    correction1[t][:, None], correction2[t][:, None],
                    config.learning_rate,
                )
        for f in range(k):
            losses[f].append(float(epoch_loss[f] / n_batches[f]))

    models: list[TrainedModel | None] = [None] * len(rows)
    for f, src in enumerate(order):
        network = EnergyNetwork(n_inputs=features.shape[1], seed=config.seed)
        network.set_weights([w[f].reshape(s) for w, s in zip(weights, shapes)])
        models[src] = TrainedModel(
            network=network, scaler=scalers[src], losses=losses[f]
        )
    return models


def _check_shapes(features, targets) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or features.shape[0] != targets.shape[0]:
        raise ModelError(
            f"inconsistent training shapes: {features.shape} vs {targets.shape}"
        )
    return features, targets


def _check_rows(rows, n: int) -> np.ndarray:
    rows = np.asarray(rows)
    if (
        rows.ndim != 1
        or rows.size == 0
        or not np.issubdtype(rows.dtype, np.integer)
        or rows.min() < 0
        or rows.max() >= n
    ):
        raise ModelError(
            f"a row set must be a non-empty 1-D array of row indices below {n}"
        )
    return rows.astype(np.intp, copy=False)


def _layer_views(buffer: np.ndarray, shapes) -> list[np.ndarray]:
    """Stacked per-layer views of a ``(K, P)`` buffer: weights as
    ``(K, in, out)``, biases as ``(K, 1, out)`` so they broadcast over
    a batch's rows."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        stacked = shape if len(shape) == 2 else (1, *shape)
        views.append(
            buffer[:, offset : offset + size].reshape(buffer.shape[0], *stacked)
        )
        offset += size
    return views


def _batch_runs(sizes: list[int], start: int, batch: int) -> list[tuple]:
    """``(lo, hi, length)`` per run of networks (sorted by falling row
    count) whose batch at row offset ``start`` has the same length;
    networks past the end of their rows are left out."""
    runs: list[list[int]] = []
    for f, size in enumerate(sizes):
        length = min(batch, size - start)
        if length <= 0:
            break
        if runs and runs[-1][2] == length:
            runs[-1][1] = f + 1
        else:
            runs.append([f, f + 1, length])
    return [tuple(run) for run in runs]


def _adam_update(params, grads, m, v, correction1, correction2, learning_rate):
    """One ADAM step over ``(K, P)`` rows, each with its own bias
    correction column; the operations of a per-array ADAM, in order."""
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grads * grads
    params -= (
        learning_rate * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPSILON)
    )
