"""Training loop for the energy network.

Section V-B: stochastic optimisation with ADAM, default parameters,
learning rate 1e-3, one row per update; five epochs for the LOOCV
study, ten for the final deployed model (more epochs over-fit).  The
epoch count is the one setting (:class:`TrainingConfig`); the learning
rate and the initialisation/shuffle seed are the module constants
:data:`LEARNING_RATE` and :data:`TRAINING_SEED`.

:func:`train_networks` trains K networks in lockstep, each on its own
row subset of one shared dataset (the LOOCV folds are such subsets):
every step advances each network by one row through stacked matmuls
and one fused ADAM update.  Each network is bit-identical to training
it alone, which is what :func:`train_network` does (K = 1).  The serial
layer-by-layer loop this replaced (forward, backward, MSE and a
per-array ADAM) is kept as the test oracle
``tests/oracles/models.py::serial_train_network``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.util.rng import rng_for

#: ADAM's default decay rates and epsilon (Kingma & Ba 2014).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

#: ADAM's step size (Section V-B) and the seed of the He initialisation
#: and of each epoch's row shuffle.
LEARNING_RATE = 1e-3
TRAINING_SEED = 0

#: Rows per network gathered and standardised at once: enough to
#: amortise the gather, few enough that a block of the 19 LOOCV folds
#: stays below 100 KB however many rows a network trains on.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class TrainingConfig:
    """The number of passes over the training rows (paper default: the
    LOOCV study's five)."""

    epochs: int = 5

    def __post_init__(self):
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, int):
            raise ModelError(f"epochs must be an int, got {self.epochs!r}")
        if self.epochs <= 0:
            raise ModelError("epochs must be positive")


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
    ``features[row_sets[k]]``: its scaler is fitted on those rows, its
    permuted rows are standardised a bounded block of steps at a time,
    and ADAM's bias correction counts its own steps.  All networks walk
    their epochs together; one that has used up its epoch's rows sits
    out the remaining steps of that epoch.

    A step is one forward, one backward and one ADAM update of one row
    per network over the stack, about thirty numpy calls whatever K is.
    """
    features, targets = _check_shapes(features, targets)
    rows = [_check_rows(r, features.shape[0]) for r in row_sets]
    if not rows:
        return []
    scalers = [StandardScaler().fit(features[r]) for r in rows]
    init = EnergyNetwork(n_inputs=features.shape[1], seed=TRAINING_SEED)
    shapes = [p.shape for p in init.parameters]
    # Largest row set first: the networks still inside their epoch at
    # step s are then the prefix [:active[s]] of the stack, so every
    # update acts on a slice, never on a copy.
    order = sorted(range(len(rows)), key=lambda f: -rows[f].size)
    sizes = np.array([rows[f].size for f in order])
    k, steps = len(order), int(sizes[0])
    active = np.count_nonzero(sizes[:, None] > np.arange(steps), axis=0).tolist()

    params = np.tile(np.concatenate([p.ravel() for p in init.parameters]), (k, 1))
    grads = np.zeros_like(params)
    weights = _layer_views(params, shapes)
    # ADAM's two moments in one buffer, with their decay rates and
    # gradient weights laid out alike, so each stage of the update is
    # one numpy call over both; ``scratch`` holds the step's
    # bias-corrected estimates.
    moments = np.zeros((2, *params.shape))
    scratch = np.empty_like(moments)
    decay = np.empty_like(moments)
    decay[0], decay[1] = ADAM_BETA1, ADAM_BETA2
    keep = np.empty_like(moments)
    keep[0], keep[1] = 1 - ADAM_BETA1, 1 - ADAM_BETA2
    mean = np.stack([scalers[f].mean_ for f in order])[:, None, :]
    scale = np.stack([scalers[f].scale_ for f in order])[:, None, :]
    # Bias corrections by step count, with Python-int exponents:
    # 0.9 ** np.int64(t) can differ from 0.9 ** t in the last bit.
    total = config.epochs * steps
    corrections = np.ones((total + 1, 2))
    for column, beta in enumerate((ADAM_BETA1, ADAM_BETA2)):
        corrections[1:, column] = np.fromiter(
            (1 - beta**t for t in range(1, total + 1)), float, count=total
        )

    # Cached views of each prefix of the stack that some step trains.
    parts = {
        n: _StackSlice(n, shapes, params, grads, moments, scratch, decay, keep)
        for n in set(active)
    }
    rngs = [rng_for("training-shuffle", seed=TRAINING_SEED) for _ in order]
    table = np.zeros((k, steps), dtype=np.intp)
    # A block's per-step losses, zero where a network sits out, after
    # row 0: the epoch's running sum so far.  Folding the rows in order
    # adds the steps one by one, as a running total does.
    block_losses = np.zeros((BLOCK_ROWS + 1, k, 1, 1))
    losses: list[list[float]] = [[] for _ in order]
    for epoch in range(config.epochs):
        for f, (src, rng) in enumerate(zip(order, rngs)):
            table[f, : sizes[f]] = rows[src][rng.permutation(sizes[f])]
        block_losses[0] = 0.0
        for first in range(0, steps, BLOCK_ROWS):
            last = min(first + BLOCK_ROWS, steps)
            picked = table[:, first:last]
            x_block = (features[picked] - mean) / scale
            y_block = targets[picked][..., None]
            # Network f's step count at epoch step s: epoch * n_f + s + 1.
            counts = epoch * sizes + np.arange(first + 1, last + 1)[:, None]
            c_block = corrections[counts].swapaxes(1, 2)[..., None]
            block_losses[1:] = 0.0
            for at in range(last - first):
                n = active[first + at]
                parts[n].step(
                    x_block[:n, at : at + 1],
                    y_block[:n, at : at + 1],
                    block_losses[at + 1, :n],
                    c_block[at, :, :n],
                )
            block_losses[0] = np.add.accumulate(block_losses, axis=0)[-1]
        for f in range(k):
            losses[f].append(float(block_losses[0, f, 0, 0] / sizes[f]))

    models: list[TrainedModel | None] = [None] * len(rows)
    for f, src in enumerate(order):
        network = EnergyNetwork(n_inputs=features.shape[1], seed=TRAINING_SEED)
        network.set_weights([w[f].reshape(s) for w, s in zip(weights, shapes)])
        models[src] = TrainedModel(
            network=network, scaler=scalers[src], losses=losses[f]
        )
    return models


def _check_shapes(features, targets) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.ndim != 1 or features.shape[0] != targets.shape[0]:
        raise ModelError(
            f"inconsistent training shapes: {features.shape} vs {targets.shape}"
        )
    # The ReLU masks a NaN on the way forward, so a non-finite input
    # would train to non-finite weights behind finite losses.
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ModelError("training features and targets must be finite")
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
    a row."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        stacked = shape if len(shape) == 2 else (1, *shape)
        views.append(
            buffer[:, offset : offset + size].reshape(buffer.shape[0], *stacked)
        )
        offset += size
    return views


class _StackSlice:
    """Cached views of the first ``n`` networks of the lockstep buffers,
    and one training step over them."""

    def __init__(self, n, shapes, params, grads, moments, scratch, decay, keep):
        part = slice(0, n)
        self.weights = _layer_views(params[part], shapes)
        self.w2_t = self.weights[2].swapaxes(-1, -2)
        self.w3_t = self.weights[4].swapaxes(-1, -2)
        self.gradients = _layer_views(grads[part], shapes)
        self.params = params[part]
        self.grads = grads[part]
        self.moments = moments[:, part]
        self.estimates = scratch[:, part]
        self.mean_estimate = scratch[0, part]
        self.var_estimate = scratch[1, part]
        self.decay = decay[:, part]
        self.keep = keep[:, part]

    def step(self, x, y, loss, correction) -> None:
        """Forward, backward and ADAM update of one row per network
        (``(K, 1, in)`` inputs, ``(K, 1, 1)`` targets); writes each
        network's squared error to ``loss``.  ``correction`` is the
        ``(2, K, 1)`` bias correction of each network's step.

        The forward and backward run the operations of
        :func:`~repro.modeling.batched.forward_batch` and of a
        layer-by-layer dense/ReLU backward, in order, through Figure 4's
        two hidden layers and one output neuron.  A one-row sum is that
        row, so the MSE is the squared error and each back-propagated
        row is its layer's bias gradient.  A product with a one-entry
        factor (the output neuron's error) is an elementwise multiply:
        one term per entry, exact up to the sign of a zero (which
        ADAM's moments cannot see), without np.matmul's slow stacked
        path for that shape.

        The update runs the operations of a per-array ADAM, in order:
        ``m, v = b1 * m + (1 - b1) * g, b2 * v + ((1 - b2) * g) * g``
        and ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``.
        """
        w1, b1, w2, b2, w3, b3 = self.weights
        gw1, gb1, gw2, gb2, gw3, gb3 = self.gradients
        h1 = x @ w1 + b1
        m1 = h1 > 0
        a1 = np.where(m1, h1, 0.0)
        h2 = a1 @ w2 + b2
        m2 = h2 > 0
        a2 = np.where(m2, h2, 0.0)
        diff = a2 @ w3 + b3 - y
        np.square(diff, out=loss)
        np.multiply(2.0, diff, out=gb3)
        np.multiply(a2.swapaxes(-1, -2), gb3, out=gw3)
        np.multiply(gb3 * self.w3_t, m2, out=gb2)
        np.matmul(a1.swapaxes(-1, -2), gb2, out=gw2)
        np.multiply(gb2 @ self.w2_t, m1, out=gb1)
        np.matmul(x.swapaxes(-1, -2), gb1, out=gw1)

        estimates, var = self.estimates, self.var_estimate
        self.moments *= self.decay
        np.multiply(self.keep, self.grads, out=estimates)
        var *= self.grads
        self.moments += estimates
        np.divide(self.moments, correction, out=estimates)
        np.sqrt(var, out=var)
        var += ADAM_EPSILON
        update = np.multiply(LEARNING_RATE, self.mean_estimate, out=self.mean_estimate)
        update /= var
        self.params -= update
