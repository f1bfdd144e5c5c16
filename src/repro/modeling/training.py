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
import numbers
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

#: Rows per network gathered and standardised at once: enough to
#: amortise the gather, few enough that a block of the 19 LOOCV folds
#: stays below 100 KB however many rows a network trains on.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters (paper defaults)."""

    epochs: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 1  # stochastic updates
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ModelError(f"{name} must be an int, got {value!r}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ModelError("epochs and batch size must be positive")
        rate = self.learning_rate
        if (
            isinstance(rate, bool)
            or not isinstance(rate, numbers.Real)
            or not math.isfinite(rate)
            or rate <= 0
        ):
            raise ModelError(
                f"learning rate must be a positive finite number, got {rate!r}"
            )


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

    A step is one forward, one backward and one ADAM update over the
    stack, about thirty numpy calls whatever K is.  With the paper's
    batch length of one, the back-propagated row of a layer *is* its
    bias gradient (a one-row sum is that row), so it is written straight
    into the gradient buffer; longer batches sum their rows.
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
    n_batches = np.array([-(-size // batch) for size in sizes])
    steps = int(n_batches[0])
    block_steps = max(1, BLOCK_ROWS // batch)

    params = np.tile(np.concatenate([p.ravel() for p in init.parameters]), (k, 1))
    grads = np.zeros_like(params)
    weights = _layer_views(params, shapes)
    gradients = _layer_views(grads, shapes)
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

    views: dict[tuple[int, int], _StackSlice] = {}

    def stack_slice(lo: int, hi: int) -> _StackSlice:
        if (lo, hi) not in views:
            views[lo, hi] = _StackSlice(
                slice(lo, hi),
                weights,
                gradients,
                params,
                grads,
                moments,
                scratch,
                decay,
                keep,
            )
        return views[lo, hi]

    # Each step's runs; consecutive steps with equal runs share one list.
    runs: list[list[tuple]] = []
    for start in range(0, sizes[0], batch):
        step_runs = _batch_runs(sizes, start, batch)
        runs.append(runs[-1] if runs and runs[-1] == step_runs else step_runs)
    rngs = [rng_for("training-shuffle", seed=config.seed) for _ in order]
    table = np.zeros((k, sizes[0]), dtype=np.intp)
    # A block's per-step batch losses, zero where a network sits out,
    # after row 0: the epoch's running sum so far.  Folding the rows in
    # order adds the steps one by one, as a running total does.
    block_losses = np.zeros((block_steps + 1, k, 1, 1))
    losses: list[list[float]] = [[] for _ in order]
    for epoch in range(config.epochs):
        for f, (src, rng) in enumerate(zip(order, rngs)):
            table[f, : sizes[f]] = rows[src][rng.permutation(sizes[f])]
        block_losses[0] = 0.0
        for first in range(0, steps, block_steps):
            last = min(first + block_steps, steps)
            picked = table[:, first * batch : last * batch]
            x_block = (features[picked] - mean) / scale
            y_block = targets[picked][..., None]
            # Network f's step count at epoch step s: epoch * n_f + s + 1.
            counts = epoch * n_batches + np.arange(first + 1, last + 1)[:, None]
            c_block = corrections[counts].swapaxes(1, 2)[..., None]
            block_losses[1:] = 0.0
            for step in range(first, last):
                at = (step - first) * batch
                for lo, hi, length in runs[step]:
                    part = stack_slice(lo, hi)
                    rows_at = slice(at, at + length)
                    part.backprop(
                        x_block[lo:hi, rows_at],
                        y_block[lo:hi, rows_at],
                        block_losses[step - first + 1, lo:hi],
                    )
                    part.adam(c_block[step - first, :, lo:hi], config.learning_rate)
            block_losses[0] = np.add.accumulate(block_losses, axis=0)[-1]
        for f in range(k):
            losses[f].append(float(block_losses[0, f, 0, 0] / n_batches[f]))

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


class _StackSlice:
    """Cached views of networks ``lo:hi`` of the lockstep buffers, and
    the two halves of one training step over them."""

    def __init__(
        self, part, weights, gradients, params, grads, moments, scratch, decay, keep
    ):
        self.weights = [w[part] for w in weights]
        self.w2_t = self.weights[2].swapaxes(-1, -2)
        self.w3_t = self.weights[4].swapaxes(-1, -2)
        self.gradients = [g[part] for g in gradients]
        self.params = params[part]
        self.grads = grads[part]
        self.moments = moments[:, part]
        self.estimates = scratch[:, part]
        self.mean_estimate = scratch[0, part]
        self.var_estimate = scratch[1, part]
        self.decay = decay[:, part]
        self.keep = keep[:, part]

    def backprop(self, x, y, loss) -> None:
        """Forward and backward of one batch (``(K, rows, in)`` inputs,
        ``(K, rows, 1)`` targets): fills the gradient views and writes
        each network's batch loss to ``loss``."""
        length = x.shape[-2]
        if length != 1:
            saved: list[np.ndarray] = []
            diff = forward_batch(self.weights, x, saved=saved) - y
            np.divide(np.add.reduce(diff**2, axis=(1, 2)), length, out=loss[:, 0, 0])
            grad = 2.0 * diff / length
            backward_batch(self.weights, x, grad, saved=saved, out=self.gradients)
            return
        # One row, through Figure 4's two hidden layers and one output
        # neuron: the operations of forward_batch and backward_batch in
        # order.  A one-row sum is that row, so the loss is the squared
        # error and each back-propagated row is its layer's bias
        # gradient.  A product with a one-entry factor (the output
        # neuron's error) is an elementwise multiply: one term per
        # entry, exact up to the sign of a zero (which ADAM's moments
        # cannot see), without np.matmul's slow stacked path for that
        # shape.
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

    def adam(self, correction, learning_rate: float) -> None:
        """One ADAM update from the gradient views; ``correction`` is the
        ``(2, K, 1)`` bias correction of each network's step.  The
        operations of a per-array update, in order:
        ``m, v = b1 * m + (1 - b1) * g, b2 * v + ((1 - b2) * g) * g`` and
        ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``."""
        estimates, var = self.estimates, self.var_estimate
        self.moments *= self.decay
        np.multiply(self.keep, self.grads, out=estimates)
        var *= self.grads
        self.moments += estimates
        np.divide(self.moments, correction, out=estimates)
        np.sqrt(var, out=var)
        var += ADAM_EPSILON
        step = np.multiply(learning_rate, self.mean_estimate, out=self.mean_estimate)
        step /= var
        self.params -= step
