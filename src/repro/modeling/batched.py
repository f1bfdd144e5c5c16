"""Batched model-evaluation engine: full-matrix MLP forward/backward.

The tuning layer keeps asking the energy network the same shape of
question: *given counter rates for a region (or a whole benchmark
series), what is the predicted normalized energy at every core x uncore
frequency point?*  The historical pointwise path answered it one
rate-vector at a time — a Python loop assembling one feature row per
grid point, then one :meth:`~repro.modeling.network.EnergyNetwork.forward`
call per region/series/fold.  That loop is kept only as the test oracle
(``tests/oracles/models.py``).

This module answers it for *all* rate vectors at once:

* :func:`stack_grid_features` builds the ``(rows * grid, features)``
  input tensor with two strided copies (``repeat`` + ``tile``) instead
  of ``rows * grid`` Python-level ``np.concatenate`` calls;
* :func:`forward_batch` / :func:`backward_batch` run the whole stack
  through the 9-5-5-1 network in a handful of matmuls, reusing the
  exact per-layer operations of :class:`~repro.modeling.layers.Dense`
  and :class:`~repro.modeling.layers.ReLU`;
* :class:`BatchedModelEvaluator` wraps a trained model (network +
  scaler) and exposes grid-shaped prediction.

Numerical contract: evaluating a stacked matrix is **bit-identical** to
evaluating the same rows in any chunking with >= 2 rows per call — the
per-element dot products of a matmul do not depend on the number of
rows — so batched grid predictions, LOOCV MAPE values and static
configuration selections equal the pointwise oracle's to the last bit
(pinned by ``tests/modeling/test_batched_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.errors import ModelError
from repro.modeling.training import TrainedModel


# ---------------------------------------------------------------------------
# Grid assembly
# ---------------------------------------------------------------------------

def frequency_grid() -> tuple[tuple[tuple[float, float], ...], np.ndarray]:
    """The full CF x UCF grid, in the tuning layer's canonical order.

    Returns the points as tuples (for result labelling) and as a
    ``(grid, 2)`` float matrix (for feature assembly).  The order —
    core frequency outer, uncore inner — matches every historical
    pointwise loop, so argmin tie-breaking is identical.
    """
    points = tuple(
        (cf, ucf)
        for cf in config.CORE_FREQUENCIES_GHZ
        for ucf in config.UNCORE_FREQUENCIES_GHZ
    )
    return points, np.asarray(points, dtype=float)


def stack_grid_features(rates: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Stacked feature matrix for every (rate row, grid point) pair.

    ``rates`` is ``(rows, counters)`` (a single vector is promoted);
    the result is ``(rows * grid, counters + 2)`` with the grid varying
    fastest — row ``r * len(grid) + g`` is ``[rates[r], *grid[g]]``,
    exactly the row the pointwise loop builds with ``np.concatenate``.
    """
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    if rates.ndim != 2:
        raise ModelError(f"rates must be a vector or matrix, got {rates.shape}")
    grid = np.asarray(grid, dtype=float)
    rows, g = rates.shape[0], grid.shape[0]
    features = np.empty((rows * g, rates.shape[1] + grid.shape[1]))
    features[:, : rates.shape[1]] = np.repeat(rates, g, axis=0)
    features[:, rates.shape[1] :] = np.tile(grid, (rows, 1))
    return features


# ---------------------------------------------------------------------------
# Full-matrix forward / backward
# ---------------------------------------------------------------------------

def forward_batch(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """One forward pass of the whole stack through the MLP.

    ``weights`` is the flat ``[W1, b1, W2, b2, ...]`` list of
    :attr:`~repro.modeling.network.EnergyNetwork.parameters`; ReLU is
    applied between dense layers (not after the last), mirroring the
    layer stack of Figure 4 operation for operation.
    """
    if len(weights) < 2 or len(weights) % 2:
        raise ModelError(f"weights must be [W, b] pairs, got {len(weights)} arrays")
    out = np.asarray(x, dtype=float)
    n_dense = len(weights) // 2
    for i in range(n_dense):
        out = out @ weights[2 * i] + weights[2 * i + 1]
        if i != n_dense - 1:
            out = np.where(out > 0, out, 0.0)
    return out


def backward_batch(
    weights: list[np.ndarray], x: np.ndarray, grad_out: np.ndarray
) -> list[np.ndarray]:
    """Gradients of all parameters for the whole stack in one pass.

    Equivalent to running :meth:`EnergyNetwork.forward` then
    :meth:`EnergyNetwork.backward` on the same batch: the returned list
    is aligned with the ``[W1, b1, W2, b2, ...]`` parameter layout.
    """
    if len(weights) < 2 or len(weights) % 2:
        raise ModelError(f"weights must be [W, b] pairs, got {len(weights)} arrays")
    out = np.asarray(x, dtype=float)
    n_dense = len(weights) // 2
    inputs: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for i in range(n_dense):
        inputs.append(out)
        out = out @ weights[2 * i] + weights[2 * i + 1]
        if i != n_dense - 1:
            mask = out > 0
            masks.append(mask)
            out = np.where(mask, out, 0.0)
    grads: list[np.ndarray] = [np.empty(0)] * len(weights)
    grad = np.asarray(grad_out, dtype=float)
    for i in reversed(range(n_dense)):
        grads[2 * i] = inputs[i].T @ grad
        grads[2 * i + 1] = grad.sum(axis=0)
        if i > 0:
            grad = (grad @ weights[2 * i].T) * masks[i - 1]
    return grads


# ---------------------------------------------------------------------------
# Grid-shaped prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPrediction:
    """Predicted energies over the full frequency grid for many rows.

    ``energies[r, g]`` is the prediction for rate row ``r`` at grid
    point ``points[g]``; ``labels[r]`` names the row (a region, a
    ``(benchmark, threads)`` series, ...).
    """

    labels: tuple
    points: tuple[tuple[float, float], ...]
    energies: np.ndarray

    def __post_init__(self):
        if self.energies.shape != (len(self.labels), len(self.points)):
            raise ModelError(
                f"energies shape {self.energies.shape} inconsistent with "
                f"{len(self.labels)} labels x {len(self.points)} points"
            )

    def row(self, label) -> np.ndarray:
        """The prediction vector for one labelled row."""
        try:
            index = self.labels.index(label)
        except ValueError:
            raise ModelError(f"no grid row labelled {label!r}") from None
        return self.energies[index]

    def best_indices(self) -> np.ndarray:
        """Per-row argmin (first minimum, like the pointwise loops)."""
        return np.argmin(self.energies, axis=1)

    def best(self) -> dict:
        """Per label: ``(best (cf, ucf), predicted energy)``."""
        indices = self.best_indices()
        return {
            label: (self.points[int(i)], float(self.energies[r, int(i)]))
            for r, (label, i) in enumerate(zip(self.labels, indices))
        }

    def as_dict(self, label) -> dict[tuple[float, float], float]:
        """One row as the ``{(cf, ucf): energy}`` mapping the tuning
        plugin historically built point by point."""
        row = self.row(label)
        return {point: float(row[g]) for g, point in enumerate(self.points)}


class BatchedModelEvaluator:
    """Full-matrix prediction over a trained energy model.

    Holds references to the model's weight arrays and scaler, so a
    single evaluator can answer any number of grid queries without
    touching the layer objects (and without their per-call caches).
    """

    def __init__(self, model: TrainedModel):
        self._model = model
        self._weights = model.network.parameters
        self._scaler = model.scaler

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predictions as a flat vector, one per feature row."""
        x = self._scaler.transform(np.atleast_2d(np.asarray(features, dtype=float)))
        return forward_batch(self._weights, x)[:, 0]

    def predict_grid(self, rates: np.ndarray, labels=None) -> GridPrediction:
        """Predict the full frequency grid for every rate row at once."""
        rates = np.atleast_2d(np.asarray(rates, dtype=float))
        points, grid = frequency_grid()
        features = stack_grid_features(rates, grid)
        energies = self.predict(features).reshape(rates.shape[0], len(points))
        if labels is None:
            labels = tuple(range(rates.shape[0]))
        return GridPrediction(tuple(labels), points, energies)


def predict_energy_grid(
    model: TrainedModel,
    rates: np.ndarray,
    *,
    labels=None,
) -> GridPrediction:
    """Grid-shaped prediction for every rate row in a handful of matmuls."""
    return BatchedModelEvaluator(model).predict_grid(rates, labels=labels)
