"""Pointwise references for the batched model-evaluation layer.

One feature row per grid point assembled in Python, one network
forward per rate vector, one network trained layer by layer (forward,
backward, MSE) with a per-array ADAM, one fold trained and predicted at
a time, one OLS fit per counter candidate — the loops
:mod:`repro.modeling.batched`, the lockstep trainer and the stacked
selection scorer replaced.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.errors import ModelError
from repro.execution.simulator import OperatingPoint
from repro.modeling.batched import GridPrediction, frequency_grid
from repro.modeling.dataset import EnergyDataset
from repro.modeling.layers import ReLU
from repro.modeling.metrics import mape
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.modeling.selection import (
    DEFAULT_MAX_COUNTERS,
    CounterSelection,
    _adjusted_r2,
    _standardise,
)
from repro.modeling.training import (
    LEARNING_RATE,
    TRAINING_SEED,
    TrainedModel,
    TrainingConfig,
)
from repro.modeling.vif import VIF_THRESHOLD, variance_inflation_factors
from repro.ptf.static_tuning import ModelStaticSelection
from repro.util.rng import rng_for


def _check(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ModelError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ModelError("empty prediction batch")
    return pred, target


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over the batch (Section IV-C's objective)."""
    pred, target = _check(pred, target)
    return float(np.mean((pred - target) ** 2))


def mse_gradient(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of the MSE w.r.t. the predictions."""
    pred, target = _check(pred, target)
    return 2.0 * (pred - target) / pred.size


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays
    [Kingma & Ba 2014], one array at a time.

    ``gradients`` may be bound once at construction when the gradient
    arrays have stable identity; :meth:`step` then needs no arguments.
    """

    def __init__(
        self,
        parameters: list[np.ndarray],
        *,
        gradients: list[np.ndarray] | None = None,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ModelError("learning rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ModelError("betas must lie in [0, 1)")
        if gradients is not None and len(gradients) != len(parameters):
            raise ModelError(
                f"expected {len(parameters)} gradients, got {len(gradients)}"
            )
        self._params = parameters
        self._gradients = gradients
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = [np.zeros_like(p) for p in parameters]
        self._v = [np.zeros_like(p) for p in parameters]
        self._t = 0

    def step(self, gradients: list[np.ndarray] | None = None) -> None:
        """Apply one update; gradients default to the bound buffers."""
        if gradients is None:
            gradients = self._gradients
            if gradients is None:
                raise ModelError("no gradients passed and none bound")
        elif len(gradients) != len(self._params):
            raise ModelError(
                f"expected {len(self._params)} gradients, got {len(gradients)}"
            )
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self._params, gradients, self._m, self._v):
            if g.shape != p.shape:
                raise ModelError(f"gradient shape {g.shape} != param {p.shape}")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def serial_forward(
    network: EnergyNetwork, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The network's forward, layer object by layer object (``x W + b``
    for a dense layer, ``where(x > 0, x, 0)`` for a ReLU); also returns
    every layer's input for :func:`serial_backward`."""
    inputs = []
    out = x
    for layer in network.layers:
        inputs.append(out)
        if isinstance(layer, ReLU):
            out = np.where(out > 0, out, 0.0)
        else:
            out = out @ layer.weights + layer.bias
    return out, inputs


def serial_backward(
    network: EnergyNetwork,
    inputs: list[np.ndarray],
    grad_out: np.ndarray,
    gradients: list[np.ndarray],
) -> None:
    """Dense/ReLU backward, layer by layer, into ``gradients`` (aligned
    with ``network.parameters``, written in place)."""
    grad = grad_out
    slot = len(gradients)
    for layer, x in zip(reversed(network.layers), reversed(inputs)):
        if isinstance(layer, ReLU):
            grad = grad * (x > 0)
            continue
        slot -= 2
        np.matmul(x.T, grad, out=gradients[slot])
        np.sum(grad, axis=0, out=gradients[slot + 1])
        grad = grad @ layer.weights.T


def serial_train_network(
    features: np.ndarray,
    targets: np.ndarray,
    *,
    config: TrainingConfig = TrainingConfig(),
) -> TrainedModel:
    """:func:`repro.modeling.training.train_network` as the original
    loop: standardise, then one row at a time through the layer
    objects and a per-array ADAM."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    scaler = StandardScaler()
    x = scaler.fit_transform(features)
    y = targets[:, None]
    net = EnergyNetwork(n_inputs=x.shape[1], seed=TRAINING_SEED)
    gradients = [np.zeros_like(p) for p in net.parameters]
    optimizer = Adam(net.parameters, gradients=gradients, learning_rate=LEARNING_RATE)
    rng = rng_for("training-shuffle", seed=TRAINING_SEED)
    n = x.shape[0]
    losses: list[float] = []
    for _epoch in range(config.epochs):
        epoch_loss = 0.0
        for row in rng.permutation(n):
            xb, yb = x[row : row + 1], y[row : row + 1]
            pred, inputs = serial_forward(net, xb)
            epoch_loss += mse(pred, yb)
            serial_backward(net, inputs, mse_gradient(pred, yb), gradients)
            optimizer.step()
        losses.append(epoch_loss / n)
    return TrainedModel(network=net, scaler=scaler, losses=losses)


def serial_predict(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """:meth:`~repro.modeling.training.TrainedModel.predict` through
    :func:`serial_forward`."""
    x = model.scaler.transform(np.atleast_2d(features))
    return serial_forward(model.network, x)[0][:, 0]


def pointwise_grid(
    model: TrainedModel, rates: np.ndarray, labels=None
) -> GridPrediction:
    """:func:`repro.modeling.batched.predict_energy_grid`, row by row."""
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    points, _ = frequency_grid()
    per_row = []
    for vec in rates:
        rows = []
        for cf in config.CORE_FREQUENCIES_GHZ:
            for ucf in config.UNCORE_FREQUENCIES_GHZ:
                rows.append(np.concatenate([vec, [cf, ucf]]))
        per_row.append(serial_predict(model, np.asarray(rows)))
    if labels is None:
        labels = tuple(range(rates.shape[0]))
    return GridPrediction(tuple(labels), points, np.asarray(per_row))


def pointwise_loocv_mape(
    dataset: EnergyDataset, *, config: TrainingConfig = TrainingConfig()
) -> dict[str, float]:
    """:func:`repro.modeling.crossval.network_loocv_mape`, serially:
    train one fold, predict through the layer stack, next fold."""
    results: dict[str, float] = {}
    for bench in dataset.benchmarks:
        train, test = dataset.split({bench})
        model = serial_train_network(train.features, train.targets, config=config)
        results[bench] = mape(serial_predict(model, test.features), test.targets)
    return results


def pointwise_select_counters(
    counter_rates: np.ndarray,
    counter_names,
    frequencies: np.ndarray,
    targets: np.ndarray,
    *,
    max_counters: int = DEFAULT_MAX_COUNTERS,
    tolerance: float = 1e-4,
    vif_limit: float = VIF_THRESHOLD,
) -> CounterSelection:
    """:func:`repro.modeling.selection.select_counters`, scoring each
    round's candidates with one OLS fit apiece."""
    rates = _standardise(np.asarray(counter_rates, dtype=float))
    freqs = _standardise(np.asarray(frequencies, dtype=float))
    targets = np.asarray(targets, dtype=float)
    selected: list[int] = []
    current_r2 = _adjusted_r2(freqs, targets)
    while len(selected) < max_counters:
        eligible = []
        for j in range(rates.shape[1]):
            if j in selected:
                continue
            if selected:
                vifs = variance_inflation_factors(rates[:, selected + [j]])
                if np.any(vifs > vif_limit):
                    continue
            eligible.append(j)
        best_gain, best_idx, best_r2 = tolerance, None, current_r2
        for j in eligible:
            r2 = _adjusted_r2(
                np.column_stack([freqs, rates[:, selected + [j]]]), targets
            )
            if r2 - current_r2 > best_gain:
                best_gain, best_idx, best_r2 = r2 - current_r2, j, float(r2)
        if best_idx is None:
            break
        selected.append(best_idx)
        current_r2 = best_r2
    if not selected:
        raise ModelError("selection found no informative counters")
    vifs = (
        variance_inflation_factors(rates[:, selected])
        if len(selected) > 1
        else np.array([1.0])
    )
    return CounterSelection(
        counters=tuple(counter_names[i] for i in selected),
        vifs=tuple(float(v) for v in vifs),
        adjusted_r2=float(current_r2),
    )


def pointwise_static_selections(
    model: TrainedModel, series_rates: dict[tuple[str, int], np.ndarray]
) -> dict[tuple[str, int], ModelStaticSelection]:
    """:func:`repro.ptf.static_tuning.select_static_configurations`
    over :func:`pointwise_grid`."""
    if not series_rates:
        return {}
    labels = tuple(series_rates)
    grid = pointwise_grid(
        model, np.asarray([series_rates[label] for label in labels]), labels
    )
    return {
        (name, threads): ModelStaticSelection(
            app_name=name,
            threads=threads,
            best=OperatingPoint(point[0], point[1], threads),
            predicted_energy=energy,
        )
        for (name, threads), (point, energy) in grid.best().items()
    }
