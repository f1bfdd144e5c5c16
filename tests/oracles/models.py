"""Pointwise references for the batched model-evaluation layer.

One feature row per grid point assembled in Python, one network
forward per rate vector, one fold trained and predicted at a time, one
OLS fit per counter candidate — the loops
:mod:`repro.modeling.batched` and the stacked selection scorer
replaced.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.errors import ModelError
from repro.execution.simulator import OperatingPoint
from repro.modeling.batched import GridPrediction, frequency_grid
from repro.modeling.dataset import EnergyDataset
from repro.modeling.metrics import mape
from repro.modeling.selection import (
    DEFAULT_MAX_COUNTERS,
    CounterSelection,
    _adjusted_r2,
    _standardise,
)
from repro.modeling.training import TrainedModel, TrainingConfig, train_network
from repro.modeling.vif import VIF_THRESHOLD, variance_inflation_factors
from repro.ptf.static_tuning import ModelStaticSelection


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
        per_row.append(model.predict(np.asarray(rows)))
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
        model = train_network(train.features, train.targets, config=config)
        results[bench] = mape(model.predict(test.features), test.targets)
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
