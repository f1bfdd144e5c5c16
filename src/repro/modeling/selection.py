"""Optimal PAPI counter selection (Table I; algorithm of Chadha et al. [24]).

Greedy forward stepwise regression: starting from the frequency
covariates (CF, UCF — always in the base model, since the dependent
variable is normalized energy across frequency sweeps), repeatedly add
the counter rate that most improves the adjusted R² of an OLS fit,
rejecting candidates that would push the selected counters' VIF above
the multicollinearity threshold.  Stops when no candidate improves
adjusted R² by more than ``tolerance`` or ``max_counters`` is reached.

Each round scores *every* candidate in one stacked normal-equations
solve — the grid-shaped evaluation the rest of the tuning layer uses,
an order of magnitude fewer Python-level linear solves for the
40-counter preset table than fitting one OLS system per candidate (the
historical loop, kept as the pointwise test oracle).

Equivalence caveat — unlike the network's grid predictions, which are
bit-identical to their pointwise oracle, the normal-equations scorer
differs from ``lstsq`` (SVD) in the last float bits (~1e-16 relative).
The *selected counters* agree whenever gains are separated from
``tolerance`` by more than that noise (pinned on real and synthetic
data by the equivalence tests); the reported ``adjusted_r2`` is equal
only to ``np.isclose`` precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.modeling.vif import VIF_THRESHOLD, variance_inflation_factors

#: Paper selects seven counters.
DEFAULT_MAX_COUNTERS = 7


@dataclass(frozen=True)
class CounterSelection:
    """Result of the selection algorithm."""

    counters: tuple[str, ...]
    vifs: tuple[float, ...]
    adjusted_r2: float

    @property
    def mean_vif(self) -> float:
        return float(np.mean(self.vifs))


def _adjusted_r2(x: np.ndarray, y: np.ndarray) -> float:
    n, k = x.shape
    if n <= k + 1:
        return -np.inf
    a = np.column_stack([x, np.ones(n)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return -np.inf
    r2 = 1.0 - ss_res / ss_tot
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)


def _standardise(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return (x - mean) / std


def _batched_adjusted_r2(
    base: np.ndarray, candidates: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Adjusted R² of ``[base, candidate, intercept]`` OLS fits for every
    candidate column in one stacked normal-equations solve.

    Falls back to the per-candidate ``lstsq`` loop when any system is
    singular (a candidate perfectly collinear with the base model).
    """
    n, b = base.shape
    k = b + 1  # regressors excluding the intercept
    n_cand = candidates.shape[1]
    if n <= k + 1:
        return np.full(n_cand, -np.inf)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return np.full(n_cand, -np.inf)
    xa = np.column_stack([base, np.ones(n)])  # (n, p) with p = b + 1
    p = xa.shape[1]
    gram = xa.T @ xa
    cross = xa.T @ candidates  # (p, n_cand)
    diag = np.einsum("nj,nj->j", candidates, candidates)
    xa_y = xa.T @ y
    cand_y = candidates.T @ y
    systems = np.empty((n_cand, p + 1, p + 1))
    systems[:, :p, :p] = gram
    systems[:, :p, p] = cross.T
    systems[:, p, :p] = cross.T
    systems[:, p, p] = diag
    rhs = np.empty((n_cand, p + 1))
    rhs[:, :p] = xa_y
    rhs[:, p] = cand_y
    try:
        beta = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return np.array(
            [
                _adjusted_r2(np.column_stack([base, candidates[:, j]]), y)
                for j in range(n_cand)
            ]
        )
    ss_res = float(y @ y) - np.einsum("jp,jp->j", beta, rhs)
    r2 = 1.0 - ss_res / ss_tot
    return 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)


def select_counters(
    counter_rates: np.ndarray,
    counter_names: list[str] | tuple[str, ...],
    frequencies: np.ndarray,
    targets: np.ndarray,
    *,
    max_counters: int = DEFAULT_MAX_COUNTERS,
    tolerance: float = 1e-4,
    vif_limit: float = VIF_THRESHOLD,
) -> CounterSelection:
    """Run the stepwise selection.

    Parameters
    ----------
    counter_rates:
        Candidate features, shape ``(n_samples, n_counters)``.
    counter_names:
        Names aligned with the columns of ``counter_rates``.
    frequencies:
        The always-included covariates (CF, UCF), shape ``(n_samples, 2)``.
    targets:
        Normalized energy, shape ``(n_samples,)``.

    Each round's surviving candidates are scored in one stacked solve;
    the selection equals fitting them one at a time (pinned against
    the pointwise oracle by the equivalence tests).
    """
    counter_rates = np.asarray(counter_rates, dtype=float)
    frequencies = np.asarray(frequencies, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if counter_rates.shape[1] != len(counter_names):
        raise ModelError("counter_names misaligned with counter_rates")
    if counter_rates.shape[0] != targets.shape[0]:
        raise ModelError("sample count mismatch")
    if max_counters <= 0:
        raise ModelError("max_counters must be positive")

    rates = _standardise(counter_rates)
    freqs = _standardise(frequencies)

    selected: list[int] = []
    current_r2 = _adjusted_r2(freqs, targets)
    while len(selected) < max_counters:
        # Multicollinearity guard: reject candidates that inflate VIF.
        eligible = []
        for j in range(rates.shape[1]):
            if j in selected:
                continue
            if len(selected) >= 1:
                vifs = variance_inflation_factors(rates[:, selected + [j]])
                if np.any(vifs > vif_limit):
                    continue
            eligible.append(j)
        if not eligible:
            break

        base = np.column_stack([freqs, rates[:, selected]])
        scores = _batched_adjusted_r2(base, rates[:, eligible], targets)

        best_gain, best_idx, best_r2 = tolerance, None, current_r2
        for j, r2 in zip(eligible, scores):
            gain = r2 - current_r2
            if gain > best_gain:
                best_gain, best_idx, best_r2 = gain, j, float(r2)
        if best_idx is None:
            break
        selected.append(best_idx)
        current_r2 = best_r2

    if not selected:
        raise ModelError("selection found no informative counters")
    chosen = rates[:, selected]
    vifs = (
        variance_inflation_factors(chosen)
        if len(selected) > 1
        else np.array([1.0])
    )
    return CounterSelection(
        counters=tuple(counter_names[i] for i in selected),
        vifs=tuple(float(v) for v in vifs),
        adjusted_r2=float(current_r2),
    )
