"""Normalized-energy heatmaps over the CF x UCF grid (Figures 6 and 7).

The figures show, for one benchmark at its optimal thread count, the
measured normalized node energy of every frequency combination, with the
true optimum, the plugin-selected configuration and the set of
configurations within 2% of the optimum highlighted.

Measuring the 14 x 18 grid is the textbook workload of the simulator's
**sweep-replay engine** (:mod:`repro.execution.sweep_replay`): all 252
configurations replay in one pass, bit-identical to building a fresh
node and running one configuration at a time (the per-cell reference
lives in ``tests/oracles/grids.py``).  Attaching a
:class:`~repro.campaign.engine.CampaignEngine` through
:class:`repro.api.ExecutionOptions` routes the sweep through
``grid``-mode campaign jobs instead, making grid rows cacheable,
parallelisable units in the result store.

The measurement itself lives in :func:`repro.api.sweep_grid`; this
module adds the figures' normalization and plateau analysis on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import api, config
from repro.hardware.cluster import Cluster
from repro.util.validation import frequency_index

#: The paper highlights configurations within 2% of the minimum in pink.
PLATEAU_THRESHOLD = 0.02


@dataclass
class EnergyHeatmap:
    """Measured normalized energies on the full frequency grid."""

    benchmark: str
    threads: int
    core_frequencies: tuple[float, ...]
    uncore_frequencies: tuple[float, ...]
    normalized: np.ndarray  #: shape (len(cfs), len(ucfs))
    selected: tuple[float, float] | None = None  #: plugin's pick (yellow)

    @classmethod
    def from_grid(
        cls,
        grid: api.GridMeasurement,
        selected: tuple[float, float] | None = None,
    ) -> "EnergyHeatmap":
        """Normalize a measured grid by its calibration-point cell."""
        cal = grid.node_energy_j[
            frequency_index(
                grid.core_frequencies,
                config.CALIBRATION_CORE_FREQ_GHZ,
                axis="core-frequency",
            ),
            frequency_index(
                grid.uncore_frequencies,
                config.CALIBRATION_UNCORE_FREQ_GHZ,
                axis="uncore-frequency",
            ),
        ]
        return cls(
            benchmark=grid.benchmark,
            threads=grid.threads,
            core_frequencies=grid.core_frequencies,
            uncore_frequencies=grid.uncore_frequencies,
            normalized=grid.node_energy_j / cal,
            selected=selected,
        )

    @property
    def best(self) -> tuple[float, float]:
        """True optimum (red in the figures)."""
        i, j = np.unravel_index(int(np.argmin(self.normalized)), self.normalized.shape)
        return (self.core_frequencies[i], self.uncore_frequencies[j])

    @property
    def best_value(self) -> float:
        return float(self.normalized.min())

    def value_at(self, cf: float, ucf: float) -> float:
        i = frequency_index(self.core_frequencies, cf, axis="core-frequency")
        j = frequency_index(self.uncore_frequencies, ucf, axis="uncore-frequency")
        return float(self.normalized[i, j])

    def plateau(self, threshold: float = PLATEAU_THRESHOLD) -> list[tuple[float, float]]:
        """Configurations within ``threshold`` of the optimum (pink)."""
        limit = self.best_value * (1.0 + threshold)
        # np.nonzero scans in row-major order, preserving the
        # (CF-major, UCF-minor) order of the historical nested loop.
        rows, cols = np.nonzero(self.normalized <= limit)
        return [
            (self.core_frequencies[i], self.uncore_frequencies[j])
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    def selected_within_plateau(self, threshold: float = PLATEAU_THRESHOLD) -> bool:
        """Whether the plugin's pick lands in the near-optimal plateau."""
        if self.selected is None:
            return False
        return self.selected in set(self.plateau(threshold))


def energy_heatmap(
    benchmark: str,
    *,
    threads: int,
    cluster: Cluster | None = None,
    node_id: int = 0,
    selected: tuple[float, float] | None = None,
    seed: int = config.DEFAULT_SEED,
    options: api.ExecutionOptions | None = None,
) -> EnergyHeatmap:
    """Measure the full grid for one benchmark at a fixed thread count.

    ``options`` may attach a campaign engine to execute the grid as
    per-row jobs with store caching and worker parallelism; ``cluster``
    overrides the options' cluster.
    """
    options = options if options is not None else api.ExecutionOptions()
    if cluster is not None:
        options = replace(options, cluster=cluster)
    grid = api.sweep_grid(
        benchmark, threads=threads, node_id=node_id, seed=seed, options=options
    )
    return EnergyHeatmap.from_grid(grid, selected)
