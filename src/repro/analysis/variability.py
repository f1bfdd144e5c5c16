"""Node power variability study (Figures 2 and 3, Section IV-B).

Runs one benchmark on several compute nodes across a frequency sweep and
reports raw and normalized node energies.  The paper's observation:
absolute energies spread node-to-node (manufacturing variability), but
normalising each node's series by its own energy at the calibration
point collapses the spread — which is why the model predicts
*normalized* energy.

Every (node x operating point) cell of the sweep is a cell of a
``variability-core``/``variability-uncore``-labelled ``grid`` row job,
one batch per node, all measured in one run of the options' campaign
engine (so the sweep caches and resumes in an attached store).  The
result is bit-identical to a per-cell simulator loop (the equality is
pinned against the loop oracle in ``tests/analysis/test_analyses.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import api, config
from repro.campaign.plan import grid_cells, grid_jobs
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.workloads import registry


@dataclass
class VariabilityStudy:
    """Energy series per node across one frequency axis."""

    benchmark: str
    axis: str                      #: "core" or "uncore"
    frequencies: tuple[float, ...]
    raw_energy_j: dict[int, np.ndarray]        #: node id -> series
    normalized_energy: dict[int, np.ndarray]   #: node id -> series

    def _spread(self, series: dict[int, np.ndarray]) -> float:
        """Mean across the axis of the relative node-to-node spread."""
        matrix = np.vstack([series[n] for n in sorted(series)])
        return float(np.mean(matrix.std(axis=0) / matrix.mean(axis=0)))

    @property
    def raw_spread(self) -> float:
        return self._spread(self.raw_energy_j)

    @property
    def normalized_spread(self) -> float:
        return self._spread(self.normalized_energy)

    @property
    def spread_reduction(self) -> float:
        """Factor by which normalisation shrinks node-to-node spread."""
        return self.raw_spread / max(self.normalized_spread, 1e-12)


def variability_study(
    benchmark: str = "Lulesh",
    *,
    axis: str = "core",
    nodes: tuple[int, ...] = (0, 1, 2, 3),
    threads: int = config.DEFAULT_OPENMP_THREADS,
    cluster: Cluster | None = None,
    options: api.ExecutionOptions | None = None,
) -> VariabilityStudy:
    """Reproduce the Figure 2 (axis="core") / Figure 3 (axis="uncore") data.

    Scenario 1 of Section IV-B varies CF with UCF fixed at 1.5 GHz;
    scenario 2 varies UCF with CF fixed at 2.0 GHz.  Both axes pass
    through the calibration point each series is normalised by.
    The runs go to :func:`~repro.api.bind_cluster`'s cluster, by
    default a default-seed one just large enough for ``nodes``.
    """
    cal_cf = config.CALIBRATION_CORE_FREQ_GHZ
    cal_ucf = config.CALIBRATION_UNCORE_FREQ_GHZ
    if axis == "core":
        frequencies = config.CORE_FREQUENCIES_GHZ
        sweep = [OperatingPoint(cf, cal_ucf, threads) for cf in frequencies]
    elif axis == "uncore":
        frequencies = config.UNCORE_FREQUENCIES_GHZ
        sweep = [OperatingPoint(cal_cf, ucf, threads) for ucf in frequencies]
    else:
        raise ValueError(f"axis must be 'core' or 'uncore', got {axis!r}")
    if not nodes:
        raise ValueError("nodes must name at least one compute node")
    options, cluster = api.bind_cluster(options, cluster, nodes=max(nodes) + 1)
    for node_id in nodes:
        cluster.check_node_id(node_id)
    registry.check_name(benchmark)
    cal_index = sweep.index(OperatingPoint(cal_cf, cal_ucf, threads))
    batches = {
        node_id: grid_jobs(
            benchmark, label=f"variability-{axis}", points=sweep,
            node_id=node_id, seed=cluster.seed,
        )
        for node_id in nodes
    }
    results = options.run_jobs(
        [job for jobs in batches.values() for job in jobs], cluster
    )
    raw: dict[int, np.ndarray] = {}
    normalized: dict[int, np.ndarray] = {}
    for node_id, jobs in batches.items():
        energies = grid_cells(jobs, results, "node_energy_j")
        series = np.asarray([energies[point] for point in sweep])
        raw[node_id] = series
        normalized[node_id] = series / series[cal_index]
    return VariabilityStudy(
        benchmark=benchmark,
        axis=axis,
        frequencies=frequencies,
        raw_energy_j=raw,
        normalized_energy=normalized,
    )
