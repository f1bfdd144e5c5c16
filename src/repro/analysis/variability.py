"""Node power variability study (Figures 2 and 3, Section IV-B).

Runs one benchmark on several compute nodes across a frequency sweep and
reports raw and normalized node energies.  The paper's observation:
absolute energies spread node-to-node (manufacturing variability), but
normalising each node's series by its own energy at the calibration
point collapses the spread — which is why the model predicts
*normalized* energy.

The study is a natural fleet: the same application at many
(node x operating point) coordinates.  Every cell of the sweep — all
nodes, all frequencies, plus each node's calibration run — executes as
one pass through the fleet replay kernel
(:mod:`repro.execution.fleet_replay`), bit-identical to a per-cell
simulator loop (the equality is pinned against the loop oracle in
``tests/analysis/test_analyses.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
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
    seed: int = config.DEFAULT_SEED,
) -> VariabilityStudy:
    """Reproduce the Figure 2 (axis="core") / Figure 3 (axis="uncore") data.

    Scenario 1 of Section IV-B varies CF with UCF fixed at 1.5 GHz;
    scenario 2 varies UCF with CF fixed at 2.0 GHz.
    """
    if axis == "core":
        frequencies = config.CORE_FREQUENCIES_GHZ
        points = [(cf, config.CALIBRATION_UNCORE_FREQ_GHZ) for cf in frequencies]
    elif axis == "uncore":
        frequencies = config.UNCORE_FREQUENCIES_GHZ
        points = [(config.CALIBRATION_CORE_FREQ_GHZ, ucf) for ucf in frequencies]
    else:
        raise ValueError(f"axis must be 'core' or 'uncore', got {axis!r}")
    cluster = cluster or Cluster(max(nodes) + 1, seed=seed)
    cal_point = (
        config.CALIBRATION_CORE_FREQ_GHZ,
        config.CALIBRATION_UNCORE_FREQ_GHZ,
    )
    energies = _fleet_energies(
        registry.build(benchmark), points, cal_point, nodes, threads,
        cluster, seed, axis,
    )
    raw: dict[int, np.ndarray] = {}
    normalized: dict[int, np.ndarray] = {}
    for node_id in nodes:
        series, cal_energy = energies[node_id]
        raw[node_id] = np.asarray(series)
        normalized[node_id] = np.asarray(series) / cal_energy
    return VariabilityStudy(
        benchmark=benchmark,
        axis=axis,
        frequencies=frequencies,
        raw_energy_j=raw,
        normalized_energy=normalized,
    )


def _fleet_energies(app, points, cal_point, nodes, threads, cluster, seed,
                    axis):
    """Every (node, point) cell — and each node's calibration run when
    the axis misses the calibration point — as members of one fleet."""
    from repro.execution.fleet_replay import FleetMember, fleet_run

    needs_cal = cal_point not in points

    def member(node_id, cf, ucf, run_key):
        return FleetMember(
            app=app,
            run_key=run_key,
            node_id=node_id,
            seed=seed,
            node_seed=cluster.seed,
            topology=cluster.topology,
            point=OperatingPoint(cf, ucf, threads),
            threads=threads,
        )

    members = []
    for node_id in nodes:
        for cf, ucf in points:
            members.append(
                member(node_id, cf, ucf, ("variability", axis, cf, ucf))
            )
        if needs_cal:
            members.append(member(node_id, *cal_point, ("variability-cal",)))
    fleet = fleet_run(members)
    stride = len(points) + (1 if needs_cal else 0)
    energies = {}
    for i, node_id in enumerate(nodes):
        rows = fleet.results[i * stride:(i + 1) * stride]
        series = [r.node_energy_j for r in rows[:len(points)]]
        cal_energy = (
            rows[-1].node_energy_j
            if needs_cal
            else series[points.index(cal_point)]
        )
        energies[node_id] = (series, cal_energy)
    return energies
