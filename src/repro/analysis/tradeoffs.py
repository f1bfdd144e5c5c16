"""Energy/performance trade-off analysis (Section V-D discussion).

Sweeps configurations and reports (time, energy) pairs so the
trade-off frontier can be examined: static tuning may buy energy at no
time cost for compute-bound codes, while aggressive core-frequency
reduction trades time for energy on memory-bound codes.

The configurations are fresh-node static runs: one campaign plan of
``tradeoff``-labelled ``grid`` row jobs, measured through the options'
engine (cached in its store when one is attached) and bit-identical to
the per-configuration loop kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import api
from repro.campaign.plan import grid_cells, grid_jobs
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.workloads import registry


@dataclass(frozen=True)
class TradeoffPoint:
    """One configuration's normalized (time, energy) outcome."""

    configuration: OperatingPoint
    relative_time: float    #: vs the platform default
    relative_energy: float  #: vs the platform default

    @property
    def pareto_key(self) -> tuple[float, float]:
        return (self.relative_time, self.relative_energy)


def energy_time_tradeoff(
    benchmark: str,
    configurations: list[OperatingPoint],
    *,
    cluster: Cluster | None = None,
    node_id: int = 0,
    options: api.ExecutionOptions | None = None,
) -> list[TradeoffPoint]:
    """Evaluate configurations relative to the platform default.

    The whole configuration set (plus the default point) is one engine
    run of grid-row jobs on :func:`~repro.api.bind_cluster`'s cluster.
    """
    options, cluster = api.bind_cluster(options, cluster)
    cluster.check_node_id(node_id)
    registry.check_name(benchmark)
    default_point = OperatingPoint()
    points = list(dict.fromkeys(configurations))
    if default_point not in points:
        points.insert(0, default_point)
    jobs = grid_jobs(
        benchmark, label="tradeoff", points=points, node_id=node_id,
        seed=cluster.seed,
    )
    results = options.run_jobs(jobs, cluster)
    times = grid_cells(jobs, results, "time_s")
    energies = grid_cells(jobs, results, "node_energy_j")
    t0, e0 = times[default_point], energies[default_point]
    return [
        TradeoffPoint(
            configuration=point,
            relative_time=times[point] / t0,
            relative_energy=energies[point] / e0,
        )
        for point in points
    ]


def pareto_front(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Non-dominated subset (minimal time and energy)."""
    front = []
    for p in points:
        dominated = any(
            q.relative_time <= p.relative_time
            and q.relative_energy <= p.relative_energy
            and q.pareto_key != p.pareto_key
            for q in points
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: p.relative_time)
