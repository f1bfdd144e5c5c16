"""Energy/performance trade-off analysis (Section V-D discussion).

Sweeps configurations and reports (time, energy) pairs so the
trade-off frontier can be examined: static tuning may buy energy at no
time cost for compute-bound codes, while aggressive core-frequency
reduction trades time for energy on memory-bound codes.

The configurations are fresh-node static runs, so they run as one
fleet-kernel pass (:func:`repro.execution.fleet_replay.fleet_run`),
bit-identical to the per-configuration loop kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import api, config
from repro.errors import CampaignError
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
    seed: int = config.DEFAULT_SEED,
    options: api.ExecutionOptions | None = None,
) -> list[TradeoffPoint]:
    """Evaluate configurations relative to the platform default.

    The whole configuration set (plus the default point) replays in
    one fleet-kernel pass.  ``cluster`` overrides the options' cluster.
    """
    from repro.execution.fleet_replay import FleetMember, fleet_run

    options = options if options is not None else api.ExecutionOptions()
    if cluster is not None:
        options = replace(options, cluster=cluster)
    if options.campaign is not None:
        raise CampaignError(
            "tradeoff sweeps run over arbitrary configuration lists, not "
            "grid rows; they are not campaign-backed — drop campaign"
        )
    cluster = options.resolve_cluster(seed)
    cluster.check_node_id(node_id)
    default_point = OperatingPoint()
    points = list(configurations)
    if default_point not in points:
        points.insert(0, default_point)
    app = registry.build(benchmark)
    fleet = fleet_run(
        FleetMember(
            app=app,
            run_key=("tradeoff", str(point)),
            node_id=node_id,
            seed=seed,
            node_seed=cluster.seed,
            topology=cluster.topology,
            point=point,
        )
        for point in points
    )
    outcomes = {
        point: (run.time_s, run.node_energy_j)
        for point, run in zip(points, fleet.results)
    }
    t0, e0 = outcomes[default_point]
    return [
        TradeoffPoint(
            configuration=point,
            relative_time=t / t0,
            relative_energy=e / e0,
        )
        for point, (t, e) in outcomes.items()
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
