"""Energy/performance trade-off analysis (Section V-D discussion).

Sweeps configurations and reports (time, energy) pairs so the
trade-off frontier can be examined: static tuning may buy energy at no
time cost for compute-bound codes, while aggressive core-frequency
reduction trades time for energy on memory-bound codes.

The configuration sweep is a static grid, so it runs in one pass
through the simulator's sweep-replay engine
(:mod:`repro.execution.sweep_replay`), bit-identical to the
per-configuration loop kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import api, config
from repro.errors import CampaignError
from repro.execution.simulator import OperatingPoint
from repro.execution.sweep_replay import sweep_run
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
    one sweep-engine pass.  ``cluster`` overrides the options' cluster.
    """
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
    sweep = sweep_run(
        registry.build(benchmark),
        points,
        run_keys=[("tradeoff", str(p)) for p in points],
        node_id=node_id,
        seed=seed,
        node_seed=cluster.seed,
        topology=cluster.topology,
    )
    outcomes = {
        point: (run.time_s, run.node_energy_j)
        for point, run in zip(points, sweep.results)
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
