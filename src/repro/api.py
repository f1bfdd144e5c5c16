"""The public tuning API — one typed facade over the whole pipeline.

Every consumer that used to reach into :mod:`repro.analysis`,
:mod:`repro.ptf` or :mod:`repro.execution` directly goes through this
module instead:

:class:`ExecutionOptions`
    The one normalized description of *how* to execute: whether a
    :class:`~repro.campaign.engine.CampaignEngine` (fleet shards +
    content-addressed result store) backs the runs, which simulated
    cluster they run on, and what a definitive job failure does.

:class:`TuningRequest` / :func:`tune`
    The paper's end product as a callable: "for (benchmark, threads,
    objective, TMM), which CF x UCF configuration should run?".  The
    grid is measured in one pass through the fleet kernel
    (:mod:`repro.execution.fleet_replay`) and the objective argmin is
    evaluated vectorised; an optional serialised tuning model (TMM)
    adds a dynamic-tuning (RRL) outcome priced through the
    controlled-replay kernels.

:func:`sweep_grid`
    The shared grid-measurement primitive: the full (or thinned)
    CF x UCF grid for one (benchmark, threads) as a rectangular
    :class:`GridMeasurement` — bit-identical per cell to a fresh-node
    per-configuration loop, and the unit the serving layer
    (:mod:`repro.serve`) coalesces concurrent requests onto.

:func:`replay` / :func:`savings`
    One-configuration execution and the Table VI static/dynamic
    comparison, with the same options object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import config
from repro.errors import CampaignError, TuningError
from repro.execution.simulator import OperatingPoint
from repro.ptf.objectives import OBJECTIVES, Objective, get_objective
from repro.util.validation import frequency_index
from repro.workloads import registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.engine import CampaignEngine
    from repro.hardware.cluster import Cluster

__all__ = [
    "ExecutionOptions",
    "GridMeasurement",
    "GridSpec",
    "DynamicOutcome",
    "TuningAnswer",
    "TuningRequest",
    "RunTriple",
    "grid_axes",
    "sweep_grid",
    "sweep_grids",
    "tune",
    "replay",
    "savings",
]

#: Definitive-failure policies (mirrors
#: :data:`repro.campaign.resilience.ON_FAILURE_POLICIES`).
ON_FAILURE: tuple[str, ...] = ("raise", "quarantine", "skip")


@dataclass(frozen=True)
class ExecutionOptions:
    """How (not what) to execute — the one normalized options object.

    ``campaign`` attaches a campaign engine + content-addressed result
    store so measurements cache and batch; ``cluster`` supplies
    the simulated hardware (one is built from the seed when omitted).
    Campaign-backed and in-process runs are bit-identical — these
    options trade speed and caching, never results.
    """

    campaign: "CampaignEngine | None" = None
    cluster: "Cluster | None" = None
    #: Campaign-backed runs only: what a definitive job failure does
    #: (``raise``/``quarantine``/``skip``) and whether jobs quarantined
    #: by an earlier run are re-attempted.
    on_failure: str = "raise"
    retry_failed: bool = False

    def __post_init__(self):
        if self.on_failure not in ON_FAILURE:
            raise CampaignError(
                f"unknown on_failure policy: {self.on_failure!r}; "
                f"known: {ON_FAILURE}"
            )

    # ------------------------------------------------------------------
    def resolve_cluster(self, seed: int = config.DEFAULT_SEED) -> "Cluster":
        """The cluster to simulate on (an explicit one wins)."""
        from repro.hardware.cluster import Cluster

        if self.cluster is not None:
            return self.cluster
        return Cluster(2, seed=seed)


# ---------------------------------------------------------------------------
# Requests and answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuningRequest:
    """One tuning question: which CF x UCF configuration should run?

    ``threads`` of ``None`` resolves to the application default;
    ``objective`` names a registered scalarisation (lower is better);
    ``tmm`` optionally carries a serialised
    :class:`~repro.readex.tuning_model.TuningModel` whose
    dynamic-tuning outcome is priced alongside the static answer;
    ``stride`` thins both frequency axes (the platform-default
    frequencies are always kept, so savings stay well-defined).
    ``node_id`` and ``seed`` pin the simulated hardware instance and
    noise streams — they are part of the question's identity, which is
    what makes answers content-addressable and coalescible.
    """

    benchmark: str
    threads: int | None = None
    objective: str = "energy"
    tmm: str | None = None
    stride: int = 1
    node_id: int = 0
    seed: int = config.DEFAULT_SEED

    def validate(self) -> None:
        if self.benchmark not in registry.benchmark_names():
            raise TuningError(
                f"unknown benchmark {self.benchmark!r}; "
                f"known: {list(registry.benchmark_names())}"
            )
        if self.threads is not None and (
            not isinstance(self.threads, int) or self.threads < 1
        ):
            raise TuningError(
                f"threads must be a positive integer, got {self.threads!r}"
            )
        if self.objective not in OBJECTIVES:
            raise TuningError(
                f"unknown objective {self.objective!r}; "
                f"known: {sorted(OBJECTIVES)}"
            )
        if not isinstance(self.stride, int) or self.stride < 1:
            raise TuningError(
                f"stride must be a positive integer, got {self.stride!r}"
            )

    def resolved(self) -> "TuningRequest":
        """Validated copy with ``threads`` filled from the registry."""
        self.validate()
        if self.threads is not None:
            return self
        return replace(
            self, threads=registry.build(self.benchmark).default_threads
        )

    def grid_key(self) -> tuple:
        """The coalescing key: requests sharing it share one sweep.

        Objectives and TMMs are deliberately absent — they are evaluated
        *from* the measured grid, so any mix of them on the same
        (benchmark, threads, node, seed, stride) costs one sweep.
        """
        return (
            "grid",
            self.benchmark,
            self.threads,
            self.stride,
            self.node_id,
            self.seed,
        )

    def grid_spec(self) -> "GridSpec":
        """The measurement this request needs, as a :class:`GridSpec`."""
        return GridSpec(
            benchmark=self.benchmark,
            threads=self.threads,
            stride=self.stride,
            node_id=self.node_id,
            seed=self.seed,
        )


@dataclass(frozen=True)
class RunTriple:
    """The measured outcome of one run (the campaign payload triple)."""

    node_energy_j: float
    cpu_energy_j: float
    time_s: float


@dataclass(frozen=True)
class DynamicOutcome:
    """One RRL-controlled run under a tuning model (TMM)."""

    node_energy_j: float
    cpu_energy_j: float
    time_s: float
    switching_time_s: float
    instrumentation_time_s: float

    def payload(self) -> dict[str, Any]:
        return {
            "node_energy_j": self.node_energy_j,
            "cpu_energy_j": self.cpu_energy_j,
            "time_s": self.time_s,
            "switching_time_s": self.switching_time_s,
            "instrumentation_time_s": self.instrumentation_time_s,
        }


@dataclass(frozen=True)
class GridMeasurement:
    """A rectangular CF x UCF measurement at one thread count.

    Arrays are shaped ``(len(core_frequencies), len(uncore_frequencies))``
    and every cell is bit-identical to a fresh-node
    :meth:`~repro.execution.simulator.ExecutionSimulator.run` at that
    configuration with the canonical ``("heatmap", cf, ucf)`` noise key
    — independent of how (sweep, fleet, campaign rows) or with which
    batch-mates the grid was measured.
    """

    benchmark: str
    threads: int
    node_id: int
    seed: int
    core_frequencies: tuple[float, ...]
    uncore_frequencies: tuple[float, ...]
    node_energy_j: np.ndarray
    cpu_energy_j: np.ndarray
    time_s: np.ndarray

    @property
    def cells(self) -> int:
        return int(self.node_energy_j.size)

    def answer(self, request: TuningRequest) -> "TuningAnswer":
        """Evaluate one request's objective over this grid.

        Vectorised argmin in row-major (CF-major) order — the first
        minimum matches the historical nested per-cell loop.  The
        platform-default cell is the savings baseline.
        """
        objective: Objective = get_objective(request.objective)
        values = objective.batch(
            self.node_energy_j.ravel(), self.time_s.ravel()
        )
        flat = int(np.argmin(values))
        i, j = np.unravel_index(flat, self.node_energy_j.shape)
        di = frequency_index(
            self.core_frequencies,
            config.DEFAULT_CORE_FREQ_GHZ,
            axis="core-frequency",
        )
        dj = frequency_index(
            self.uncore_frequencies,
            config.DEFAULT_UNCORE_FREQ_GHZ,
            axis="uncore-frequency",
        )
        return TuningAnswer(
            benchmark=self.benchmark,
            threads=self.threads,
            objective=request.objective,
            best=OperatingPoint(
                self.core_frequencies[i],
                self.uncore_frequencies[j],
                self.threads,
            ),
            best_energy_j=float(self.node_energy_j[i, j]),
            best_time_s=float(self.time_s[i, j]),
            best_objective=float(values[flat]),
            default_energy_j=float(self.node_energy_j[di, dj]),
            default_time_s=float(self.time_s[di, dj]),
            cells=self.cells,
        )


@dataclass(frozen=True)
class TuningAnswer:
    """What :func:`tune` returns (and what the serving layer ships)."""

    benchmark: str
    threads: int
    objective: str
    best: OperatingPoint
    best_energy_j: float
    best_time_s: float
    best_objective: float
    default_energy_j: float
    default_time_s: float
    cells: int
    dynamic: DynamicOutcome | None = None

    @property
    def energy_saving(self) -> float:
        """Fractional node-energy saving of the best static cell vs the
        platform default."""
        return 1.0 - self.best_energy_j / self.default_energy_j

    def payload(self) -> dict[str, Any]:
        """JSON-able form; floats survive a JSON round-trip bit-exactly
        (``repr`` shortest round-trip), so payload equality is result
        equality."""
        return {
            "benchmark": self.benchmark,
            "threads": self.threads,
            "objective": self.objective,
            "best": [
                self.best.core_freq_ghz,
                self.best.uncore_freq_ghz,
                self.best.threads,
            ],
            "best_energy_j": self.best_energy_j,
            "best_time_s": self.best_time_s,
            "best_objective": self.best_objective,
            "default_energy_j": self.default_energy_j,
            "default_time_s": self.default_time_s,
            "energy_saving": self.energy_saving,
            "cells": self.cells,
            "dynamic": None if self.dynamic is None else self.dynamic.payload(),
        }


# ---------------------------------------------------------------------------
# Grid measurement (the shared primitive)
# ---------------------------------------------------------------------------

def _thin_axis(
    axis: tuple[float, ...], stride: int, keep: float
) -> tuple[float, ...]:
    thinned = set(axis[::stride])
    thinned.add(keep)
    return tuple(sorted(thinned))


def grid_axes(stride: int = 1) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The (CF, UCF) axes at a given thinning stride, ascending.

    The platform-default frequencies are always present so the savings
    baseline is part of every grid (mirroring
    :func:`repro.campaign.plan.static_operating_points`).
    """
    if stride < 1:
        raise TuningError("stride must be >= 1")
    return (
        _thin_axis(
            config.CORE_FREQUENCIES_GHZ, stride, config.DEFAULT_CORE_FREQ_GHZ
        ),
        _thin_axis(
            config.UNCORE_FREQUENCIES_GHZ,
            stride,
            config.DEFAULT_UNCORE_FREQ_GHZ,
        ),
    )


def sweep_grid(
    benchmark: str,
    *,
    threads: int | None = None,
    stride: int = 1,
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
    options: ExecutionOptions | None = None,
) -> GridMeasurement:
    """Measure the CF x UCF grid for one benchmark at one thread count.

    :func:`sweep_grids` of this one spec: every cell is a member of one
    fleet-kernel pass, or ``options.campaign`` executes the grid as
    cacheable per-row campaign jobs.  Cells carry the canonical
    ``("heatmap", cf, ucf)`` noise keys, so the measurement equals the
    Figures 6/7 heatmap cells and any solo run at the same coordinates.
    """
    spec = GridSpec(benchmark, threads, stride, node_id, seed)
    return sweep_grids([spec], options=options)[0]


@dataclass(frozen=True)
class GridSpec:
    """One grid measurement's identity — :func:`sweep_grid`'s arguments
    as a value, so many grids can be requested at once."""

    benchmark: str
    threads: int | None = None
    stride: int = 1
    node_id: int = 0
    seed: int = config.DEFAULT_SEED


def sweep_grids(
    specs: "list[GridSpec] | tuple[GridSpec, ...]",
    *,
    options: ExecutionOptions | None = None,
) -> list[GridMeasurement]:
    """Measure many CF x UCF grids — across benchmarks, thread counts,
    nodes and seeds — in one batched pass.

    Every cell of every grid becomes one member of a single fleet-kernel
    invocation (:func:`repro.execution.fleet_replay.fleet_run`), so the
    structural schedules compile once per application, the cells of one
    grid flatten as one block, the keyed noise for the whole fleet is
    drawn in one batched pass, and pricing is a handful of padded-matrix
    folds.  Each returned grid is bit-identical to ``sweep_grid`` of its
    spec measured alone — batch-mates never change a cell.

    With ``options.campaign``, all grids go into one campaign plan
    (which the engine prices in fleet-kernel shards) — rows cache
    under their usual per-job store keys.
    """
    options = options if options is not None else ExecutionOptions()
    specs = list(specs)
    if not specs:
        return []

    resolved = []
    for s in specs:
        app = registry.build(s.benchmark)
        threads = s.threads if s.threads is not None else app.default_threads
        cfs, ucfs = grid_axes(s.stride)
        cluster = options.resolve_cluster(s.seed)
        cluster.check_node_id(s.node_id)
        points = [
            OperatingPoint(cf, ucf, threads) for cf in cfs for ucf in ucfs
        ]
        resolved.append((s, app, threads, cfs, ucfs, cluster, points))

    if options.campaign is not None:
        from repro.campaign.plan import CampaignPlan, grid_jobs

        all_jobs: list = []
        spec_jobs: list[tuple] = []
        for s, app, threads, cfs, ucfs, cluster, points in resolved:
            if options.campaign.topology != cluster.topology:
                raise CampaignError(
                    f"campaign engine topology "
                    f"{options.campaign.topology!r} does not match the "
                    f"cluster's {cluster.topology!r}"
                )
            jobs = grid_jobs(
                s.benchmark,
                label="heatmap",
                points=points,
                node_id=s.node_id,
                seed=s.seed,
                node_seed=cluster.seed,
            )
            spec_jobs.append(jobs)
            all_jobs.extend(jobs)
        results = options.campaign.run(
            CampaignPlan(tuple(all_jobs)),
            on_failure=options.on_failure,
            retry_failed=options.retry_failed,
        )
        grids = []
        for (s, app, threads, cfs, ucfs, cluster, points), jobs in zip(
            resolved, spec_jobs
        ):
            payloads = [results[job] for job in jobs]
            shape = (len(cfs), len(ucfs))
            grids.append(
                GridMeasurement(
                    benchmark=s.benchmark,
                    threads=threads,
                    node_id=s.node_id,
                    seed=s.seed,
                    core_frequencies=cfs,
                    uncore_frequencies=ucfs,
                    node_energy_j=np.array(
                        [e for p in payloads for e in p["node_energy_j"]]
                    ).reshape(shape),
                    cpu_energy_j=np.array(
                        [e for p in payloads for e in p["cpu_energy_j"]]
                    ).reshape(shape),
                    time_s=np.array(
                        [t for p in payloads for t in p["time_s"]]
                    ).reshape(shape),
                )
            )
        return grids

    from repro.execution.fleet_replay import FleetMember, fleet_run

    members: list[FleetMember] = []
    spans: list[tuple[int, int]] = []
    for s, app, threads, cfs, ucfs, cluster, points in resolved:
        start = len(members)
        for point in points:
            members.append(
                FleetMember(
                    app=app,
                    run_key=(
                        "heatmap", point.core_freq_ghz, point.uncore_freq_ghz
                    ),
                    node_id=s.node_id,
                    seed=s.seed,
                    node_seed=cluster.seed,
                    topology=cluster.topology,
                    point=point,
                )
            )
        spans.append((start, len(points)))
    fleet = fleet_run(members)
    grids = []
    for (s, app, threads, cfs, ucfs, cluster, points), (start, count) in zip(
        resolved, spans
    ):
        rows = fleet.results[start:start + count]
        shape = (len(cfs), len(ucfs))
        grids.append(
            GridMeasurement(
                benchmark=s.benchmark,
                threads=threads,
                node_id=s.node_id,
                seed=s.seed,
                core_frequencies=cfs,
                uncore_frequencies=ucfs,
                node_energy_j=np.array(
                    [r.node_energy_j for r in rows]
                ).reshape(shape),
                cpu_energy_j=np.array(
                    [r.cpu_energy_j for r in rows]
                ).reshape(shape),
                time_s=np.array([r.time_s for r in rows]).reshape(shape),
            )
        )
    return grids


# ---------------------------------------------------------------------------
# The facade verbs
# ---------------------------------------------------------------------------

def _dynamic_outcome(
    request: TuningRequest, options: ExecutionOptions
) -> DynamicOutcome:
    """Price one RRL-controlled run of the request's TMM (cacheable)."""
    from repro.campaign.engine import run_app_jobs
    from repro.campaign.plan import savings_jobs
    from repro.readex.tuning_model import TuningModel

    tmm = TuningModel.from_json(request.tmm)
    cluster = options.resolve_cluster(request.seed)
    jobs = savings_jobs(
        request.benchmark,
        label="dynamic",
        runs=1,
        threads=config.DEFAULT_OPENMP_THREADS,
        controller="rrl",
        tuning_model=tmm.to_json(),
        instrumented=True,
        node_id=request.node_id,
        seed=request.seed,
        node_seed=cluster.seed,
    )
    results = run_app_jobs(
        jobs,
        registry.build(request.benchmark),
        cluster=cluster,
        engine=options.campaign,
        on_failure=options.on_failure,
        retry_failed=options.retry_failed,
    )
    payload = results[jobs[0]]
    return DynamicOutcome(
        node_energy_j=payload["node_energy_j"],
        cpu_energy_j=payload["cpu_energy_j"],
        time_s=payload["time_s"],
        switching_time_s=payload["switching_time_s"],
        instrumentation_time_s=payload["instrumentation_time_s"],
    )


def tune(
    request: TuningRequest, options: ExecutionOptions | None = None
) -> TuningAnswer:
    """Answer one tuning request from a full grid measurement.

    This is the offline reference the serving layer is bit-identical
    to: the grid comes from :func:`sweep_grid` (cached/coalesced or
    not, the cells agree to the bit) and the objective argmin is a
    deterministic fold over it.
    """
    options = options if options is not None else ExecutionOptions()
    request = request.resolved()
    grid = sweep_grid(
        request.benchmark,
        threads=request.threads,
        stride=request.stride,
        node_id=request.node_id,
        seed=request.seed,
        options=options,
    )
    answer = grid.answer(request)
    if request.tmm is not None:
        answer = replace(answer, dynamic=_dynamic_outcome(request, options))
    return answer


def replay(
    benchmark: str,
    point: OperatingPoint | None = None,
    *,
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
    options: ExecutionOptions | None = None,
) -> RunTriple:
    """Execute one configuration and return its measured triple.

    The run carries the canonical ``("static", cf, ucf, threads)``
    noise key, so it is bit-identical to (and cache-compatible with)
    the exhaustive static search's per-cell jobs.
    """
    options = options if options is not None else ExecutionOptions()
    point = point if point is not None else OperatingPoint()
    cluster = options.resolve_cluster(seed)
    cluster.check_node_id(node_id)
    app = registry.build(benchmark)
    if options.campaign is not None:
        from repro.campaign.engine import run_app_jobs
        from repro.campaign.plan import static_jobs

        jobs = static_jobs(
            benchmark,
            points=[point],
            node_id=node_id,
            seed=seed,
            node_seed=cluster.seed,
        )
        payload = run_app_jobs(
            jobs,
            app,
            cluster=cluster,
            engine=options.campaign,
            on_failure=options.on_failure,
            retry_failed=options.retry_failed,
        )[jobs[0]]
        return RunTriple(
            node_energy_j=payload["node_energy_j"],
            cpu_energy_j=payload["cpu_energy_j"],
            time_s=payload["time_s"],
        )
    from repro.execution.simulator import ExecutionSimulator

    node = cluster.fresh_node(node_id)
    node.set_frequencies(point.core_freq_ghz, point.uncore_freq_ghz)
    run = ExecutionSimulator(node, seed=seed).run(
        app,
        threads=point.threads,
        run_key=(
            "static", point.core_freq_ghz, point.uncore_freq_ghz, point.threads
        ),
    )
    return RunTriple(
        node_energy_j=run.node_energy_j,
        cpu_energy_j=run.cpu_energy_j,
        time_s=run.time_s,
    )


def savings(
    benchmark: str,
    static_config: OperatingPoint,
    tuning_model,
    *,
    instrumentation=None,
    runs: int = 5,
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
    options: ExecutionOptions | None = None,
):
    """The Table VI static/dynamic comparison through the facade.

    Returns a :class:`repro.analysis.savings.BenchmarkSavings`.
    """
    from repro.analysis.savings import compare_static_dynamic

    options = options if options is not None else ExecutionOptions()
    return compare_static_dynamic(
        benchmark,
        static_config,
        tuning_model,
        instrumentation=instrumentation,
        cluster=options.cluster,
        node_id=node_id,
        runs=runs,
        seed=seed,
        options=options,
    )
