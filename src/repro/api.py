"""The public tuning API — one typed facade over the whole pipeline.

Every consumer that used to reach into :mod:`repro.analysis`,
:mod:`repro.ptf` or :mod:`repro.execution` directly goes through this
module instead:

:class:`ExecutionOptions`
    The one normalized description of *how* to execute: which
    :class:`~repro.campaign.engine.CampaignEngine` (and so which
    content-addressed result store, if any) prices the runs, which
    simulated cluster they run on, and what a definitive job failure
    does.

:class:`TuningRequest` / :func:`tune` / :func:`tune_many`
    The paper's end product as a callable: "for (benchmark, threads,
    objective, TMM), which CF x UCF configuration should run?".  A
    request plans the grid's row jobs and, with a serialised tuning
    model (TMM), one dynamic-tuning (RRL) run, then folds their
    payloads into the objective argmin and the dynamic outcome;
    :func:`tune_many` prices many requests' plans in one engine run.

:func:`sweep_grid`
    The shared grid-measurement primitive: the full (or thinned)
    CF x UCF grid for one (benchmark, threads) as a rectangular
    :class:`GridMeasurement` — bit-identical per cell to a fresh-node
    per-configuration loop, and the unit the serving layer
    (:mod:`repro.serve`) coalesces concurrent requests onto.

:func:`replay` / :func:`savings`
    One-configuration execution and the Table VI static/dynamic
    comparison, with the same options object.

Every verb measures through one campaign engine
(:meth:`ExecutionOptions.run_jobs`): the attached one, or a store-less
engine built for the cluster.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import config
from repro.campaign.resilience import ON_FAILURE_POLICIES
from repro.errors import CampaignError, TuningError
from repro.execution.simulator import OperatingPoint
from repro.ptf.objectives import OBJECTIVES, Objective, get_objective
from repro.util.validation import frequency_index
from repro.workloads import registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.engine import CampaignEngine, CampaignResults
    from repro.campaign.plan import CampaignJob
    from repro.hardware.cluster import Cluster

__all__ = [
    "ExecutionOptions",
    "bind_cluster",
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
    "tune_many",
    "replay",
    "savings",
]

@dataclass(frozen=True)
class ExecutionOptions:
    """How (not what) to execute — the one normalized options object.

    Every verb runs its jobs through one campaign engine
    (:meth:`run_jobs`).  ``campaign`` attaches an engine with a
    content-addressed result store so measurements cache; without it a
    store-less engine is built for the cluster.  ``cluster`` supplies
    the simulated hardware, and its seed is the measurements' noise
    seed too (:meth:`resolve_cluster`, :func:`bind_cluster`); an
    attached engine simulating another topology is refused.  Runs with
    and without a store are bit-identical — these options trade
    caching, never results.
    """

    campaign: "CampaignEngine | None" = None
    cluster: "Cluster | None" = None
    #: What a definitive job failure does (``raise``/``quarantine``/
    #: ``skip``) and whether jobs quarantined by an earlier run are
    #: re-attempted; a quarantine is only persisted with a store.
    on_failure: str = "raise"
    retry_failed: bool = False

    def __post_init__(self):
        if self.on_failure not in ON_FAILURE_POLICIES:
            raise CampaignError(
                f"unknown on_failure policy: {self.on_failure!r}; "
                f"known: {ON_FAILURE_POLICIES}"
            )

    # ------------------------------------------------------------------
    def resolve_cluster(self, seed: int) -> "Cluster":
        """The cluster a request's ``seed`` names: ``Cluster(2, seed)``,
        or the explicit cluster when its seed is ``seed`` — one with
        another seed is refused, since its nodes would pair with
        another seed's noise."""
        from repro.hardware.cluster import Cluster

        if self.cluster is None:
            return Cluster(2, seed=seed)
        if self.cluster.seed != seed:
            raise CampaignError(
                f"seed {seed} differs from the explicit cluster's seed "
                f"{self.cluster.seed}; a cluster's seed is its noise seed"
            )
        return self.cluster

    def run_jobs(
        self, jobs: "tuple[CampaignJob, ...] | list[CampaignJob]", cluster: "Cluster"
    ) -> "CampaignResults":
        """Run campaign jobs on ``cluster`` under this failure policy,
        through :func:`~repro.campaign.engine.engine_for` the cluster."""
        from repro.campaign.engine import engine_for
        from repro.campaign.plan import CampaignPlan

        return engine_for(cluster, self.campaign).run(
            CampaignPlan(tuple(jobs)),
            on_failure=self.on_failure,
            retry_failed=self.retry_failed,
        )


def bind_cluster(
    options: ExecutionOptions | None,
    cluster: "Cluster | None" = None,
    *,
    nodes: int = 2,
) -> "tuple[ExecutionOptions, Cluster]":
    """The options and the cluster one library measurement runs on.

    ``cluster`` wins over ``options.cluster``; without either, the
    default-seed ``Cluster(nodes)``.  The returned options carry that
    cluster, whose seed is the measurement's only seed.
    """
    from repro.hardware.cluster import Cluster

    options = options if options is not None else ExecutionOptions()
    cluster = cluster or options.cluster or Cluster(nodes)
    return replace(options, cluster=cluster), cluster


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
    ``seed`` names the simulated cluster, ``Cluster(2, seed)``, which
    fixes both node variability and measurement noise; ``node_id``
    picks its node.  Both are part of the question's identity, which
    is what makes answers content-addressable and coalescible.
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
            self, threads=registry.default_threads(self.benchmark)
        )

    def grid_spec(self) -> "GridSpec":
        """The measurement this request needs, as a :class:`GridSpec`.

        It is also the coalescing key: requests sharing it share one
        sweep.  Objectives and TMMs are deliberately absent — they are
        evaluated *from* the measured grid, so any mix of them on the
        same (benchmark, threads, stride, node, seed) costs one sweep.
        """
        return GridSpec(
            benchmark=self.benchmark,
            threads=self.threads,
            stride=self.stride,
            node_id=self.node_id,
            seed=self.seed,
        )

    def jobs(self) -> "tuple[CampaignJob, ...]":
        """The resolved request's campaign plan: its grid's row jobs
        (:meth:`GridSpec.jobs`) and, with a TMM, one ``dynamic`` savings
        job — an instrumented RRL run under that model at the default
        OpenMP thread count.  The same job objects for recently planned
        equal requests, so a served request's store lookup and its
        execution share one plan."""
        grid = self.grid_spec().jobs()
        if self.tmm is None:
            return grid
        return grid + _dynamic_jobs(
            self.benchmark, self.tmm, self.node_id, self.seed
        )

    def answer(self, payloads: "list[dict[str, Any]]") -> "TuningAnswer":
        """Fold the payloads of :meth:`jobs`, in plan order, into the
        answer: the grid's objective argmin and, with a TMM, the
        dynamic run's outcome."""
        if self.tmm is None:
            return self.grid_spec().measurement(payloads).answer(self)
        *rows, dynamic = payloads
        answer = self.grid_spec().measurement(rows).answer(self)
        return replace(
            answer,
            dynamic=DynamicOutcome(
                *(dynamic[field.name] for field in fields(DynamicOutcome))
            ),
        )


@functools.lru_cache(maxsize=32, typed=True)
def _dynamic_jobs(
    benchmark: str, tmm: str, node_id: int, seed: int
) -> "tuple[CampaignJob, ...]":
    from repro.campaign.plan import savings_jobs
    from repro.readex.tuning_model import TuningModel

    return savings_jobs(
        benchmark,
        label="dynamic",
        runs=1,
        threads=config.DEFAULT_OPENMP_THREADS,
        controller="rrl",
        tuning_model=TuningModel.from_json(tmm).to_json(),
        instrumented=True,
        node_id=node_id,
        seed=seed,
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
        return asdict(self)


@dataclass(frozen=True)
class GridMeasurement:
    """A rectangular CF x UCF measurement at one thread count.

    Arrays are shaped ``(len(core_frequencies), len(uncore_frequencies))``
    and every cell is bit-identical to a solo fresh-node run at that
    configuration with the canonical ``("heatmap", cf, ucf)`` noise key
    — independent of whether the rows came from a store or with which
    batch-mates they were priced.
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

    :func:`sweep_grids` of this one spec: the grid's rows are campaign
    jobs, priced in fleet-kernel shards and cached in the store of
    ``options.campaign`` when one is attached.  Cells carry the canonical
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

    def jobs(self) -> "tuple[CampaignJob, ...]":
        """The grid's campaign plan: one ``grid`` row job per CF, its
        cells keyed ``("heatmap", cf, ucf)`` — the jobs
        :func:`~repro.campaign.plan.grid_jobs` groups out of the CF x UCF
        points, built row by row from the axes.  The same plan (the
        same job objects) for recently planned specs of equal fields and
        field types, so a served request's store lookup and its
        execution share one plan."""
        return _grid_jobs(
            self.benchmark, self.threads, self.stride, self.node_id, self.seed
        )

    def measurement(self, payloads: list[dict[str, Any]]) -> GridMeasurement:
        """Assemble the row payloads of :meth:`jobs`, in plan order, into
        the rectangular grid."""
        cfs, ucfs = grid_axes(self.stride)
        shape = (len(cfs), len(ucfs))

        def cells(name: str) -> np.ndarray:
            return np.array([v for p in payloads for v in p[name]]).reshape(shape)

        return GridMeasurement(
            benchmark=self.benchmark,
            threads=self.threads,
            node_id=self.node_id,
            seed=self.seed,
            core_frequencies=cfs,
            uncore_frequencies=ucfs,
            node_energy_j=cells("node_energy_j"),
            cpu_energy_j=cells("cpu_energy_j"),
            time_s=cells("time_s"),
        )


@functools.lru_cache(maxsize=32, typed=True)
def _grid_jobs(
    benchmark: str, threads: int | None, stride: int, node_id: int, seed: int
) -> "tuple[CampaignJob, ...]":
    from repro.campaign.plan import CampaignJob

    cfs, ucfs = grid_axes(stride)
    return tuple(
        CampaignJob(
            app=benchmark,
            mode="grid",
            core_freq_ghz=cf,
            threads=threads,
            node_id=node_id,
            seed=seed,
            label="heatmap",
            uncore_freqs_ghz=ucfs,
        )
        for cf in cfs
    )


def sweep_grids(
    specs: "list[GridSpec] | tuple[GridSpec, ...]",
    *,
    options: ExecutionOptions | None = None,
) -> list[GridMeasurement]:
    """Measure many CF x UCF grids — across benchmarks, thread counts,
    nodes and seeds — in one batched pass.

    All grids go into one campaign plan of per-row ``grid`` jobs, which
    the engine prices in fleet-kernel shards: the switch schedules
    compile once per application, the keyed noise is drawn in batches,
    and pricing is a handful of padded-matrix folds.  Each returned
    grid is bit-identical to ``sweep_grid`` of its spec measured alone
    — batch-mates never change a cell — and with ``options.campaign``
    its rows cache under their usual per-job store keys.
    """
    resolved = []
    for s in specs:
        registry.check_name(s.benchmark)
        if s.threads is None:
            s = replace(s, threads=registry.default_threads(s.benchmark))
        resolved.append((s, s.jobs()))
    payloads = _run_plans(resolved, options)
    return [s.measurement(p) for (s, _), p in zip(resolved, payloads)]


def _run_plans(plans, options: ExecutionOptions | None):
    """Each ``(spec, jobs)`` plan's payloads, in plan order, from one
    engine run over the plans' distinct jobs on the cluster the specs'
    ``seed`` names, each ``node_id`` checked against it."""
    options = options if options is not None else ExecutionOptions()
    if not plans:
        return []
    for spec, _ in plans:
        cluster = options.resolve_cluster(spec.seed)
        cluster.check_node_id(spec.node_id)
    # Every spec's cluster comes from the same options, so all share
    # the last one's topology.
    jobs = dict.fromkeys(job for _, plan in plans for job in plan)
    results = options.run_jobs(tuple(jobs), cluster)
    return [[results[job] for job in plan] for _, plan in plans]


# ---------------------------------------------------------------------------
# The facade verbs
# ---------------------------------------------------------------------------

def tune(
    request: TuningRequest, options: ExecutionOptions | None = None
) -> TuningAnswer:
    """Answer one tuning request: :func:`tune_many` of it alone, the
    offline reference every served answer is bit-identical to."""
    return tune_many([request], options)[0]


def tune_many(
    requests: "list[TuningRequest] | tuple[TuningRequest, ...]",
    options: ExecutionOptions | None = None,
) -> list[TuningAnswer]:
    """Answer many tuning requests from one engine run.

    The distinct jobs of every resolved request's plan
    (:meth:`TuningRequest.jobs`: grid rows and TMM-driven dynamic runs,
    across benchmarks, threads, nodes and seeds) are priced in one
    :meth:`ExecutionOptions.run_jobs` call, so requests sharing a grid
    share its measurement.  Each answer is its request's fold
    (:meth:`TuningRequest.answer`), bit-identical to it tuned alone.
    """
    requests = [request.resolved() for request in requests]
    payloads = _run_plans([(r, r.jobs()) for r in requests], options)
    return [r.answer(p) for r, p in zip(requests, payloads)]


def replay(
    benchmark: str,
    point: OperatingPoint | None = None,
    *,
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
    options: ExecutionOptions | None = None,
) -> RunTriple:
    """Execute one configuration and return its measured triple.

    The run is a one-cell ``static`` grid row, so it carries the
    canonical ``("static", cf, ucf, threads)`` noise key and is
    bit-identical to the exhaustive static search's cell at ``point``
    on the cluster ``seed`` names
    (:meth:`ExecutionOptions.resolve_cluster`).
    """
    from repro.campaign.plan import grid_jobs

    options = options if options is not None else ExecutionOptions()
    point = point if point is not None else OperatingPoint()
    cluster = options.resolve_cluster(seed)
    cluster.check_node_id(node_id)
    registry.check_name(benchmark)
    jobs = grid_jobs(
        benchmark, label="static", points=[point], node_id=node_id, seed=seed
    )
    payload = options.run_jobs(jobs, cluster)[jobs[0]]
    return RunTriple(
        node_energy_j=payload["node_energy_j"][0],
        cpu_energy_j=payload["cpu_energy_j"][0],
        time_s=payload["time_s"][0],
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
    """The Table VI static/dynamic comparison through the facade, on
    the cluster ``seed`` names (:meth:`ExecutionOptions.resolve_cluster`).

    Returns a :class:`repro.analysis.savings.BenchmarkSavings`.
    """
    from repro.analysis.savings import compare_static_dynamic

    options = options if options is not None else ExecutionOptions()
    return compare_static_dynamic(
        benchmark,
        static_config,
        tuning_model,
        instrumentation=instrumentation,
        cluster=options.resolve_cluster(seed),
        node_id=node_id,
        runs=runs,
        options=options,
    )
