"""Campaign planning: declarative jobs and grid expansion.

A :class:`CampaignJob` is a pure description of one simulated
experiment — everything needed to run it in any process and to address
its result in the :mod:`~repro.campaign.store`.  Planner functions
expand benchmark lists into the paper's grids.  A job has one of three
modes:

``counters``
    Instrumented runs at the calibration operating point that collect
    PAPI counter totals for the phase region (Section IV-A).
``grid``
    One **row** of plain fresh-node runs — a fixed (threads, CF) at an
    explicit tuple of UCFs — executed in a single pass through the
    fleet kernel (:mod:`repro.execution.fleet_replay`).  Rows are the
    one cacheable unit of every plain run: the training sweep over the
    DVFS axis then the UFS axis (label ``sweep``, Section V-B), the
    Table V exhaustive static search (``static``, Section V-D), the
    Figures 6/7 heatmaps (``heatmap``), the Figures 2/3
    node-variability sweeps (``variability-core``/``variability-uncore``),
    the energy/time trade-off (``tradeoff``) and the tuning-time
    reference run (``tuning-time``).  The label selects the per-cell
    noise key (see :func:`grid_run_key`); each reproduces a historical
    one-run-per-cell key verbatim, so the measured numbers are
    bit-identical — only the store addressing is coarser.
``savings``
    Controlled production runs of the Table VI comparison: optionally
    under the RRL, with a serialised tuning model or, for a static job,
    a default-only one holding the job's configuration, and optionally
    instrumented with a compile-time filter.  Controller-driven jobs
    replay their compiled switch schedule
    (:mod:`repro.execution.controlled_replay`).  ``savings`` jobs carry
    their label explicitly, matching :mod:`repro.analysis.savings`'
    historical run keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro import config
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.errors import CampaignError
from repro.execution.simulator import OperatingPoint
from repro.workloads import registry
from repro.workloads.application import Application

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.readex.tuning_model import TuningModel
    from repro.scorep.instrumentation import Instrumentation

#: The instrumentation/measurement modes a job can run under.
MODES: tuple[str, ...] = ("counters", "savings", "grid")

#: Controller kinds a ``savings`` job can attach.
CONTROLLERS: tuple[str, ...] = ("none", "static", "rrl")

#: Run-key layouts a ``grid`` job's cells may use.  Each reproduces one
#: historical per-cell noise key verbatim, so grid-row payloads agree
#: bit-for-bit with the loops they replace.
GRID_RUN_KEY_LABELS: tuple[str, ...] = (
    "sweep", "static", "heatmap", "variability-core", "variability-uncore",
    "tradeoff", "tuning-time",
)


def grid_run_key(
    label: str, *, core_freq_ghz: float, uncore_freq_ghz: float, threads: int | None
) -> tuple:
    """The per-cell noise-stream key of one grid-row entry."""
    if label == "sweep":
        return ("sweep", threads, core_freq_ghz, uncore_freq_ghz)
    if label == "heatmap":
        return ("heatmap", core_freq_ghz, uncore_freq_ghz)
    if label == "static":
        return ("static", core_freq_ghz, uncore_freq_ghz, threads)
    if label in ("variability-core", "variability-uncore"):
        axis = label.removeprefix("variability-")
        return ("variability", axis, core_freq_ghz, uncore_freq_ghz)
    if label == "tradeoff":
        point = OperatingPoint(core_freq_ghz, uncore_freq_ghz, threads)
        return ("tradeoff", str(point))
    if label == "tuning-time":
        return ("tuning-time",)
    raise CampaignError(
        f"unknown grid run-key label: {label!r}; known: {GRID_RUN_KEY_LABELS}"
    )

#: Runs averaged for one counter measurement (PMU multiplexing).
COUNTER_MEASUREMENT_RUNS = 3

#: Jobs batched into one fleet kernel invocation by default.  Large
#: enough to amortise the padded-matrix setup, small enough that a
#: failed shard's per-job re-run stays cheap.
DEFAULT_FLEET_SHARD_SIZE = 16


@dataclass(frozen=True)
class CampaignJob:
    """One simulated experiment, fully described.

    ``seed`` is the owning cluster's seed: it feeds both the node's
    power-variability factors and the execution simulator's noise and
    counter streams.  ``threads`` may be ``None`` to use the
    application default — the value is mixed verbatim into the noise
    stream key, matching the historical serial code paths.
    """

    app: str
    mode: str
    core_freq_ghz: float = config.DEFAULT_CORE_FREQ_GHZ
    uncore_freq_ghz: float = config.DEFAULT_UNCORE_FREQ_GHZ
    threads: int | None = None
    node_id: int = 0
    seed: int = config.DEFAULT_SEED
    repetition: int = 0
    counters: tuple[str, ...] = ()
    #: ``savings``-mode extras (ignored — and absent from descriptors —
    #: for the other modes; ``label`` also names a ``grid`` row's noise
    #: keys).
    label: str = ""
    controller: str = "none"
    tuning_model: str | None = None
    filtered_regions: tuple[str, ...] | None = None
    instrumented: bool = False
    #: ``grid``-mode extra: the row's UCF axis (``core_freq_ghz`` and
    #: ``threads`` are the fixed coordinates of the row).
    uncore_freqs_ghz: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise CampaignError(
                f"unknown campaign mode: {self.mode!r}; known: {MODES}"
            )
        if self.mode == "counters" and not self.counters:
            raise CampaignError("counters mode requires a counter set")
        if self.mode == "grid":
            if not self.uncore_freqs_ghz:
                raise CampaignError("grid mode requires a non-empty UCF row")
            if self.label not in GRID_RUN_KEY_LABELS:
                raise CampaignError(
                    f"unknown grid run-key label: {self.label!r}; "
                    f"known: {GRID_RUN_KEY_LABELS}"
                )
        if self.mode == "savings":
            if not self.label:
                raise CampaignError("savings mode requires a run-key label")
            if self.controller not in CONTROLLERS:
                raise CampaignError(
                    f"unknown controller: {self.controller!r}; "
                    f"known: {CONTROLLERS}"
                )
            if self.controller == "rrl" and not self.tuning_model:
                raise CampaignError(
                    "savings jobs with the rrl controller need a tuning model"
                )

    def run_key(self) -> tuple:
        """The simulator noise-stream label (mirrors the serial paths)."""
        if self.mode == "grid":
            raise CampaignError(
                "grid jobs carry one noise key per cell; use cell_run_keys()"
            )
        if self.mode == "counters":
            return ("counters", self.threads, self.repetition)
        return (self.label, self.repetition)

    def cell_run_keys(self) -> tuple[tuple, ...]:
        """Per-cell noise keys of a ``grid`` job, in UCF order."""
        if self.mode != "grid":
            raise CampaignError("cell_run_keys applies to grid jobs only")
        return tuple(
            grid_run_key(
                self.label,
                core_freq_ghz=self.core_freq_ghz,
                uncore_freq_ghz=ucf,
                threads=self.threads,
            )
            for ucf in self.uncore_freqs_ghz
        )

    def descriptor(self) -> dict[str, Any]:
        """JSON-able canonical form, hashed into the store key.

        ``node_seed`` repeats ``seed``: the key layout of the records
        written when jobs carried a separate node seed."""
        descriptor = {
            "app": self.app,
            "mode": self.mode,
            "core_freq_ghz": self.core_freq_ghz,
            "uncore_freq_ghz": self.uncore_freq_ghz,
            "threads": self.threads,
            "node_id": self.node_id,
            "seed": self.seed,
            "node_seed": self.seed,
            "repetition": self.repetition,
            "counters": list(self.counters),
        }
        if self.mode == "grid":
            descriptor.update(
                {
                    "label": self.label,
                    "uncore_freqs_ghz": list(self.uncore_freqs_ghz),
                }
            )
        if self.mode == "savings":
            descriptor.update(
                {
                    "label": self.label,
                    "controller": self.controller,
                    "tuning_model": self.tuning_model,
                    "filtered_regions": (
                        None
                        if self.filtered_regions is None
                        else sorted(self.filtered_regions)
                    ),
                    "instrumented": self.instrumented,
                }
            )
        return descriptor


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, duplicate-free sequence of jobs."""

    jobs: tuple[CampaignJob, ...]

    def __post_init__(self):
        seen: set[CampaignJob] = set()
        unique = []
        for job in self.jobs:
            if job not in seen:
                seen.add(job)
                unique.append(job)
        object.__setattr__(self, "jobs", tuple(unique))

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[CampaignJob]:
        return iter(self.jobs)

    def merge(self, other: "CampaignPlan") -> "CampaignPlan":
        return CampaignPlan(self.jobs + other.jobs)

    def describe(self) -> dict[str, Any]:
        """Aggregate view for ``repro-campaign plan``."""
        apps: dict[str, int] = {}
        modes: dict[str, int] = {}
        points: set[tuple] = set()
        for job in self.jobs:
            apps[job.app] = apps.get(job.app, 0) + 1
            modes[job.mode] = modes.get(job.mode, 0) + 1
            ucfs = job.uncore_freqs_ghz or (job.uncore_freq_ghz,)
            points.update((job.core_freq_ghz, ucf, job.threads) for ucf in ucfs)
        return {
            "jobs": len(self.jobs),
            "apps": dict(sorted(apps.items())),
            "modes": dict(sorted(modes.items())),
            "operating_points": len(points),
        }


# ---------------------------------------------------------------------------
# Grid helpers
# ---------------------------------------------------------------------------

def thread_series(
    app: Application, thread_counts: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """Thread sweep for one application: the 12..24 step-4 candidates for
    thread-tunable codes, the fixed default for MPI-only codes."""
    if thread_counts is None:
        thread_counts = config.OPENMP_THREAD_CANDIDATES
    if app.model.supports_thread_tuning:
        return tuple(thread_counts)
    return (app.default_threads,)


def sweep_operating_points() -> list[tuple[float, float]]:
    """The paper's training sweep: DVFS axis then UFS axis."""
    points = [
        (cf, config.CALIBRATION_UNCORE_FREQ_GHZ)
        for cf in config.CORE_FREQUENCIES_GHZ
    ]
    points += [
        (config.CALIBRATION_CORE_FREQ_GHZ, ucf)
        for ucf in config.UNCORE_FREQUENCIES_GHZ
        if (config.CALIBRATION_CORE_FREQ_GHZ, ucf) not in points
    ]
    return points


def static_operating_points(
    app: Application,
    *,
    stride: int = 1,
    thread_counts: tuple[int, ...] | None = None,
) -> list[OperatingPoint]:
    """The exhaustive static grid, with the platform default appended so
    the baseline is always part of the sweep.

    An explicit ``thread_counts`` is honoured verbatim, even for codes
    without thread tuning (the simulator then runs them at their fixed
    configuration, as the hardware would).
    """
    if stride < 1:
        raise CampaignError("stride must be >= 1")
    series = (
        tuple(thread_counts)
        if thread_counts is not None
        else thread_series(app)
    )
    cfs = config.CORE_FREQUENCIES_GHZ[::stride]
    ucfs = config.UNCORE_FREQUENCIES_GHZ[::stride]
    points = [
        OperatingPoint(cf, ucf, t) for t in series for cf in cfs for ucf in ucfs
    ]
    default_point = OperatingPoint(
        config.DEFAULT_CORE_FREQ_GHZ,
        config.DEFAULT_UNCORE_FREQ_GHZ,
        config.DEFAULT_OPENMP_THREADS,
    )
    if default_point not in points:
        points.append(default_point)
    return points


# ---------------------------------------------------------------------------
# Job builders (shared by the consumers, so store keys always agree)
# ---------------------------------------------------------------------------

def counter_jobs(
    app_name: str,
    *,
    threads: int | None,
    counters: tuple[str, ...],
    runs: int = COUNTER_MEASUREMENT_RUNS,
    node_id: int,
    seed: int,
) -> tuple[CampaignJob, ...]:
    """One instrumented calibration-point job per averaged repetition."""
    return tuple(
        CampaignJob(
            app=app_name,
            mode="counters",
            core_freq_ghz=config.CALIBRATION_CORE_FREQ_GHZ,
            uncore_freq_ghz=config.CALIBRATION_UNCORE_FREQ_GHZ,
            threads=threads,
            node_id=node_id,
            seed=seed,
            repetition=r,
            counters=tuple(counters),
        )
        for r in range(runs)
    )


def grid_rows(
    points: list[OperatingPoint],
) -> list[tuple[int | None, float, tuple[float, ...]]]:
    """Group grid points into ``(threads, CF, UCF row)`` triples.

    Order-preserving: rows appear at their first point's position and
    each row's UCFs keep their sweep order, so flattening the rows
    visits the points exactly as the one-cell-at-a-time loops did.
    """
    rows: dict[tuple, list[float]] = {}
    for p in points:
        rows.setdefault((p.threads, p.core_freq_ghz), []).append(p.uncore_freq_ghz)
    return [(t, cf, tuple(ucfs)) for (t, cf), ucfs in rows.items()]


def grid_cells(
    jobs: tuple[CampaignJob, ...], results, field: str
) -> dict[OperatingPoint, float]:
    """One payload ``field`` of every cell of grid-row ``jobs``, keyed by
    the cell's operating point — :func:`grid_rows` inverted.  ``results``
    maps each job to its payload (a
    :class:`~repro.campaign.engine.CampaignResults`)."""
    return {
        OperatingPoint(job.core_freq_ghz, ucf, job.threads): value
        for job in jobs
        for ucf, value in zip(job.uncore_freqs_ghz, results[job][field])
    }


def grid_jobs(
    app_name: str,
    *,
    label: str,
    points: list[OperatingPoint],
    node_id: int,
    seed: int,
) -> tuple[CampaignJob, ...]:
    """One fleet-kernel row job per (threads, CF) of a static grid."""
    return tuple(
        CampaignJob(
            app=app_name,
            mode="grid",
            core_freq_ghz=cf,
            threads=threads,
            node_id=node_id,
            seed=seed,
            label=label,
            uncore_freqs_ghz=ucfs,
        )
        for threads, cf, ucfs in grid_rows(points)
    )


def sweep_jobs(
    app_name: str, *, threads: int | None, node_id: int, seed: int
) -> tuple[CampaignJob, ...]:
    """The ``sweep``-labelled rows of one training series: one row per
    CF of :func:`sweep_operating_points`, the calibration CF's row
    holding the whole UFS axis."""
    points = [OperatingPoint(cf, ucf, threads) for cf, ucf in sweep_operating_points()]
    return grid_jobs(
        app_name, label="sweep", points=points, node_id=node_id, seed=seed
    )


def static_search_jobs(
    app: Application,
    *,
    stride: int = 1,
    thread_counts: tuple[int, ...] | None = None,
    node_id: int,
    seed: int,
) -> tuple[CampaignJob, ...]:
    """The ``static``-labelled rows of the exhaustive static search over
    :func:`static_operating_points` — the one plan of the Table V grid,
    so the CLI's campaign and the library's search share store keys."""
    points = static_operating_points(app, stride=stride, thread_counts=thread_counts)
    return grid_jobs(
        app.name, label="static", points=points, node_id=node_id, seed=seed
    )


def savings_jobs(
    app_name: str,
    *,
    label: str,
    runs: int,
    threads: int,
    controller: str = "none",
    tuning_model: str | None = None,
    filtered_regions: tuple[str, ...] | None = None,
    instrumented: bool = False,
    core_freq_ghz: float = config.DEFAULT_CORE_FREQ_GHZ,
    uncore_freq_ghz: float = config.DEFAULT_UNCORE_FREQ_GHZ,
    node_id: int,
    seed: int,
) -> tuple[CampaignJob, ...]:
    """One controlled production run per averaged repetition (Table VI).

    ``label`` is mixed verbatim into the noise streams, so these jobs
    are bit-identical to the per-run loop reference of
    ``tests/oracles/savings.py``.  The node always starts at the platform default
    operating point; with ``controller="static"`` the job's
    frequency/thread fields describe the configuration the one-shot
    controller applies, and with ``"rrl"`` the serialised tuning model
    drives switching.
    """
    filtered = (
        None if filtered_regions is None else tuple(sorted(filtered_regions))
    )
    return tuple(
        CampaignJob(
            app=app_name,
            mode="savings",
            core_freq_ghz=core_freq_ghz,
            uncore_freq_ghz=uncore_freq_ghz,
            threads=threads,
            node_id=node_id,
            seed=seed,
            repetition=r,
            label=label,
            controller=controller,
            tuning_model=tuning_model,
            filtered_regions=filtered,
            instrumented=instrumented,
        )
        for r in range(runs)
    )


def savings_campaign_jobs(
    benchmark: str,
    static_config: OperatingPoint,
    tuning_model: "TuningModel",
    *,
    instrumentation: "Instrumentation | None",
    runs: int,
    node_id: int,
    seed: int,
) -> dict[str, tuple[CampaignJob, ...]]:
    """The four Table VI run variants of one benchmark as
    :func:`savings_jobs` batches, keyed ``default``, ``static``,
    ``dynamic`` and ``config-only``."""
    tmm_json = tuning_model.to_json()
    filtered = None if instrumentation is None else tuple(instrumentation.filtered)
    common = {"runs": runs, "node_id": node_id, "seed": seed}
    default_threads = config.DEFAULT_OPENMP_THREADS
    return {
        "default": savings_jobs(
            benchmark, label="default", threads=default_threads, **common
        ),
        "static": savings_jobs(
            benchmark, label="static", controller="static",
            core_freq_ghz=static_config.core_freq_ghz,
            uncore_freq_ghz=static_config.uncore_freq_ghz,
            threads=static_config.threads, **common,
        ),
        "dynamic": savings_jobs(
            benchmark, label="dynamic", controller="rrl",
            tuning_model=tmm_json, instrumented=True,
            filtered_regions=filtered, threads=default_threads, **common,
        ),
        "config-only": savings_jobs(
            benchmark, label="config-only", controller="rrl",
            tuning_model=tmm_json, threads=default_threads, **common,
        ),
    }


# ---------------------------------------------------------------------------
# Campaign planners
# ---------------------------------------------------------------------------

def plan_dataset_campaign(
    benchmarks: tuple[str, ...] | list[str] | None = None,
    *,
    thread_counts: tuple[int, ...] | None = None,
    counters: tuple[str, ...] = TABLE1_COUNTERS,
    runs: int = COUNTER_MEASUREMENT_RUNS,
    node_id: int,
    seed: int,
) -> CampaignPlan:
    """All jobs of the training-data acquisition (counters + sweep)."""
    if benchmarks is None:
        benchmarks = registry.benchmark_names()
    canonical = tuple(preset(c).name for c in counters)
    jobs: list[CampaignJob] = []
    for name in benchmarks:
        app = registry.build(name)
        for threads in thread_series(app, thread_counts):
            jobs += counter_jobs(
                name, threads=threads, counters=canonical, runs=runs,
                node_id=node_id, seed=seed,
            )
            jobs += sweep_jobs(
                name, threads=threads, node_id=node_id, seed=seed
            )
    return CampaignPlan(tuple(jobs))


def plan_static_campaign(
    benchmarks: tuple[str, ...] | list[str] | None = None,
    *,
    stride: int = 1,
    thread_counts: tuple[int, ...] | None = None,
    node_id: int,
    seed: int,
) -> CampaignPlan:
    """All jobs of the exhaustive static search (Table V grid)."""
    if benchmarks is None:
        benchmarks = registry.benchmark_names()
    jobs: list[CampaignJob] = []
    for name in benchmarks:
        jobs += static_search_jobs(
            registry.build(name), stride=stride, thread_counts=thread_counts,
            node_id=node_id, seed=seed,
        )
    return CampaignPlan(tuple(jobs))
