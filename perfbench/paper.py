"""The paper chain, one pass: dataset to Table VI through the public API.

One pass runs, on one result store and ``Cluster(8, seed)``:

1. ``build_dataset`` over the benchmarks (the Figure 5 dataset);
2. ``measure_counter_rates`` over the workload-characterising presets
   and ``select_counters(max_counters=7)`` (Table I);
3. ``train_network_cached`` for the deployed model (10 epochs, the 14
   training benchmarks) and ``network_loocv_mape`` (5 epochs, folds on
   the pass's campaign engine) (Figure 5);
4. ``PeriscopeTuningFramework.tune`` per evaluation benchmark (the
   design-time analysis);
5. ``exhaustive_static_search`` per evaluation benchmark (Table V);
6. ``compare_static_dynamic_many`` with five runs per variant
   (Table VI).

Every function is called with its defaults apart from the inputs the
chain passes along, so a change of default shows in the numbers.  The
pass returns its artefacts; :func:`digest` hashes them bit-exactly
(floats by their shortest round-trip ``repr``), and :func:`claims`
checks them against the paper.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from metrics import WorkloadResult, median, store_bytes, wrapped_layers
from tracing import Tracer, instrument
from repro import config
from repro.analysis.savings import SavingsCase, compare_static_dynamic_many
from repro.api import ExecutionOptions
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.counters.papi import PAPI_PRESETS
from repro.hardware.cluster import Cluster
from repro.modeling.crossval import kfold_mape, network_loocv_mape
from repro.modeling.dataset import build_dataset, measure_counter_rates
from repro.modeling.model_cache import model_to_payload, train_network_cached
from repro.modeling.regression import RegressionEnergyModel
from repro.modeling.selection import select_counters
from repro.modeling.training import TrainingConfig
from repro.ptf.framework import PeriscopeTuningFramework
from repro.ptf.static_tuning import exhaustive_static_search
from repro.workloads import registry

#: Cycle-family presets scale with run time and frequency, not with the
#: workload; Table I selects from the rest plus RES_STL.
CANDIDATES: tuple[str, ...] = tuple(
    name
    for name, counter in PAPI_PRESETS.items()
    if counter.category.value != "cycle" or name == "PAPI_RES_STL"
)

#: Stage span names, in pass order (also the per-layer metric stems).
STAGES = (
    "modeling.build_dataset",
    "modeling.select_counters",
    "modeling.train",
    "modeling.loocv",
    "ptf.dta",
    "ptf.static_search",
    "analysis.savings",
)

#: Table V (threads, CF GHz, UCF GHz).  The pytest entry
#: ``benchmarks/bench_table5_static_config.py`` holds the same rows, but
#: importing it pulls in ``benchmarks._common``, whose result-store
#: cache under ``benchmarks/.cache`` this benchmark must not touch.
PAPER_TABLE5 = {
    "Lulesh": (24, 2.40, 1.70),
    "Amg2013": (16, 2.50, 2.30),
    "miniMD": (24, 2.50, 1.50),
    "BEM4I": (24, 2.30, 1.90),
    "Mcb": (20, 1.60, 2.50),
}


@dataclass(frozen=True)
class Scale:
    """How much of the paper one pass covers."""

    benchmarks: tuple[str, ...]
    evaluation: tuple[str, ...]
    deployed_epochs: int
    loocv_epochs: int
    savings_runs: int

    @property
    def is_full(self) -> bool:
        return self == FULL


FULL = Scale(
    benchmarks=registry.benchmark_names(),
    evaluation=registry.TEST_BENCHMARKS,
    deployed_epochs=10,
    loocv_epochs=5,
    savings_runs=5,
)

#: A few-second pass over the same chain, for the benchmark self-check.
SMOKE = Scale(
    benchmarks=("EP", "CG", "Mcb"),
    evaluation=("Mcb",),
    deployed_epochs=1,
    loocv_epochs=1,
    savings_runs=1,
)


@dataclass
class PassResult:
    dataset: Any
    selection: Any
    model: Any
    loocv: dict[str, float]
    outcomes: dict[str, Any]
    static: dict[str, Any]
    savings: list[Any]
    jobs_executed: int
    jobs_cached: int


def run_pass(seed: int, store_path: Path, scale: Scale, tracer: Tracer) -> PassResult:
    """One pass of the chain on the store at ``store_path``.

    ``tracer`` times each stage as a span; the store is closed when the
    pass returns.
    """
    cluster = Cluster(8, seed=seed)
    with ResultStore(store_path) as store:
        engine = CampaignEngine(store=store)
        with tracer.span("modeling.build_dataset"):
            dataset = build_dataset(
                scale.benchmarks, cluster=cluster, engine=engine
            )
        with tracer.span("modeling.select_counters"):
            rows = {
                name: measure_counter_rates(
                    registry.build(name), cluster,
                    counters=CANDIDATES, engine=engine,
                )
                for name in scale.benchmarks
            }
            features = np.vstack(
                [[rows[g][c] for c in CANDIDATES] for g in dataset.groups]
            )
            selection = select_counters(
                features, list(CANDIDATES), dataset.features[:, -2:],
                dataset.targets, max_counters=7,
            )
        training = dataset.subset(
            [b for b in scale.benchmarks if b not in registry.TEST_BENCHMARKS]
        )
        with tracer.span("modeling.train"):
            model = train_network_cached(
                training.features, training.targets,
                config=TrainingConfig(epochs=scale.deployed_epochs),
                store=store,
            )
        with tracer.span("modeling.loocv"):
            loocv = network_loocv_mape(
                dataset,
                config=TrainingConfig(epochs=scale.loocv_epochs),
                campaign=engine,
            )
        with tracer.span("ptf.dta"):
            framework = PeriscopeTuningFramework(cluster, model)
            outcomes = {name: framework.tune(name) for name in scale.evaluation}
        options = ExecutionOptions(campaign=engine)
        with tracer.span("ptf.static_search"):
            static = {
                name: exhaustive_static_search(
                    registry.build(name), cluster, options=options
                )
                for name in scale.evaluation
            }
        with tracer.span("analysis.savings"):
            savings = compare_static_dynamic_many(
                [
                    SavingsCase(
                        benchmark=name,
                        static_config=static[name].best,
                        tuning_model=outcomes[name].tuning_model,
                        instrumentation=outcomes[name].instrumentation,
                    )
                    for name in scale.evaluation
                ],
                cluster=cluster,
                runs=scale.savings_runs,
                options=options,
            )
    return PassResult(
        dataset=dataset,
        selection=selection,
        model=model,
        loocv=loocv,
        outcomes=outcomes,
        static=static,
        savings=savings,
        jobs_executed=engine.total_executed,
        jobs_cached=engine.total_cached,
    )


def _array_digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(
        str(array.dtype).encode() + str(array.shape).encode() + array.tobytes()
    ).hexdigest()


def artefacts(result: PassResult) -> dict[str, Any]:
    """Every artefact of a pass as JSON-able values (floats exact)."""
    ds = result.dataset
    return {
        "dataset": {
            "features": _array_digest(ds.features),
            "targets": _array_digest(ds.targets),
            "times": _array_digest(ds.times),
            "groups": [str(g) for g in ds.groups],
        },
        "selection": {
            "counters": list(result.selection.counters),
            "vifs": [float(v) for v in result.selection.vifs],
            "adjusted_r2": float(result.selection.adjusted_r2),
        },
        "model": model_to_payload(result.model),
        "loocv": {k: float(v) for k, v in result.loocv.items()},
        "dta": {
            name: {
                "tuning_model": outcome.tuning_model.to_json(),
                "phase": repr(outcome.plugin_result.phase_configuration),
                "regions": {
                    r: repr(p)
                    for r, p in outcome.plugin_result.region_configurations.items()
                },
            }
            for name, outcome in result.outcomes.items()
        },
        "static": {
            name: {
                "best": repr(r.best),
                "best_energy_j": r.best_energy_j,
                "best_time_s": r.best_time_s,
                "default_energy_j": r.default_energy_j,
            }
            for name, r in result.static.items()
        },
        "savings": [
            {k: repr(v) if not isinstance(v, (float, int, str)) else v
             for k, v in asdict(row).items()}
            for row in result.savings
        ],
    }


def digest(result: PassResult) -> str:
    """sha256 of the pass's artefacts: equal digests, equal bits."""
    text = json.dumps(artefacts(result), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


#: The claims that held at every seed tried (the default and 1-12).
#: Table V's configurations and Table VI's dynamic-over-static CPU
#: margin are the paper's at its own seed: at other seeds the cluster's
#: noise moves the best static configuration by a step or more.
EVERY_SEED_CLAIMS = frozenset({
    "fig5_mape_avg_below_10",
    "fig5_mape_max_below_20",
    "fig5_below_regression",
    "table6_savings_positive",
    "table6_dynamic_time_negative",
    "table1_counter_count",
    "table1_mean_vif_below_10",
})


def claims(result: PassResult) -> dict[str, bool]:
    """The paper's claims this reproduction asserts (full scale only),
    as the ``benchmarks/bench_*.py`` pytest entries assert them.

    Figure 5: LOOCV MAPE average below 10, maximum below 20, and below
    the 10-fold regression baseline.  Table V: every knob within one
    tuning step of the paper.  Table VI: both strategies save job and
    CPU energy, dynamic CPU saving above static, dynamic time saving
    below zero.  Table I: 3 to 7 counters, mean VIF below 10.
    """
    ds = result.dataset
    mapes = list(result.loocv.values())

    def regression(train_x, train_y, test_x):
        return RegressionEnergyModel().fit(train_x, train_y).predict(test_x)

    baseline = kfold_mape(ds.features, ds.targets, regression, k=10)
    table5 = all(
        abs(result.static[name].best.threads - threads) <= 4
        and abs(result.static[name].best.core_freq_ghz - cf) <= 0.25
        and abs(result.static[name].best.uncore_freq_ghz - ucf) <= 0.25
        and result.static[name].energy_saving > 0.0
        for name, (threads, cf, ucf) in PAPER_TABLE5.items()
    )
    rows = result.savings
    static_cpu = float(np.mean([s.static_cpu_energy_saving for s in rows]))
    dyn_cpu = float(np.mean([s.dynamic_cpu_energy_saving for s in rows]))
    static_job = float(np.mean([s.static_job_energy_saving for s in rows]))
    dyn_job = float(np.mean([s.dynamic_job_energy_saving for s in rows]))
    return {
        "fig5_mape_avg_below_10": float(np.mean(mapes)) < 10.0,
        "fig5_mape_max_below_20": max(mapes) < 20.0,
        "fig5_below_regression": float(np.mean(mapes)) < baseline,
        "table5_within_one_step": table5,
        "table6_savings_positive": min(static_job, static_cpu, dyn_job, dyn_cpu) > 0,
        "table6_dynamic_cpu_above_static": dyn_cpu > static_cpu,
        "table6_dynamic_time_negative": all(
            s.dynamic_time_saving < 0 for s in rows
        ),
        "table1_counter_count": 3 <= len(result.selection.counters) <= 7,
        "table1_mean_vif_below_10": result.selection.mean_vif < 10.0,
    }


#: Set-up repetitions, a fresh empty store each.
SETUP_REPS = 3


def _open_empty_store(path: Path) -> None:
    with ResultStore(path) as store:
        len(store)


def paper_workload(
    seed: int, seconds: float, scale: Scale, workdir: Path, traced: bool,
) -> tuple[WorkloadResult, Tracer | None]:
    """Set up, run cold passes for ``seconds``, then check recall.

    Every pass gets a fresh, empty store.  After the window, one more
    pass runs against the last pass's filled store: it must simulate
    nothing and equal the cold passes bit for bit, since recalling
    from the store must give what computing gave.  With ``traced``,
    passes alternate untraced and traced (at least one of each) and the
    per-layer numbers come from the traced ones.
    """
    result = WorkloadResult()
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        _open_empty_store(workdir / f"setup-{rep}.sqlite")
        result.setup_s.append(time.perf_counter() - start)

    tracer = Tracer() if traced else None
    reference: str | None = None
    jobs = 0
    untraced_s: list[float] = []
    traced_s: list[float] = []
    stage_s: dict[str, list[float]] = {stage: [] for stage in STAGES}
    layers: dict[str, list[float]] = {}
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = traced and index % 2 == 1
        timer = tracer if trace_this else Tracer()
        store = workdir / f"cold-{index}.sqlite"
        if trace_this:
            instrument(tracer)
        began = time.perf_counter()
        try:
            with timer.span("paper.pass", index=index):
                outcome = run_pass(seed, store, scale, timer)
        except Exception as exc:  # a failed pass is a failed operation
            result.attempted += 1
            result.failed += 1
            result.notes.append(f"FAILED pass {index}: {exc!r}")
            break
        finally:
            if trace_this:
                tracer.close()
        elapsed = time.perf_counter() - began
        result.attempted += 1
        result.ok += 1
        result.latencies_s.append(elapsed)
        (traced_s if trace_this else untraced_s).append(elapsed)
        for stage in STAGES:
            stage_s[stage].append(timer.named(stage)[-1].seconds)

        pass_digest = digest(outcome)
        touched = outcome.jobs_cached + outcome.jobs_executed
        if reference is None:
            # The first pass is the reference for later ones.
            reference, jobs = pass_digest, touched
        else:
            result.check(pass_digest == reference,
                         f"pass {index} artefact digest {pass_digest[:16]} != "
                         f"{reference[:16]}")
            result.check(touched == jobs,
                         f"pass {index} touched {touched} jobs, not {jobs}")
        result.check(outcome.jobs_cached == 0 and outcome.jobs_executed > 0,
                     f"cold pass {index} recalled {outcome.jobs_cached} jobs")
        if index == 0 and scale.is_full:
            for claim, held in claims(outcome).items():
                if seed == config.DEFAULT_SEED or claim in EVERY_SEED_CLAIMS:
                    result.check(held, f"paper claim {claim}")

        if trace_this:
            samples = sum(
                1 for g in outcome.dataset.groups
                if g not in registry.TEST_BENCHMARKS
            )
            train_s = timer.named("modeling.train")[-1].seconds
            pass_layers = {
                f"{stage}_s": timer.named(stage)[-1].seconds for stage in STAGES
            }
            pass_layers.update(
                {
                    "modeling.train_samples_per_s":
                        samples * scale.deployed_epochs / train_s,
                    "campaign.jobs_executed": outcome.jobs_executed,
                    "campaign.jobs_cached": outcome.jobs_cached,
                    "campaign.hit_ratio": outcome.jobs_cached
                    / max(1, outcome.jobs_cached + outcome.jobs_executed),
                    "campaign.store_bytes": store_bytes(store),
                }
            )
            for name, value in pass_layers.items():
                layers.setdefault(name, []).append(value)
        index += 1
        # Start no pass that would end past the window; a run measures
        # at least one (one of each when traced).
        if time.perf_counter() - start + elapsed > seconds and (
            not traced or index >= 2
        ):
            break
    result.window_s = time.perf_counter() - start

    result.notes.append(
        f"{index} pass(es); stage medians (s): "
        + ", ".join(f"{s}={median(v):.3f}" for s, v in stage_s.items())
    )
    if reference is not None:
        began = time.perf_counter()
        try:
            recall = run_pass(seed, store, scale, Tracer())
        except Exception as exc:
            result.check(False, f"recall pass: {exc!r}")
        else:
            recall_s = time.perf_counter() - began
            result.notes.append(f"recall pass {recall_s:.3f} s")
            result.check(digest(recall) == reference,
                         f"recall artefact digest {digest(recall)[:16]} != "
                         f"{reference[:16]}")
            result.check(recall.jobs_executed == 0,
                         f"recall pass simulated {recall.jobs_executed} jobs")
            result.check(recall.jobs_cached == jobs,
                         f"recall pass touched {recall.jobs_cached} jobs, not {jobs}")
            if traced:
                layers["campaign.recall_pass_s"] = [recall_s]
    if traced:
        result.layers = {name: median(v) for name, v in layers.items()}
        result.layers.update(wrapped_layers(tracer, len(traced_s)))
        result.layers["trace.overhead_p50_ms"] = (
            median(traced_s) - median(untraced_s)
        ) * 1e3
    return result, tracer
