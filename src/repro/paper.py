"""The paper's evaluation chain (Section V) as one function.

:func:`run_paper` runs, on one cluster and one campaign engine:

1. ``build_dataset`` over the benchmarks (the Figure 5 dataset, on the
   paper's seven Table I counters);
2. the counter rates of :data:`SELECTION_CANDIDATES` and the stepwise
   counter selection (Table I).  The selection is reported; no later
   stage reads it;
3. the deployed model (the training benchmarks, ten epochs) and the
   leave-one-benchmark-out study (five epochs) (Figure 5);
4. the PTF design-time analysis per evaluation benchmark (Tables III
   and IV);
5. the exhaustive static search per evaluation benchmark (Table V);
6. the static-vs-dynamic comparison (Table VI).

Every measurement goes through one engine, so with a result store a
second call recalls every job and every trained model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.savings import (
    BenchmarkSavings,
    SavingsCase,
    compare_static_dynamic_many,
)
from repro.api import ExecutionOptions
from repro.campaign.engine import CampaignEngine, engine_for
from repro.counters.papi import PAPI_PRESETS
from repro.hardware.cluster import Cluster
from repro.modeling.crossval import network_loocv_mape
from repro.modeling.dataset import EnergyDataset, build_dataset, measure_counter_rates
from repro.modeling.model_cache import train_network_cached
from repro.modeling.selection import CounterSelection, select_counters
from repro.modeling.training import TrainedModel, TrainingConfig
from repro.ptf.framework import PeriscopeTuningFramework, TuningOutcome
from repro.ptf.static_tuning import StaticTuningResult, exhaustive_static_search
from repro.workloads import registry

#: Training epochs of the deployed model and of each LOOCV fold
#: (Section V-B), and repetitions per Table VI run variant.
DEPLOYED_EPOCHS = 10
LOOCV_EPOCHS = 5
SAVINGS_RUNS = 5

#: Cycle-family presets scale with run time and frequency, not with the
#: workload; Table I selects from the rest plus RES_STL.
SELECTION_CANDIDATES: tuple[str, ...] = tuple(
    name
    for name, counter in PAPI_PRESETS.items()
    if counter.category.value != "cycle" or name == "PAPI_RES_STL"
)


@dataclass(frozen=True)
class PaperResult:
    """Every artefact of one pass; ``outcomes`` and ``static`` are keyed
    by evaluation benchmark, ``savings`` in ``TEST_BENCHMARKS`` order."""

    dataset: EnergyDataset
    selection: CounterSelection
    model: TrainedModel
    loocv: dict[str, float]
    outcomes: dict[str, TuningOutcome]
    static: dict[str, StaticTuningResult]
    savings: list[BenchmarkSavings]


def run_paper(
    cluster: Cluster,
    *,
    engine: CampaignEngine | None = None,
    benchmarks: tuple[str, ...] = registry.benchmark_names(),
) -> PaperResult:
    """Run the chain over ``benchmarks`` on ``cluster``.

    The training set is ``benchmarks`` without the evaluation
    benchmarks, which are :data:`~repro.workloads.registry.TEST_BENCHMARKS`
    among ``benchmarks``.  Trained models cache in ``engine.store``.
    """
    engine = engine_for(cluster, engine)
    evaluation = tuple(b for b in registry.TEST_BENCHMARKS if b in benchmarks)
    dataset = build_dataset(benchmarks, cluster=cluster, engine=engine)
    rates = {
        name: measure_counter_rates(
            registry.build(name), cluster, counters=SELECTION_CANDIDATES, engine=engine
        )
        for name in benchmarks
    }
    selection = select_counters(
        np.array(
            [[rates[g][c] for c in SELECTION_CANDIDATES] for g in dataset.groups]
        ),
        SELECTION_CANDIDATES,
        dataset.features[:, -2:],
        dataset.targets,
    )
    training = dataset.subset([b for b in benchmarks if b not in evaluation])
    model = train_network_cached(
        training.features,
        training.targets,
        config=TrainingConfig(epochs=DEPLOYED_EPOCHS),
        store=engine.store,
    )
    loocv = network_loocv_mape(
        dataset, config=TrainingConfig(epochs=LOOCV_EPOCHS), campaign=engine
    )
    framework = PeriscopeTuningFramework(cluster, model)
    outcomes = {name: framework.tune(name) for name in evaluation}
    options = ExecutionOptions(campaign=engine)
    static = {
        name: exhaustive_static_search(registry.build(name), cluster, options=options)
        for name in evaluation
    }
    savings = compare_static_dynamic_many(
        [
            SavingsCase(
                benchmark=name,
                static_config=static[name].best,
                tuning_model=outcomes[name].tuning_model,
                instrumentation=outcomes[name].instrumentation,
            )
            for name in evaluation
        ],
        cluster=cluster,
        runs=SAVINGS_RUNS,
        options=options,
    )
    return PaperResult(dataset, selection, model, loocv, outcomes, static, savings)
