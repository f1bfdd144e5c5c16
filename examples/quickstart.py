#!/usr/bin/env python3
"""Quickstart: tune one benchmark end to end.

Trains a small energy model, runs the full design-time analysis on
Lulesh (instrumentation -> filtering -> significant-region detection ->
the plugin's tuning steps), then replays the application under the
READEX Runtime Library and reports the savings against the platform
default.

Run time: 3-4 s on a 2-core x86-64 VM, most of it the training-set
sweep and the 10-epoch model training.
"""

from repro import (
    Cluster,
    ExecutionSimulator,
    PeriscopeTuningFramework,
    RRL,
    TrainingConfig,
    build_dataset,
    train_network,
)
from repro.workloads import registry


def main() -> None:
    # 1. Train the energy model on the 14 training benchmarks (the five
    #    evaluation benchmarks stay unseen, as in Section V-B).
    print("== training the energy model ==")
    dataset = build_dataset(registry.training_benchmarks())
    model = train_network(
        dataset.features, dataset.targets, config=TrainingConfig(epochs=10)
    )
    print(f"trained on {dataset.features.shape[0]} samples "
          f"({len(dataset.benchmarks)} benchmarks)")

    # 2. Design-time analysis for Lulesh.
    print("\n== design-time analysis: Lulesh ==")
    cluster = Cluster(4)
    outcome = PeriscopeTuningFramework(cluster, model).tune("Lulesh")
    result = outcome.plugin_result
    print(f"significant regions: {len(outcome.readex_config.significant_regions)}")
    print(f"optimal OpenMP threads (phase): {result.phase_threads}")
    print("model-predicted global frequencies: "
          f"{result.global_frequencies[0]:.1f}|{result.global_frequencies[1]:.1f} GHz")
    print(f"phase configuration after verification: {result.phase_configuration}")
    for region, cfg in result.region_configurations.items():
        print(f"  {region:38s} {cfg}")
    print(f"experiments used: {result.experiments_performed} "
          f"(full search space would be {14 * 18 * 4})")

    # 3. Production run under the RRL vs the platform default.
    print("\n== production run (RRL) vs default ==")
    app = registry.build("Lulesh")
    default = ExecutionSimulator(cluster.fresh_node(1)).run(app)
    rrl = RRL(outcome.tuning_model)
    tuned = ExecutionSimulator(cluster.fresh_node(1)).run(
        registry.build("Lulesh"), controller=rrl, instrumented=True,
        instrumentation=outcome.instrumentation,
    )
    job_saving = 1 - tuned.node_energy_j / default.node_energy_j
    cpu_saving = 1 - tuned.cpu_energy_j / default.cpu_energy_j
    slowdown = tuned.time_s / default.time_s - 1
    print(f"job energy saving: {job_saving:+.1%}")
    print(f"CPU energy saving: {cpu_saving:+.1%}")
    print(f"run-time change:   {slowdown:+.1%}")
    print(f"scenario switches: {rrl.stats.frequency_switches}")


if __name__ == "__main__":
    main()
