"""Ablation: value of the neighborhood-verification step.

DESIGN.md calls out the plugin's two-stage frequency search (model
argmin, then <=9 measured neighbors) as a design choice.  This ablation
quantifies it on the evaluation benchmarks: how much ground-truth energy
is lost by (a) trusting the model's pick blindly, vs (b) the verified
pick, vs (c) the true optimum — all measured against the platform
default.  Expected shape: verification recovers part of the model's
prediction error; both stay within a few percent of the true optimum.
"""

import numpy as np

from benchmarks._common import cluster, paper
from repro.execution.simulator import ExecutionSimulator
from repro.util.tables import render_table
from repro.workloads import registry


def _energy_at(benchmark: str, cf: float, ucf: float, threads: int) -> float:
    node = cluster().fresh_node(1)
    node.set_frequencies(cf, ucf)
    return ExecutionSimulator(node).run(
        registry.build(benchmark),
        threads=threads,
        run_key=("ablation", cf, ucf, threads),
    ).node_energy_j


def _ablate():
    rows = []
    for name in registry.TEST_BENCHMARKS:
        result = paper().outcomes[name].plugin_result
        threads = result.phase_threads
        default = _energy_at(name, 2.5, 3.0, 24)
        raw_pick = _energy_at(name, *result.global_frequencies, threads)
        verified = _energy_at(
            name,
            result.phase_configuration.core_freq_ghz,
            result.phase_configuration.uncore_freq_ghz,
            threads,
        )
        true_best = paper().static[name].best_energy_j
        rows.append(
            (
                name,
                1 - raw_pick / default,
                1 - verified / default,
                1 - true_best / default,
            )
        )
    return rows


def test_ablation_neighborhood_verification(benchmark):
    rows = benchmark.pedantic(_ablate, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Benchmark", "model pick only", "after verification", "true optimum"],
            [
                [n, f"{a:+.1%}", f"{b:+.1%}", f"{c:+.1%}"]
                for n, a, b, c in rows
            ],
            title="Ablation: energy saving vs default at each search stage",
        )
    )
    raw = np.array([r[1] for r in rows])
    verified = np.array([r[2] for r in rows])
    best = np.array([r[3] for r in rows])
    print(f"\nmean savings: model-only {raw.mean():+.1%}, "
          f"verified {verified.mean():+.1%}, true optimum {best.mean():+.1%}")
    # Verification never hurts on average and the verified pick stays
    # within a few percent of the true optimum.
    assert verified.mean() >= raw.mean() - 1e-9
    assert np.all(best - verified < 0.06)
    assert np.all(verified > 0)  # every benchmark saves energy
