"""Table IV: optimal configuration per significant region of Mcbenchmark.

Paper: five significant regions (two functions, three OpenMP parallel
constructs) at low CF (1.6--1.7) and high UCF (2.2--2.3), threads 20/24.
Expected shape: five regions; memory-bound configurations (low CF, high
UCF) — the mirror image of Table III.
"""

from benchmarks._common import paper
from repro.analysis.reporting import render_region_configs

PAPER_REGIONS = {
    "setupDT",
    "advPhoton",
    "omp parallel:423",
    "omp parallel:501",
    "omp parallel:642",
}


def test_table4_mcb_region_configs(benchmark):
    outcome = benchmark.pedantic(paper, rounds=1, iterations=1).outcomes["Mcb"]
    configs = outcome.plugin_result.region_configurations
    print()
    print(render_region_configs("Mcb", configs))
    print("\npaper: regions at 1.6-1.7 CF / 2.2-2.3 UCF, 20-24 threads")
    assert set(configs) == PAPER_REGIONS
    for cfg in configs.values():
        assert cfg.core_freq_ghz <= 2.1     # memory bound: low CF
        assert cfg.uncore_freq_ghz >= 2.0   # high UCF
        assert cfg.threads <= 24
