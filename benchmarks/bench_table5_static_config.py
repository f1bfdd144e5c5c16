"""Table V: optimal static configuration per evaluation benchmark.

Paper: Lulesh 24T 2.40|1.70, Amg2013 16T 2.50|2.30, miniMD 24T
2.50|1.50, BEM4I 24T 2.30|1.90, Mcbenchmark 20T 1.60|2.50.  Expected
shape: the compute-bound four at high CF / low-to-mid UCF with 24 (16
for Amg2013) threads; Mcb at low CF / high UCF with 20 threads.
"""

from benchmarks._common import paper
from repro.analysis.reporting import render_static_configs

PAPER_TABLE5 = {
    "Lulesh": (24, 2.40, 1.70),
    "Amg2013": (16, 2.50, 2.30),
    "miniMD": (24, 2.50, 1.50),
    "BEM4I": (24, 2.30, 1.90),
    "Mcb": (20, 1.60, 2.50),
}


def test_table5_static_configurations(benchmark):
    results = benchmark.pedantic(paper, rounds=1, iterations=1).static
    print()
    print(render_static_configs({n: r.best for n, r in results.items()}))
    print("\npaper (threads, CF, UCF):")
    for name, row in PAPER_TABLE5.items():
        best = results[name].best
        print(f"  {name:10s} paper {row}  ours "
              f"({best.threads}, {best.core_freq_ghz}, {best.uncore_freq_ghz})"
              f"  saving {results[name].energy_saving:+.1%}")
    for name, (threads, cf, ucf) in PAPER_TABLE5.items():
        best = results[name].best
        # Within one tuning step of the paper's configuration per knob.
        assert abs(best.threads - threads) <= 4, name
        assert abs(best.core_freq_ghz - cf) <= 0.25, name
        assert abs(best.uncore_freq_ghz - ucf) <= 0.25, name
        assert results[name].energy_saving > 0.0, name
