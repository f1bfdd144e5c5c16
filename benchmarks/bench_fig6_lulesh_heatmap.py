"""Figure 6: Lulesh normalized energy over the CF x UCF grid, 24 threads.

Paper: trend toward high core frequency and low uncore frequency
(compute bound); true best 2.4|1.7 GHz, plugin selection 2.5|2.1 GHz,
many configurations within 2% of the optimum.  Expected shape: best in
the high-CF/low-UCF corner region, plugin pick close to (within a few
percent of) the optimum.

Standalone, the module benchmarks the full-grid measurement through
both heatmap engines (``--engine {loop,sweep}``), asserts their
bit-equality and reports the fleet-kernel speedup::

    python benchmarks/bench_fig6_lulesh_heatmap.py --engine sweep \
        --apps Lulesh Mcb --json grid-sweep.json

The two-figure JSON feeds the CI perf-regression gate
(``benchmarks/baselines/grid-sweep.json``).
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # script execution: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import cluster, paper
from repro.analysis.heatmap import energy_heatmap
from repro.analysis.reporting import render_heatmap


def _heatmap():
    result = paper().outcomes["Lulesh"].plugin_result
    return energy_heatmap(
        "Lulesh",
        threads=result.phase_threads,
        cluster=cluster(),
        selected=(
            result.phase_configuration.core_freq_ghz,
            result.phase_configuration.uncore_freq_ghz,
        ),
    )


def test_fig6_lulesh_heatmap(benchmark):
    heatmap = benchmark.pedantic(_heatmap, rounds=1, iterations=1)
    print()
    print(render_heatmap(heatmap))
    best_cf, best_ucf = heatmap.best
    print("\npaper: best 2.4|1.7, plugin 2.5|2.1; "
          f"ours: best {best_cf}|{best_ucf}, plugin {heatmap.selected}")
    # Compute-bound trend: high CF, low-to-mid UCF.
    assert best_cf >= 2.2
    assert best_ucf <= 2.0
    # The plugin's verified pick stays within a few percent of the optimum
    # (the paper's pick 2.5|2.1 was itself off the true best 2.4|1.7).
    sel_value = heatmap.value_at(*heatmap.selected)
    assert sel_value <= heatmap.best_value * 1.05
    # A sizeable near-optimal plateau exists (the pink cells of Fig. 6).
    assert len(heatmap.plateau()) >= 5


def main(argv=None) -> int:
    from benchmarks._grid_sweep import main as grid_sweep_main

    return grid_sweep_main(
        argv, default_apps=("Lulesh",), description=__doc__.splitlines()[0]
    )


if __name__ == "__main__":
    sys.exit(main())
