"""Figure 7: Mcbenchmark normalized energy over the CF x UCF grid.

Paper: trend toward high uncore frequency and low core frequency
(memory bound, needs bandwidth); true best 1.6|2.5 GHz at 20 threads,
plugin selection 1.6|2.3 GHz.  Expected shape: best in the
low-CF/high-UCF corner region, opposite of Lulesh.

Standalone, the module benchmarks the Mcb full-grid measurement through
both heatmap engines (``--engine {loop,sweep}``) with a built-in
bit-equality assertion — see ``benchmarks/_grid_sweep.py``::

    python benchmarks/bench_fig7_mcb_heatmap.py --engine sweep
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
    result = paper().outcomes["Mcb"].plugin_result
    return energy_heatmap(
        "Mcb",
        threads=result.phase_threads,
        cluster=cluster(),
        selected=(
            result.phase_configuration.core_freq_ghz,
            result.phase_configuration.uncore_freq_ghz,
        ),
    )


def test_fig7_mcb_heatmap(benchmark):
    heatmap = benchmark.pedantic(_heatmap, rounds=1, iterations=1)
    print()
    print(render_heatmap(heatmap))
    best_cf, best_ucf = heatmap.best
    print("\npaper: best 1.6|2.5 (20 threads), plugin 1.6|2.3; "
          f"ours: best {best_cf}|{best_ucf} ({heatmap.threads} threads), "
          f"plugin {heatmap.selected}")
    # Memory-bound trend: low CF, high UCF — the mirror image of Fig. 6.
    assert best_cf <= 2.0
    assert best_ucf >= 2.2
    sel_value = heatmap.value_at(*heatmap.selected)
    assert sel_value <= heatmap.best_value * 1.05


def main(argv=None) -> int:
    from benchmarks._grid_sweep import main as grid_sweep_main

    return grid_sweep_main(
        argv, default_apps=("Mcb",), description=__doc__.splitlines()[0]
    )


if __name__ == "__main__":
    sys.exit(main())
