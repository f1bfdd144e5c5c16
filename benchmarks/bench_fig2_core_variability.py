"""Figure 2: Lulesh node energy vs core frequency across compute nodes.

Paper: Figures 2a/2b — raw node energies differ per compute node
(power variability); normalising each node's series by its energy at the
calibration point (2.0|1.5 GHz) collapses the spread.  Expected shape:
clearly separated raw curves, near-identical normalized curves.
"""

from benchmarks._common import campaign_engine, cluster
from repro.analysis.reporting import render_variability
from repro.analysis.variability import variability_study
from repro.api import ExecutionOptions


def _study():
    return variability_study(
        "Lulesh", axis="core", nodes=(0, 1, 2, 3),
        cluster=cluster(),
        options=ExecutionOptions(campaign=campaign_engine()),
    )


def test_fig2_core_frequency_variability(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(render_variability(study))
    # Figure 2a: distinct node curves (relative spread across nodes).
    assert study.raw_spread > 0.005
    # Figure 2b: normalization collapses node-to-node spread.
    assert study.normalized_spread < study.raw_spread / 2
