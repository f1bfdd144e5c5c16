"""Figure 3: Lulesh node energy vs uncore frequency across compute nodes.

Paper: Figures 3a/3b — scenario 2 of Section IV-B: the uncore frequency
sweeps 1.3--3.0 GHz with the core frequency fixed at 2.0 GHz; raw
energies spread across nodes, normalized energies collapse.
"""

from benchmarks._common import campaign_engine, cluster
from repro.analysis.reporting import render_variability
from repro.analysis.variability import variability_study
from repro.api import ExecutionOptions


def _study():
    return variability_study(
        "Lulesh", axis="uncore", nodes=(0, 1, 2, 3),
        cluster=cluster(),
        options=ExecutionOptions(campaign=campaign_engine()),
    )


def test_fig3_uncore_frequency_variability(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)
    print()
    print(render_variability(study))
    assert study.raw_spread > 0.005
    assert study.normalized_spread < study.raw_spread / 2
