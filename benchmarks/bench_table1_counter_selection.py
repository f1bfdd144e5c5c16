"""Table I: optimal PAPI counter selection with VIF.

Paper: seven counters selected from the 56 presets by the stepwise
algorithm of Chadha et al. [24] with normalized node energy as the
dependent variable; mean VIF well below 10 (limited multicollinearity).
Expected shape: a compact selection (<= 7 counters) dominated by memory/
branch behaviour events, mean VIF < 10, and substantial explained
variance on top of the frequency covariates.
"""

from benchmarks._common import paper
from repro.analysis.reporting import render_counter_selection
from repro.counters.papi import TABLE1_COUNTERS, preset


def test_table1_counter_selection(benchmark):
    selection = benchmark.pedantic(paper, rounds=1, iterations=1).selection
    print()
    print(render_counter_selection(selection))
    overlap = set(selection.counters) & set(TABLE1_COUNTERS)
    print("overlap with the paper's Table I: "
          f"{sorted(preset(c).short_name for c in overlap)}")
    assert 3 <= len(selection.counters) <= 7
    assert selection.mean_vif < 10.0
    assert selection.adjusted_r2 > 0.4
