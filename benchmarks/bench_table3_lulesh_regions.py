"""Table III: optimal configuration per significant region of Lulesh.

Paper: five significant regions, all at high CF (2.4--2.5) and UCF 2.0,
24 threads except ApplyMaterialPropertiesForElems at 20.  Expected
shape: five regions detected; compute-bound configurations (high CF,
low-to-mid UCF); ApplyMaterialPropertiesForElems at fewer threads than
the rest.
"""

from benchmarks._common import paper
from repro.analysis.reporting import render_region_configs

PAPER_REGIONS = {
    "IntegrateStressForElems",
    "CalcFBHourglassForceForElems",
    "CalcKinematicsForElems",
    "CalcQForElems",
    "ApplyMaterialPropertiesForElems",
}


def test_table3_lulesh_region_configs(benchmark):
    outcome = benchmark.pedantic(paper, rounds=1, iterations=1).outcomes["Lulesh"]
    configs = outcome.plugin_result.region_configurations
    print()
    print(render_region_configs("Lulesh", configs))
    print("\npaper: all regions 2.4-2.5 CF / 2.0 UCF, 24 threads "
          "(ApplyMaterialPropertiesForElems: 20)")
    assert set(configs) == PAPER_REGIONS
    for cfg in configs.values():
        assert cfg.core_freq_ghz >= 2.0     # compute-bound: high CF
        assert cfg.uncore_freq_ghz <= 2.2   # low-to-mid UCF
    others = [c.threads for r, c in configs.items()
              if r != "ApplyMaterialPropertiesForElems"]
    assert all(t == 24 for t in others)
    assert configs["ApplyMaterialPropertiesForElems"].threads <= 20
