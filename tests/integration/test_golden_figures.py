"""Golden-figure regression tests: pin the paper's numbers to fixtures.

Scaled-down, fully seeded versions of the headline artefacts —
Table 6 tuning savings, Figure 5 LOOCV MAPE, Table 1 counter
selection and the Figure 6/7 energy heatmaps — are pinned to committed
JSON fixtures, so a refactor that silently drifts the simulated
physics, the training pipeline or the selection algorithm fails here
even when every structural assertion still holds.  Table 6, Figure 5
and Figures 6/7 are also computed through their reference oracles
(``tests/oracles/``), which must agree to the bit before the fixture
comparison, keeping the goldens engine-independent.

Values are compared with a tight relative tolerance (1e-6): loose
enough for libm differences across platforms, far below any genuine
physics or modelling drift.

Regenerate after an *intentional* change::

    PYTHONPATH=src python tests/integration/test_golden_figures.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

if __package__ in (None, ""):  # script execution: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.bench_table6_savings import canned_tuning_model
from repro.analysis.savings import compare_static_dynamic
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.modeling.crossval import network_loocv_mape
from repro.modeling.dataset import build_dataset, measure_counter_rates
from repro.modeling.selection import select_counters
from repro.modeling.training import TrainingConfig
from repro.workloads import registry
from tests.oracles.grids import loop_heatmap
from tests.oracles.models import pointwise_loocv_mape
from tests.oracles.savings import recursive_savings

GOLDEN_DIR = Path(__file__).parent / "golden"
RELATIVE_TOLERANCE = 1e-6

#: The scaled Figure 5 / Table 1 dataset: a spread of models and suites.
DATASET_BENCHMARKS = ("EP", "CG", "FT", "MG")
DATASET_THREADS = (12, 24)

#: Candidate counters for the scaled Table 1 selection.
TABLE1_CANDIDATES = (
    "PAPI_L3_TCM", "PAPI_L2_TCM", "PAPI_TOT_INS", "PAPI_LD_INS",
    "PAPI_SR_INS", "PAPI_BR_INS", "PAPI_BR_MSP", "PAPI_FP_OPS",
    "PAPI_RES_STL", "PAPI_L1_DCM",
)


def compute_table6() -> dict:
    """Scaled Table 6: Lulesh under the bench's canned tuning model,
    two runs — the same workload the CI perf gate sweeps."""
    model = canned_tuning_model("Lulesh")
    static = OperatingPoint(2.4, 2.0, 24)
    row = compare_static_dynamic(
        "Lulesh", static, model, cluster=Cluster(2), runs=2
    )
    recursive = recursive_savings(
        "Lulesh", static, model, cluster=Cluster(2), runs=2
    )
    assert row == recursive, "engines disagree"
    return {
        "benchmark": row.benchmark,
        "static_job_energy_saving": row.static_job_energy_saving,
        "static_cpu_energy_saving": row.static_cpu_energy_saving,
        "static_time_saving": row.static_time_saving,
        "dynamic_job_energy_saving": row.dynamic_job_energy_saving,
        "dynamic_cpu_energy_saving": row.dynamic_cpu_energy_saving,
        "dynamic_time_saving": row.dynamic_time_saving,
        "config_setting_perf_reduction": row.config_setting_perf_reduction,
        "overhead": row.overhead,
        "default_job_energy_j": row.default.job_energy_j,
        "default_time_s": row.default.time_s,
    }


def _dataset():
    return build_dataset(
        DATASET_BENCHMARKS, thread_counts=DATASET_THREADS, cluster=Cluster(2)
    )


def compute_fig5() -> dict:
    """Scaled Figure 5: LOOCV MAPE per held-out benchmark, two epochs."""
    dataset = _dataset()
    config = TrainingConfig(epochs=2)
    batched = network_loocv_mape(dataset, config=config)
    pointwise = pointwise_loocv_mape(dataset, config=config)
    assert batched == pointwise, "engines disagree"
    return {"mape_per_benchmark": batched}


def compute_table1() -> dict:
    """Scaled Table 1: stepwise counter selection over ten candidates."""
    import numpy as np

    dataset = _dataset()
    cluster = Cluster(2)
    rate_rows = {
        bench: np.array(
            [
                measure_counter_rates(
                    registry.build(bench), cluster, counters=TABLE1_CANDIDATES
                )[c]
                for c in TABLE1_CANDIDATES
            ]
        )
        for bench in DATASET_BENCHMARKS
    }
    features = np.vstack([rate_rows[g] for g in dataset.groups])
    freqs = dataset.features[:, -2:]
    selection = select_counters(
        features, list(TABLE1_CANDIDATES), freqs, dataset.targets, max_counters=5
    )
    return {
        "counters": list(selection.counters),
        "mean_vif": selection.mean_vif,
        "adjusted_r2": selection.adjusted_r2,
    }


#: Paper plugin picks for the Figure 6/7 heatmaps (yellow cells).
FIG67_CASES = {
    "fig6-lulesh-heatmap": ("Lulesh", 24, (2.5, 2.1)),
    "fig7-mcb-heatmap": ("Mcb", 20, (1.6, 2.3)),
}


def _compute_heatmap(benchmark: str, threads: int, selected) -> dict:
    """One figure's full-grid heatmap, computed through the sweep engine
    and the per-cell loop oracle."""
    import numpy as np

    from repro.analysis.heatmap import energy_heatmap

    heatmap = energy_heatmap(
        benchmark, threads=threads, cluster=Cluster(2), selected=selected
    )
    loop = loop_heatmap(
        benchmark, threads=threads, cluster=Cluster(2), selected=selected
    )
    assert np.array_equal(heatmap.normalized, loop.normalized), (
        "engines disagree"
    )
    return {
        "best": list(heatmap.best),
        "best_value": heatmap.best_value,
        "selected_value": heatmap.value_at(*selected),
        "plateau": [list(cell) for cell in heatmap.plateau()],
        "selected_within_plateau": heatmap.selected_within_plateau(),
    }


def compute_fig6() -> dict:
    return _compute_heatmap(*FIG67_CASES["fig6-lulesh-heatmap"])


def compute_fig7() -> dict:
    return _compute_heatmap(*FIG67_CASES["fig7-mcb-heatmap"])


GOLDENS = {
    "table6-savings": compute_table6,
    "fig5-loocv-mape": compute_fig5,
    "table1-counter-selection": compute_table1,
    "fig6-lulesh-heatmap": compute_fig6,
    "fig7-mcb-heatmap": compute_fig7,
}


def _assert_matches(actual, expected, path=""):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert set(actual) == set(expected), path
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert list(actual) == list(expected), path
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=RELATIVE_TOLERANCE), path
    else:
        assert actual == expected, path


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_figure(name):
    fixture = GOLDEN_DIR / f"{name}.json"
    assert fixture.exists(), (
        f"missing fixture {fixture}; regenerate with "
        "`PYTHONPATH=src python tests/integration/test_golden_figures.py --regen`"
    )
    expected = json.loads(fixture.read_text())
    actual = GOLDENS[name]()
    _assert_matches(actual, expected)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen", action="store_true",
                        help="recompute and rewrite every fixture")
    args = parser.parse_args(argv)
    if not args.regen:
        parser.error("nothing to do; pass --regen to rewrite fixtures")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, compute in sorted(GOLDENS.items()):
        payload = compute()
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_DIR / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
