"""Section V-C: tuning time — model-based plugin vs exhaustive search,
plus the model-evaluation engine benchmark (pointwise vs batched).

Paper: for Mcbenchmark with n regions and a k x l x m search space, the
exhaustive approach of Sourouri et al. [7] costs n*k*l*m*t while the
model-based plugin costs (k + 1 + 9)*t, or (k + 1 + 9) phase iterations
when the main loop is progressive.  Expected shape: orders-of-magnitude
reduction, plus the measured plugin run confirming the experiment count.

The engine benchmark measures the *model-evaluation* side of tuning:
predicting the energy-optimal static configuration for every
(benchmark, threads) series over the full core x uncore grid, through
the batched production path and the pointwise reference
(``tests/oracles/models.py``).  Selections are asserted identical; the
JSON report (the CI perf gate compares its ``speedup`` against
``benchmarks/baselines/tuning-time.json``) looks like::

    python benchmarks/bench_tuning_time.py --engine batched \
        --json tuning-time.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script execution: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import cluster, deployed_model, full_dataset, tuned_outcome
from repro.analysis.reporting import render_tuning_time
from repro.analysis.tuning_time import tuning_time_comparison
from repro.modeling.batched import frequency_grid
from repro.ptf.static_tuning import select_static_configurations
from tests.oracles.models import pointwise_static_selections

#: Model-evaluation engines: the pointwise oracle and production.
ENGINES = ("pointwise", "batched")

#: Timing repetitions per engine (each covers every registry series).
DEFAULT_REPEATS = 5


def measure_model_engines(repeats: int = DEFAULT_REPEATS) -> dict:
    """Time static-configuration selection through both engines.

    One "round" predicts the full frequency grid for every
    (benchmark, threads) series of the Figure 5 dataset and selects the
    energy-optimal static configuration per series.
    """
    dataset = full_dataset()
    model = deployed_model()
    series = dataset.counter_rates

    select = {
        "pointwise": pointwise_static_selections,
        "batched": select_static_configurations,
    }

    def run_once(engine: str):
        return select[engine](model, series)

    timings: dict[str, float] = {}
    selections: dict[str, dict] = {}
    for engine in ENGINES:
        selections[engine] = run_once(engine)  # warm-up (registry, caches)
        start = time.perf_counter()
        for _ in range(repeats):
            selections[engine] = run_once(engine)
        timings[engine] = (time.perf_counter() - start) / repeats

    identical = selections["pointwise"] == selections["batched"]
    points, _ = frequency_grid()
    return {
        "series": len(series),
        "grid_points": len(points),
        "predictions_per_round": len(series) * len(points),
        "repeats": repeats,
        "pointwise_ms": timings["pointwise"] * 1e3,
        "batched_ms": timings["batched"] * 1e3,
        "speedup": timings["pointwise"] / timings["batched"],
        "selections_identical": identical,
    }


def run_benchmark(
    engine: str = "batched", repeats: int = DEFAULT_REPEATS
) -> dict:
    """The full report: engine timings + the Section V-C estimate."""
    if engine not in ENGINES:
        raise SystemExit(f"--engine must be one of {ENGINES}")
    engines = measure_model_engines(repeats=repeats)
    comparison = tuning_time_comparison("Mcb", cluster=cluster(), num_regions=5)
    estimate = comparison.estimate
    return {
        "benchmark": "tuning_time",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engine": engine,
        "model_evaluation": engines,
        "speedup": engines["speedup"],
        "section_v_c": {
            "exhaustive_runs": estimate.exhaustive_runs,
            "model_based_experiments": estimate.model_based_experiments,
            "speedup_over_exhaustive": comparison.speedup_over_exhaustive,
        },
    }


def render(report: dict) -> str:
    e = report["model_evaluation"]
    v = report["section_v_c"]
    return "\n".join(
        [
            f"model evaluation over {e['series']} series x "
            f"{e['grid_points']} grid points "
            f"({e['predictions_per_round']} predictions/round):",
            f"  pointwise {e['pointwise_ms']:8.2f} ms/round",
            f"  batched   {e['batched_ms']:8.2f} ms/round   "
            f"({e['speedup']:.1f}x, selections identical: "
            f"{e['selections_identical']})",
            f"section V-C: exhaustive {v['exhaustive_runs']} runs vs "
            f"{v['model_based_experiments']} model-based experiments "
            f"({v['speedup_over_exhaustive']:.0f}x)",
        ]
    )


# ---------------------------------------------------------------------------
# pytest entry points (run with the bench harness)
# ---------------------------------------------------------------------------

def _compare():
    cmp = tuning_time_comparison("Mcb", cluster=cluster(), num_regions=5)
    outcome = tuned_outcome("Mcb")
    return cmp, outcome.plugin_result


def test_tuning_time_comparison(benchmark):
    cmp, plugin = benchmark.pedantic(_compare, rounds=1, iterations=1)
    print()
    print(render_tuning_time(cmp))
    print(f"\nmeasured plugin: {plugin.experiments_performed} experiments in "
          f"{plugin.application_runs} application runs, "
          f"{plugin.tuning_time_s:.0f} s simulated tuning time")
    estimate = cmp.estimate
    assert estimate.exhaustive_runs == 5 * 4 * 14 * 18  # n*k*l*m
    assert estimate.model_based_experiments == 4 + 1 + 9  # k + 1 + 9
    assert cmp.speedup_over_exhaustive > 300
    # The measured plugin respects the k + 9 experiment budget.
    assert plugin.experiments_performed <= 13
    # Phase-iteration exploitation beats whole-run experiments.
    assert cmp.model_based_phase_time_s < cmp.model_based_run_time_s
    # And the actually-measured tuning time is far below exhaustive.
    assert plugin.tuning_time_s < estimate.exhaustive_time_s / 100


def test_model_evaluation_engines(benchmark):
    report = benchmark.pedantic(
        lambda: measure_model_engines(repeats=3), rounds=1, iterations=1
    )
    print()
    print(f"pointwise {report['pointwise_ms']:.2f} ms, "
          f"batched {report['batched_ms']:.2f} ms "
          f"({report['speedup']:.1f}x)")
    assert report["selections_identical"]
    # Smoke-level bound only; the committed baseline holds the real
    # number and the CI perf gate compares against it.
    assert report["speedup"] > 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine", choices=ENGINES, default="batched",
        help="engine whose selections are published (both are always "
             "measured and asserted identical)",
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    report = run_benchmark(args.engine, repeats=args.repeats)
    print(render(report))
    if not report["model_evaluation"]["selections_identical"]:
        print("ERROR: engines disagree on selected configurations")
        return 1
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
