#!/usr/bin/env python3
"""Fail CI when a benchmark report regresses against its baseline.

Compares the JSON report of a benchmark run (``bench_sim_throughput.py
--json``, ``bench_fig5_loocv_mape.py --json``, ...) against the committed
baseline under ``benchmarks/baselines/`` and exits non-zero when any
gated metric drops by more than ``--max-drop`` (default 30%).

Gated metrics are *ratios* (fast-path speedup over the reference
implementation measured in the same process), so they are comparable
across machines: a CI runner half as fast as the baseline machine still
reports the same speedup, while a 2x slowdown injected into the fast
path halves the ratio and trips the gate.  Correctness flags in the
report (``selections_identical``) are gated too.

Usage::

    python scripts/check_perf_regression.py current.json \
        benchmarks/baselines/sim-throughput.json [--max-drop 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Dotted paths of the higher-is-better ratio metrics per report kind.
GATED_METRICS: dict[str, tuple[str, ...]] = {
    "sim_throughput": ("aggregate.speedup",),
    "tuning_time": ("model_evaluation.speedup",),
    # Both LOOCV arms train every fold cold (no store), so the serial
    # oracle over the lockstep pass is machine-comparable.
    "loocv_mape": ("speedup",),
    "table6_savings": ("aggregate.speedup",),
    "grid_sweep": ("aggregate.speedup",),
    "store_scale": (
        "backends.sqlite.recall_speedup",
        "backends.sqlite.cold_open_speedup",
        "backends.segment.recall_speedup",
        "backends.segment.cold_open_speedup",
    ),
    "serving_throughput": ("aggregate.speedup",),
    # serving_scaling gates core-normalised parallel efficiency, not the
    # raw multi-worker speedup: a 1-core runner cannot reproduce a
    # wall-clock multiple, but efficiency (speedup / usable cores) is
    # machine-comparable the same way the other ratios are.
    "serving_scaling": ("aggregate.efficiency",),
    "paper_regen": ("aggregate.speedup",),
}

#: Dotted paths of boolean flags that must be true, per report kind.
REQUIRED_FLAGS: dict[str, tuple[str, ...]] = {
    "sim_throughput": (),
    "tuning_time": ("model_evaluation.selections_identical",),
    "loocv_mape": ("mape_identical",),
    "table6_savings": ("aggregate.engines_identical",),
    "grid_sweep": ("aggregate.engines_identical",),
    "store_scale": ("payloads_identical",),
    # no_admission_delay: with one request in flight at a time, the
    # batched service answers as fast as the unbatched one (no timer).
    "serving_throughput": (
        "aggregate.responses_identical",
        "aggregate.coalescing_engaged",
        "aggregate.no_admission_delay",
    ),
    "serving_scaling": ("aggregate.responses_identical",),
    "paper_regen": ("aggregate.artifacts_identical",),
}


def lookup(report: dict, dotted: str):
    value = report
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise SystemExit(
                f"metric {dotted!r} missing from report "
                f"(found up to {part!r}); was the report produced by an "
                "older benchmark schema?"
            )
        value = value[part]
    return value


def check(current: dict, baseline: dict, max_drop: float) -> list[str]:
    """All regression messages (empty when the gate passes)."""
    kind = current.get("benchmark")
    if kind != baseline.get("benchmark"):
        raise SystemExit(
            f"report kind mismatch: current is {kind!r}, "
            f"baseline is {baseline.get('benchmark')!r}"
        )
    if kind not in GATED_METRICS:
        raise SystemExit(f"no gated metrics known for report kind {kind!r}")
    failures = []
    for dotted in GATED_METRICS[kind]:
        now = float(lookup(current, dotted))
        then = float(lookup(baseline, dotted))
        floor = then * (1.0 - max_drop)
        status = "OK  " if now >= floor else "FAIL"
        print(
            f"{status} {dotted}: {now:.2f} vs baseline {then:.2f} "
            f"(floor {floor:.2f})"
        )
        if now < floor:
            failures.append(
                f"{dotted} dropped {(1 - now / then) * 100:.0f}% "
                f"({then:.2f} -> {now:.2f}, allowed {max_drop * 100:.0f}%)"
            )
    for dotted in REQUIRED_FLAGS[kind]:
        if not lookup(current, dotted):
            print(f"FAIL {dotted}: expected true")
            failures.append(f"{dotted} is not true")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh benchmark JSON")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.30,
        help="maximum tolerated fractional drop of a gated ratio (default 0.30)",
    )
    args = parser.parse_args(argv)
    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures = check(current, baseline, args.max_drop)
    if failures:
        print(f"\nperf gate FAILED against {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nperf gate passed against {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
