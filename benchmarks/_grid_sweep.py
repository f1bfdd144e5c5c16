"""Shared loop-vs-sweep measurement core for the Figure 6/7 grids.

``bench_fig6_lulesh_heatmap.py`` and ``bench_fig7_mcb_heatmap.py``
delegate their standalone mode here: the full 14 x 18 CF x UCF grid of
one figure is measured through **both** heatmap engines — the
config-axis sweep replay (:mod:`repro.execution.sweep_replay`) and the
historical one-configuration-at-a-time loop (``tests/oracles/grids.py``)
— their normalized grids are asserted bit-equal, and the speedup is
reported.

The JSON report (kind ``grid_sweep``) feeds the CI perf-regression gate.
The committed baseline covers both figures in one report::

    python benchmarks/bench_fig6_lulesh_heatmap.py --apps Lulesh Mcb \
        --json benchmarks/baselines/grid-sweep.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis.heatmap import energy_heatmap
from repro.hardware.cluster import Cluster
from tests.oracles.grids import loop_heatmap

#: Figure benchmark -> the paper's optimal thread count for it.
FIG_THREADS = {"Lulesh": 24, "Mcb": 20}


def measure_app(app_name: str, primary: str = "sweep") -> dict:
    """Time one figure's full-grid measurement through both engines.

    ``primary`` is warmed up and timed first (the fairest position for
    the engine under scrutiny); both engines always run and their
    normalized grids must agree to the bit.
    """
    threads = FIG_THREADS.get(app_name, 24)

    heatmap = {"sweep": energy_heatmap, "loop": loop_heatmap}

    def grid(engine: str):
        return heatmap[engine](app_name, threads=threads, cluster=Cluster(2))

    order = (primary, "loop" if primary == "sweep" else "sweep")
    grid(primary)  # warm-up: registry, memoised timings, RNG fast path
    timings, maps = {}, {}
    for engine in order:
        start = time.perf_counter()
        maps[engine] = grid(engine)
        timings[engine] = time.perf_counter() - start
    identical = bool(
        np.array_equal(maps["sweep"].normalized, maps["loop"].normalized)
        and maps["sweep"].best == maps["loop"].best
    )
    return {
        "app": app_name,
        "threads": threads,
        "grid_cells": int(maps["sweep"].normalized.size),
        "sweep_ms": timings["sweep"] * 1e3,
        "loop_ms": timings["loop"] * 1e3,
        "speedup": timings["loop"] / timings["sweep"],
        "engines_identical": identical,
        "best": list(maps["sweep"].best),
    }


def run_benchmark(
    apps: tuple[str, ...], primary: str = "sweep"
) -> dict:
    results = [measure_app(name, primary) for name in apps]
    sweep_total = sum(r["sweep_ms"] for r in results)
    loop_total = sum(r["loop_ms"] for r in results)
    return {
        "benchmark": "grid_sweep",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "primary_engine": primary,
        "results": results,
        "aggregate": {
            "apps": len(results),
            "sweep_ms": sweep_total,
            "loop_ms": loop_total,
            "speedup": loop_total / sweep_total,
            "engines_identical": all(r["engines_identical"] for r in results),
        },
    }


def render(report: dict) -> str:
    lines = [
        f"{'app':<10} {'cells':>6} {'loop':>10} {'sweep':>10} {'speedup':>8} "
        f"{'identical':>10}",
    ]
    for r in report["results"]:
        lines.append(
            f"{r['app']:<10} {r['grid_cells']:>6} {r['loop_ms']:>8.1f}ms "
            f"{r['sweep_ms']:>8.1f}ms {r['speedup']:>7.1f}x "
            f"{str(r['engines_identical']):>10}"
        )
    a = report["aggregate"]
    lines.append(
        f"{'aggregate':<10} {'':>6} {a['loop_ms']:>8.1f}ms "
        f"{a['sweep_ms']:>8.1f}ms {a['speedup']:>7.1f}x "
        f"{str(a['engines_identical']):>10}"
    )
    return "\n".join(lines)


def main(argv, *, default_apps: tuple[str, ...], description: str) -> int:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--engine", choices=("loop", "sweep"), default="sweep",
        help="engine warmed up and timed first; both engines always run "
             "and their grids must agree to the bit",
    )
    parser.add_argument(
        "--apps", nargs="*", default=None,
        help=f"benchmark names (default: {' '.join(default_apps)}; "
             f"known threads for {', '.join(FIG_THREADS)})",
    )
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    apps = tuple(args.apps) if args.apps else default_apps
    report = run_benchmark(apps, primary=args.engine)
    print(render(report))
    aggregate = report["aggregate"]
    if not aggregate["engines_identical"]:
        print("\nENGINE MISMATCH: sweep and loop grids disagree")
        return 1
    print(f"\ngrid-sweep speedup: {aggregate['speedup']:.1f}x "
          f"(primary engine: {args.engine})")
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0
