"""Table VI: static and dynamic tuning results for the five benchmarks.

Paper (averages over the five benchmarks): static tuning saves 3.5% job
energy / 7.8% CPU energy; dynamic tuning saves 7.53% / 16.1% but costs
run time (-4% .. -14.5%); the combined DVFS/UFS/Score-P overhead beyond
the configuration effect is a few percent.  Expected shape: dynamic
energy savings exceed static on both metrics, CPU savings exceed job
savings, dynamic time savings negative.

The pytest entry reads the full paper table from the harness's
``run_paper`` pass (``benchmarks/_common.py``), whose controlled runs
ride the controlled-replay fast path and the on-disk result store.
Standalone, the module benchmarks the *controlled-run sweep* — the
four Table VI run variants under canned, deterministic tuning models —
through the controlled-replay production path and the recursive-engine
oracle (``tests/oracles/savings.py``), asserts their bit-equality and
reports the replay speedup::

    python benchmarks/bench_table6_savings.py --engine replay \
        --apps EP FT Lulesh --runs 3 --json dynamic-replay.json

The JSON feeds the CI perf-regression gate
(``benchmarks/baselines/dynamic-replay.json``).  The standalone run also
reports, ungated, a ``fresh_hits`` entry: the wall time of
:data:`FRESH_FLEETS` fleets of five fresh Lulesh RRL repetitions on one
canned tuning model (every member a schedule-cache hit) and the
``ComputeNode`` constructions per fleet, which a cache hit never needs.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # script execution: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.analysis.savings import compare_static_dynamic
from repro.execution.fleet_replay import FleetMember, fleet_run
from repro.execution.simulator import OperatingPoint
from repro.hardware.node import ComputeNode
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry
from tests.oracles.savings import recursive_savings

#: Default standalone sweep: the paper's five Table VI benchmarks.
DEFAULT_APPS = ("Lulesh", "Amg2013", "miniMD", "BEM4I", "Mcb")
DEFAULT_RUNS = 3
#: Fleets the ``fresh_hits`` entry times.
FRESH_FLEETS = 300


def canned_tuning_model(app_name: str) -> TuningModel:
    """A deterministic stand-in for the DTA's tuning model.

    Alternates two scenario configurations over the phase's first four
    children plus a phase scenario — the shape the design-time analysis
    produces — so the sweep exercises real switching without the
    expensive model-training pipeline.
    """
    app = registry.build(app_name)
    best = {"phase": OperatingPoint(2.5, 2.1, 24)}
    for i, region in enumerate(app.phase.children[:4]):
        best[region.name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app_name, "phase", best)


CANNED_STATIC = OperatingPoint(2.4, 2.0, 24)


def measure_app(
    app_name: str, runs: int = DEFAULT_RUNS, primary: str = "replay"
) -> dict:
    """Time the four-variant controlled-run sweep through both engines.

    ``primary`` is warmed up and timed first (the fairest position for
    the engine under scrutiny); both engines always run and their rows
    must agree to the bit.
    """
    model = canned_tuning_model(app_name)

    compare = {"replay": compare_static_dynamic, "recursive": recursive_savings}

    def sweep(engine: str):
        return compare[engine](app_name, CANNED_STATIC, model, runs=runs)

    order = (primary, "recursive" if primary == "replay" else "replay")
    sweep(primary)  # warm-up: registry, schedule cache and its pricing
    timings, rows = {}, {}
    for engine in order:
        start = time.perf_counter()
        rows[engine] = sweep(engine)
        timings[engine] = time.perf_counter() - start
    return {
        "app": app_name,
        "runs_per_variant": runs,
        "replay_ms": timings["replay"] * 1e3,
        "recursive_ms": timings["recursive"] * 1e3,
        "speedup": timings["recursive"] / timings["replay"],
        "engines_identical": rows["replay"] == rows["recursive"],
        "dynamic_cpu_energy_saving": rows["replay"].dynamic_cpu_energy_saving,
        "dynamic_job_energy_saving": rows["replay"].dynamic_job_energy_saving,
    }


def measure_fresh_hits(
    app_name: str = "Lulesh", fleets: int = FRESH_FLEETS, repetitions: int = 5
) -> dict:
    """Time ``fleets`` fleets of ``repetitions`` fresh RRL repetitions
    on one canned tuning model, counting the ``ComputeNode``s built.

    A warm-up fleet walks the schedule once; every timed member is then
    a schedule-cache hit, which needs no node.
    """
    app = registry.build(app_name)
    model = canned_tuning_model(app_name)

    def fleet(k: int) -> None:
        fleet_run(
            FleetMember(app=app, run_key=("fresh", k, rep), controller=RRL(model))
            for rep in range(repetitions)
        )

    fleet(-1)
    built = 0
    init = ComputeNode.__init__

    def counting_init(node, *args, **kwargs):
        nonlocal built
        built += 1
        init(node, *args, **kwargs)

    ComputeNode.__init__ = counting_init
    try:
        start = time.perf_counter()
        for k in range(fleets):
            fleet(k)
        elapsed = time.perf_counter() - start
    finally:
        ComputeNode.__init__ = init
    return {
        "app": app_name,
        "fleets": fleets,
        "repetitions": repetitions,
        "wall_ms": elapsed * 1e3,
        "nodes_per_fleet": built / fleets,
    }


def run_benchmark(
    apps: tuple[str, ...] = DEFAULT_APPS,
    runs: int = DEFAULT_RUNS,
    primary: str = "replay",
) -> dict:
    results = [measure_app(name, runs, primary) for name in apps]
    replay_total = sum(r["replay_ms"] for r in results)
    recursive_total = sum(r["recursive_ms"] for r in results)
    return {
        "benchmark": "table6_savings",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "primary_engine": primary,
        "results": results,
        "aggregate": {
            "apps": len(results),
            "replay_ms": replay_total,
            "recursive_ms": recursive_total,
            "speedup": recursive_total / replay_total,
            "engines_identical": all(r["engines_identical"] for r in results),
        },
    }


def render(report: dict) -> str:
    lines = [
        f"{'app':<10} {'recursive':>11} {'replay':>10} {'speedup':>8} "
        f"{'identical':>10}",
    ]
    for r in report["results"]:
        lines.append(
            f"{r['app']:<10} {r['recursive_ms']:>9.1f}ms {r['replay_ms']:>8.1f}ms "
            f"{r['speedup']:>7.1f}x {str(r['engines_identical']):>10}"
        )
    a = report["aggregate"]
    lines.append(
        f"{'aggregate':<10} {a['recursive_ms']:>9.1f}ms {a['replay_ms']:>8.1f}ms "
        f"{a['speedup']:>7.1f}x {str(a['engines_identical']):>10}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points (run with the bench harness)
# ---------------------------------------------------------------------------

def test_table6_static_vs_dynamic(benchmark):
    from benchmarks._common import paper
    from repro.analysis.reporting import render_savings

    rows = benchmark.pedantic(paper, rounds=1, iterations=1).savings
    print()
    print(render_savings(rows))
    static_job = float(np.mean([s.static_job_energy_saving for s in rows]))
    static_cpu = float(np.mean([s.static_cpu_energy_saving for s in rows]))
    dyn_job = float(np.mean([s.dynamic_job_energy_saving for s in rows]))
    dyn_cpu = float(np.mean([s.dynamic_cpu_energy_saving for s in rows]))
    print("\npaper averages: static 3.5%/7.8%, dynamic 7.53%/16.1% "
          "(job/CPU energy)")
    print(f"our averages:   static {static_job:.1%}/{static_cpu:.1%}, "
          f"dynamic {dyn_job:.1%}/{dyn_cpu:.1%}")
    # Both strategies save energy on average.
    assert static_job > 0 and static_cpu > 0
    assert dyn_job > 0 and dyn_cpu > 0
    # Dynamic beats static on CPU energy (the paper's headline claim).
    assert dyn_cpu > static_cpu
    # CPU-energy savings exceed job-energy savings (blade-power dilution).
    assert static_cpu > static_job
    assert dyn_cpu > dyn_job
    for s in rows:
        # Dynamic tuning costs run time on every benchmark.
        assert s.dynamic_time_saving < 0, s.benchmark
        # The overhead component (switching + Score-P) is a time cost.
        assert s.overhead < 0.02, s.benchmark


def test_table6_engine_speedup(benchmark):
    """Smoke: the controlled-run sweep replays faster and bit-identical.

    The committed numbers live in ``baselines/dynamic-replay.json``; CI
    boxes are too noisy for the full measured factor, so this only
    guards the floor and the equality flag.
    """
    report = benchmark.pedantic(
        lambda: run_benchmark(("Lulesh", "Mcb"), runs=2), rounds=1, iterations=1
    )
    print()
    print(render(report))
    assert report["aggregate"]["engines_identical"]
    assert report["aggregate"]["speedup"] > 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine", choices=("recursive", "replay"), default="replay",
        help="engine warmed up and timed first; both engines always run "
             "and their sweeps must agree to the bit",
    )
    parser.add_argument("--apps", nargs="*", default=None,
                        help=f"benchmark names (default: {' '.join(DEFAULT_APPS)})")
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS,
                        help="repetitions averaged per run variant")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    apps = tuple(args.apps) if args.apps else DEFAULT_APPS
    report = run_benchmark(apps, args.runs, primary=args.engine)
    report["fresh_hits"] = fresh = measure_fresh_hits()
    print(render(report))
    print(f"\nfresh hits (ungated): {fresh['fleets']} fleets x "
          f"{fresh['repetitions']} {fresh['app']} RRL repetitions in "
          f"{fresh['wall_ms']:.0f} ms, {fresh['nodes_per_fleet']:g} "
          "ComputeNodes per fleet")
    aggregate = report["aggregate"]
    if not aggregate["engines_identical"]:
        print("\nENGINE MISMATCH: replay and recursive sweeps disagree")
        return 1
    print(f"\ncontrolled-run sweep speedup: {aggregate['speedup']:.1f}x "
          f"(primary engine: {args.engine})")
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
