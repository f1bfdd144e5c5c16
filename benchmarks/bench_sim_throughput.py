"""Simulator throughput: the fleet kernel vs the recursive reference engine.

Measures uncontrolled application runs — the dataset-build / exhaustive
search / benchmark common case — through the simulator (a fleet of one)
and through the recursive engine of ``tests/oracles/engine.py``, and
reports per-app and aggregate

* milliseconds per run,
* runs per second,
* region-instances per second,
* the replay/generic speedup,

plus the campaign ``counters`` mode (a counters job priced by the
production campaign path, :func:`repro.campaign.engine.execute_job`, vs
the listener-based collector on the recursive engine, both on a fresh
node at the calibration point).

Runs standalone from the repository root with JSON output (the CI
perf-smoke step uploads the artifact)::

    python benchmarks/bench_sim_throughput.py --apps EP FT --runs 10 \
        --json sim-throughput.json

or under pytest alongside the other benches (one small measurement that
also sanity-checks the replay engine is actually engaged and faster).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script execution: make `tests` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import config
from repro.campaign.engine import execute_job
from repro.campaign.plan import counter_jobs
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.execution.simulator import ExecutionSimulator
from repro.hardware.node import ComputeNode
from repro.workloads import registry
from tests.oracles.engine import PhaseCounterCollector, recursive_run

#: Default measurement workload: every registry benchmark.
DEFAULT_RUNS = 30
GENERIC_RUNS_DIVISOR = 5  # the slow engine needs fewer repetitions

CANONICAL_COUNTERS = tuple(preset(c).name for c in TABLE1_COUNTERS)


def _time_per_run(run_once, runs: int) -> float:
    run_once(0)  # warm-up: registry caches; the oracle's scalar-physics memo
    start = time.perf_counter()
    for i in range(runs):
        run_once(i + 1)
    return (time.perf_counter() - start) / runs


def measure_app(app_name: str, runs: int = DEFAULT_RUNS) -> dict:
    """Replay vs generic timings for one benchmark."""
    app = registry.build(app_name)
    simulator = ExecutionSimulator(ComputeNode(0))
    instances = len(simulator.run(app, run_key=("bench", "warm")).instances)
    generic_runs = max(3, runs // GENERIC_RUNS_DIVISOR)

    replay_s = _time_per_run(
        lambda i: simulator.run(app, run_key=("bench", i)), runs
    )
    node = simulator.node
    generic_s = _time_per_run(
        lambda i: recursive_run(node, app, run_key=("bench", i)),
        generic_runs,
    )

    # One job per timed run (each repetition is its own noise key).
    jobs = counter_jobs(
        app_name, threads=None, counters=CANONICAL_COUNTERS, runs=runs + 1,
        node_id=0, seed=config.DEFAULT_SEED,
    )
    counters_replay_s = _time_per_run(lambda i: execute_job(jobs[i]), runs)

    def generic_counters(i):
        job = jobs[i]
        fresh = ComputeNode(job.node_id, seed=job.seed)
        fresh.set_frequencies(job.core_freq_ghz, job.uncore_freq_ghz)
        collector = PhaseCounterCollector(job.counters)
        recursive_run(
            fresh,
            app,
            seed=job.seed,
            listeners=(collector,),
            collect_counters=True,
            run_key=job.run_key(),
        )

    counters_generic_s = _time_per_run(generic_counters, generic_runs)

    return {
        "app": app_name,
        "instances_per_run": instances,
        "replay_ms_per_run": replay_s * 1e3,
        "generic_ms_per_run": generic_s * 1e3,
        "replay_runs_per_s": 1.0 / replay_s,
        "generic_runs_per_s": 1.0 / generic_s,
        "replay_instances_per_s": instances / replay_s,
        "generic_instances_per_s": instances / generic_s,
        "speedup": generic_s / replay_s,
        "counters_replay_ms_per_run": counters_replay_s * 1e3,
        "counters_generic_ms_per_run": counters_generic_s * 1e3,
        "counters_speedup": counters_generic_s / counters_replay_s,
    }


def run_benchmark(apps: tuple[str, ...] | None = None, runs: int = DEFAULT_RUNS) -> dict:
    """Measure the app set and aggregate the totals."""
    apps = tuple(apps) if apps else registry.benchmark_names()
    results = [measure_app(name, runs) for name in apps]
    replay_total = sum(r["replay_ms_per_run"] for r in results)
    generic_total = sum(r["generic_ms_per_run"] for r in results)
    instances_total = sum(r["instances_per_run"] for r in results)
    aggregate = {
        "apps": len(results),
        "instances_per_workload": instances_total,
        "replay_ms_per_workload": replay_total,
        "generic_ms_per_workload": generic_total,
        "replay_instances_per_s": instances_total / (replay_total / 1e3),
        "generic_instances_per_s": instances_total / (generic_total / 1e3),
        "speedup": generic_total / replay_total,
    }
    return {
        "benchmark": "sim_throughput",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs_per_app": runs,
        "results": results,
        "aggregate": aggregate,
    }


def render(report: dict) -> str:
    lines = [
        f"{'app':<12} {'inst':>5} {'generic':>10} {'replay':>10} "
        f"{'speedup':>8} {'inst/s':>10} {'ctr-speedup':>12}",
    ]
    for r in report["results"]:
        lines.append(
            f"{r['app']:<12} {r['instances_per_run']:>5} "
            f"{r['generic_ms_per_run']:>8.2f}ms {r['replay_ms_per_run']:>8.2f}ms "
            f"{r['speedup']:>7.1f}x {r['replay_instances_per_s']:>10.0f} "
            f"{r['counters_speedup']:>11.1f}x"
        )
    a = report["aggregate"]
    lines.append(
        f"{'aggregate':<12} {a['instances_per_workload']:>5} "
        f"{a['generic_ms_per_workload']:>8.2f}ms "
        f"{a['replay_ms_per_workload']:>8.2f}ms "
        f"{a['speedup']:>7.1f}x {a['replay_instances_per_s']:>10.0f}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point (runs with the bench harness)
# ---------------------------------------------------------------------------

def test_sim_throughput(benchmark):
    report = benchmark.pedantic(
        lambda: run_benchmark(("Lulesh", "Mcb", "FT"), runs=10),
        rounds=1,
        iterations=1,
    )
    print()
    print(render(report))
    # Smoke-level guarantees only — the committed numbers live in the
    # README performance section; CI boxes are too noisy for the full
    # measured factor (the ratio gate against the committed baseline is
    # the real guard).
    assert report["aggregate"]["speedup"] > 2
    for r in report["results"]:
        assert r["replay_ms_per_run"] < r["generic_ms_per_run"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--apps", nargs="*", default=None,
        help="benchmark names (default: the whole registry)",
    )
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    report = run_benchmark(tuple(args.apps) if args.apps else None, args.runs)
    print(render(report))
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
