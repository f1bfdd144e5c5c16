"""Whole-paper regeneration: every headline artefact, loop vs fleet.

Regenerates the paper's evaluation artefacts end to end — the Figure
2/3 node-variability series, the Figure 6/7 CF x UCF energy grids, the
Table V best static configurations derived from them, and the Table VI
static-vs-dynamic savings rows — through two execution arms:

* ``loop`` — the per-cell / per-run references: one simulator pass
  per variability cell and one per grid cell (the loop oracles of
  ``tests/oracles/grids.py``), one in-process controlled run per
  savings variant;
* ``fleet`` — the batched fleet replay kernel
  (:mod:`repro.execution.fleet_replay`): all variability cells in one
  fleet, all grids in one :func:`repro.api.sweep_grids` pass, all
  savings variants in one fleet-sharded campaign plan.

Every artefact is serialised to canonical JSON and checksummed; the
arms must agree to the bit (``aggregate.artifacts_identical``) and the
fleet arm's wall-clock advantage is the gated ratio
(``aggregate.speedup``).  Standalone::

    python benchmarks/bench_paper_regen.py --json paper-regen.json

The JSON feeds the CI perf-regression gate
(``benchmarks/baselines/paper-regen.json``); the same artefact
checksums, at a reduced scale, are pinned by
``tests/integration/test_golden_paper_regen.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script execution: make `benchmarks` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_table6_savings import CANNED_STATIC, canned_tuning_model

from repro import api
from repro.analysis.savings import SavingsCase, compare_static_dynamic_many
from repro.analysis.variability import variability_study
from repro.campaign.engine import CampaignEngine
from tests.oracles.grids import loop_grid, loop_variability

ENGINES = ("loop", "fleet")

#: The artefact cast, scaled for a benchmark run: one variability
#: benchmark over both axes, the two paper heatmap cases, savings rows
#: for two apps with structurally different region trees.
VARIABILITY_BENCHMARK = "Lulesh"
VARIABILITY_NODES = (0, 1, 2)
FIG67_CASES = (("Lulesh", 24), ("Mcb", 20))
SAVINGS_APPS = ("Lulesh", "Mcb")
DEFAULT_STRIDE = 1
DEFAULT_RUNS = 3


def _variability_payload(study) -> dict:
    return {
        "benchmark": study.benchmark,
        "axis": study.axis,
        "frequencies": list(study.frequencies),
        "raw_energy_j": {
            str(n): study.raw_energy_j[n].tolist()
            for n in sorted(study.raw_energy_j)
        },
        "normalized_energy": {
            str(n): study.normalized_energy[n].tolist()
            for n in sorted(study.normalized_energy)
        },
        "raw_spread": study.raw_spread,
        "normalized_spread": study.normalized_spread,
    }


def _grid_payload(grid) -> dict:
    return {
        "benchmark": grid.benchmark,
        "threads": grid.threads,
        "core_frequencies": list(grid.core_frequencies),
        "uncore_frequencies": list(grid.uncore_frequencies),
        "node_energy_j": grid.node_energy_j.tolist(),
        "cpu_energy_j": grid.cpu_energy_j.tolist(),
        "time_s": grid.time_s.tolist(),
    }


def _best_config(grid) -> dict:
    """The Table V argmin of one grid: the best static (CF, UCF)."""
    energies = grid.node_energy_j
    flat = int(energies.argmin())
    i, j = divmod(flat, energies.shape[1])
    return {
        "core_freq_ghz": grid.core_frequencies[i],
        "uncore_freq_ghz": grid.uncore_frequencies[j],
        "node_energy_j": float(energies[i, j]),
    }


def _savings_payload(row) -> dict:
    def averages(a):
        return {
            "job_energy_j": a.job_energy_j,
            "cpu_energy_j": a.cpu_energy_j,
            "time_s": a.time_s,
        }

    return {
        "benchmark": row.benchmark,
        "static_config": [
            row.static_config.core_freq_ghz,
            row.static_config.uncore_freq_ghz,
            row.static_config.threads,
        ],
        "default": averages(row.default),
        "static": averages(row.static),
        "dynamic": averages(row.dynamic),
        "config_only": averages(row.config_only),
        "static_cpu_energy_saving": row.static_cpu_energy_saving,
        "dynamic_cpu_energy_saving": row.dynamic_cpu_energy_saving,
        "dynamic_time_saving": row.dynamic_time_saving,
    }


def savings_cases(apps=SAVINGS_APPS) -> list[SavingsCase]:
    return [
        SavingsCase(
            benchmark=name,
            static_config=CANNED_STATIC,
            tuning_model=canned_tuning_model(name),
        )
        for name in apps
    ]


def regenerate_artifacts(
    engine: str,
    *,
    stride: int = DEFAULT_STRIDE,
    runs: int = DEFAULT_RUNS,
) -> dict[str, dict]:
    """Every paper artefact, as canonical-JSON-ready dicts.

    ``engine="loop"`` uses the per-cell/per-run reference paths;
    ``engine="fleet"`` batches each artefact family through the fleet
    replay kernel.  Both arms must agree to the bit.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    artifacts: dict[str, dict] = {}

    measure = loop_variability if engine == "loop" else variability_study
    for figure, axis in (("fig2", "core"), ("fig3", "uncore")):
        study = measure(
            VARIABILITY_BENCHMARK, axis=axis, nodes=VARIABILITY_NODES
        )
        artifacts[f"{figure}_{axis}_variability"] = _variability_payload(study)

    specs = [
        api.GridSpec(name, threads=threads, stride=stride)
        for name, threads in FIG67_CASES
    ]
    if engine == "fleet":
        grids = api.sweep_grids(specs)
    else:
        grids = [
            loop_grid(s.benchmark, threads=s.threads, stride=s.stride)
            for s in specs
        ]
    for (name, threads), grid in zip(FIG67_CASES, grids):
        key = f"fig67_{name.lower()}_grid"
        artifacts[key] = _grid_payload(grid)
    artifacts["table5_best_configs"] = {
        grid.benchmark: _best_config(grid) for grid in grids
    }

    if engine == "fleet":
        options = api.ExecutionOptions(campaign=CampaignEngine())
    else:
        options = api.ExecutionOptions()
    rows = compare_static_dynamic_many(
        savings_cases(), runs=runs, options=options
    )
    artifacts["table6_savings"] = {
        row.benchmark: _savings_payload(row) for row in rows
    }
    return artifacts


def checksum(artifact: dict) -> str:
    canonical = json.dumps(artifact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_benchmark(
    stride: int = DEFAULT_STRIDE, runs: int = DEFAULT_RUNS
) -> dict:
    # Warm-up at token scale: registry, memoised region timings and
    # compiled structural schedules, so neither timed arm pays them.
    regenerate_artifacts("fleet", stride=max(stride, 7), runs=1)

    timings, arms = {}, {}
    for engine in ENGINES:
        start = time.perf_counter()
        arms[engine] = regenerate_artifacts(engine, stride=stride, runs=runs)
        timings[engine] = time.perf_counter() - start

    results = []
    for name in arms["fleet"]:
        fleet_sha = checksum(arms["fleet"][name])
        results.append(
            {
                "artifact": name,
                "sha256": fleet_sha,
                "identical": checksum(arms["loop"][name]) == fleet_sha,
            }
        )
    return {
        "benchmark": "paper_regen",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "stride": stride,
        "runs": runs,
        "results": results,
        "aggregate": {
            "artifacts": len(results),
            "loop_ms": timings["loop"] * 1e3,
            "fleet_ms": timings["fleet"] * 1e3,
            "speedup": timings["loop"] / timings["fleet"],
            "artifacts_identical": all(r["identical"] for r in results),
        },
    }


def render(report: dict) -> str:
    lines = [f"{'artifact':<28} {'identical':>10}  sha256"]
    for r in report["results"]:
        lines.append(
            f"{r['artifact']:<28} {str(r['identical']):>10}  {r['sha256'][:16]}"
        )
    a = report["aggregate"]
    lines.append(
        f"\nfull regeneration: loop {a['loop_ms']:.0f}ms, "
        f"fleet {a['fleet_ms']:.0f}ms, speedup {a['speedup']:.1f}x, "
        f"identical {a['artifacts_identical']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry point (run with the bench harness)
# ---------------------------------------------------------------------------

def test_paper_regen_smoke(benchmark):
    """Smoke: the fleet arm regenerates the paper faster, to the bit.

    The committed numbers live in ``baselines/paper-regen.json``; this
    reduced-scale entry guards the bit-equality flag and a conservative
    speedup floor (CI boxes are too noisy for the measured factor).
    """
    report = benchmark.pedantic(
        lambda: run_benchmark(stride=4, runs=2), rounds=1, iterations=1
    )
    print()
    print(render(report))
    assert report["aggregate"]["artifacts_identical"]
    assert report["aggregate"]["speedup"] > 1.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stride", type=int, default=DEFAULT_STRIDE,
                        help="grid-axis thinning stride for the Fig 6/7 "
                             f"heatmaps (default {DEFAULT_STRIDE}: full grids)")
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS,
                        help="repetitions averaged per Table VI run variant")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full report as JSON")
    args = parser.parse_args(argv)
    report = run_benchmark(stride=args.stride, runs=args.runs)
    print(render(report))
    if not report["aggregate"]["artifacts_identical"]:
        print("\nARTIFACT MISMATCH: loop and fleet regenerations disagree")
        return 1
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
