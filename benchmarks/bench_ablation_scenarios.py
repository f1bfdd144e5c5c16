"""Ablation: scenario grouping (System-Scenario methodology).

DESIGN.md calls out scenario grouping — regions with equal best
configurations share a scenario, so the RRL switches hardware only when
crossing scenario boundaries.  This ablation measures the switch counts
and switching time with the plugin's grouped tuning model versus a
degenerate model where every region is its own scenario with slightly
perturbed configurations (worst case for switching).  Expected shape:
grouping cuts hardware switches substantially at equal energy.
"""

from benchmarks._common import cluster, paper
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.readex.rrl import RRL
from repro.readex.scenario import Scenario
from repro.readex.tuning_model import TuningModel
from repro.util.tables import render_table
from repro.workloads import registry


def _degenerate_tmm(grouped: TuningModel) -> TuningModel:
    """Every region its own scenario with a *distinct* configuration, so
    each region enter is guaranteed to force a hardware switch — the
    worst case scenario grouping protects against."""
    from repro import config as _cfg

    scenarios = []
    regions = sorted(r for s in grouped.scenarios for r in s.regions)
    for i, region in enumerate(regions):
        threads = grouped.configuration_for(region).threads
        scenarios.append(
            Scenario(
                scenario_id=i,
                configuration=OperatingPoint(
                    core_freq_ghz=_cfg.CORE_FREQUENCIES_GHZ[
                        i % len(_cfg.CORE_FREQUENCIES_GHZ)
                    ],
                    uncore_freq_ghz=_cfg.UNCORE_FREQUENCIES_GHZ[
                        (2 * i) % len(_cfg.UNCORE_FREQUENCIES_GHZ)
                    ],
                    threads=threads,
                ),
                regions=(region,),
            )
        )
    return TuningModel(
        app_name=grouped.app_name,
        phase_region=grouped.phase_region,
        scenarios=tuple(scenarios),
        default=grouped.default,
    )


def _run(name: str, tmm: TuningModel):
    rrl = RRL(tmm)
    result = ExecutionSimulator(cluster().fresh_node(2)).run(
        registry.build(name), controller=rrl, instrumented=True
    )
    return rrl.stats, result


def _ablate():
    rows = []
    for name in ("Lulesh", "Mcb"):
        grouped_tmm = paper().outcomes[name].tuning_model
        grouped_stats, grouped_run = _run(name, grouped_tmm)
        degenerate_stats, degenerate_run = _run(name, _degenerate_tmm(grouped_tmm))
        rows.append(
            (
                name,
                len(grouped_tmm.scenarios),
                grouped_stats.frequency_switches,
                degenerate_stats.frequency_switches,
                grouped_run.switching_time_s,
                degenerate_run.switching_time_s,
            )
        )
    return rows


def test_ablation_scenario_grouping(benchmark):
    rows = benchmark.pedantic(_ablate, rounds=1, iterations=1)
    print()
    print(
        render_table(
            [
                "Benchmark",
                "scenarios",
                "switches (grouped)",
                "switches (per-region)",
                "switch time grouped (s)",
                "switch time per-region (s)",
            ],
            [[n, s, g, d, f"{gt:.6f}", f"{dt:.6f}"] for n, s, g, d, gt, dt in rows],
            title="Ablation: scenario grouping vs per-region configurations",
        )
    )
    for name, scenarios, grouped, degenerate, gt, dt in rows:
        assert grouped < degenerate, name
        assert gt < dt, name
