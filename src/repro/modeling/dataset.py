"""Training-data acquisition (Section IV-A / V-B).

For every benchmark and (for OpenMP/hybrid codes) every thread count in
the 12..24 step-4 sweep:

* PAPI counter values are measured at the calibration operating point
  (2.0 GHz core, 1.5 GHz uncore), averaged over multiple runs (the PMU's
  4-counter limit forces multiplexed runs anyway), and normalised by the
  phase execution time — giving *rates*;
* node energy is measured across the DVFS sweep (all core frequencies at
  the calibration uncore frequency) and the UFS sweep (all uncore
  frequencies at the calibration core frequency), and normalised by the
  energy at the calibration point of the same series — giving ``E_norm``
  targets (run time is kept alongside for the power/time regression
  baseline).

One sample is ``[counter rates..., CF, UCF] -> E_norm``.  The thread
count is *not* an input of the network (Figure 4 has nine inputs); it
enters indirectly through the rates, which are measured at the same
thread count as the energies.

All simulations run through the :mod:`repro.campaign` engine: one plan
covering every (benchmark, threads) series is priced in fleet-kernel
shards, and an attached :class:`~repro.campaign.store.ResultStore`
lets repeated builds (benches, LOOCV retraining) reuse results instead
of re-simulating.  Campaign execution is bit-identical to the serial
per-run path these functions used before.  Each job itself executes
through the simulator's vectorized replay fast path
(:mod:`repro.execution.replay` — counter totals included), so dataset
builds are an order of magnitude faster per uncached job while
producing byte-identical stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.campaign.engine import (
    CampaignEngine,
    CampaignResults,
    engine_for,
    run_app_jobs,
)
from repro.campaign.plan import (
    COUNTER_MEASUREMENT_RUNS,
    CampaignJob,
    counter_jobs,
    grid_cells,
    plan_dataset_campaign,
    sweep_jobs,
    sweep_operating_points,
    thread_series,
)
from repro.counters.papi import TABLE1_COUNTERS, preset
from repro.errors import ModelError
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.workloads import registry
from repro.workloads.application import Application

__all__ = [
    "COUNTER_MEASUREMENT_RUNS",
    "EnergyDataset",
    "FEATURE_COUNTERS",
    "build_dataset",
    "measure_counter_rates",
    "measure_normalized_energy",
    "sweep_operating_points",
]

#: The model's counter features (Table I), in the paper's order.
FEATURE_COUNTERS: tuple[str, ...] = TABLE1_COUNTERS


@dataclass
class EnergyDataset:
    """Feature matrix, targets and per-sample benchmark labels."""

    features: np.ndarray          #: shape (n, n_counters + 2)
    targets: np.ndarray           #: normalized node energy, shape (n,)
    times: np.ndarray             #: normalized run time, shape (n,)
    groups: np.ndarray            #: benchmark name per sample, shape (n,)
    feature_names: tuple[str, ...]
    counter_rates: dict[str, np.ndarray]  #: per (benchmark, threads) rates

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ModelError("features must be 2-D")
        n = self.features.shape[0]
        if not (
            self.targets.shape == (n,)
            and self.groups.shape == (n,)
            and self.times.shape == (n,)
        ):
            raise ModelError("features/targets/times/groups size mismatch")

    @property
    def benchmarks(self) -> tuple[str, ...]:
        seen: list[str] = []
        for g in self.groups:
            if g not in seen:
                seen.append(str(g))
        return tuple(seen)

    def subset(self, names) -> "EnergyDataset":
        """Rows belonging to the given benchmarks."""
        names = set(names)
        mask = np.array([g in names for g in self.groups])
        if not mask.any():
            raise ModelError(f"no samples for benchmarks {sorted(names)}")
        return EnergyDataset(
            features=self.features[mask],
            targets=self.targets[mask],
            times=self.times[mask],
            groups=self.groups[mask],
            feature_names=self.feature_names,
            counter_rates={
                k: v for k, v in self.counter_rates.items() if k[0] in names
            },
        )

    def split(self, holdout) -> tuple["EnergyDataset", "EnergyDataset"]:
        """(train, test) split by benchmark names."""
        holdout = set(holdout)
        rest = [b for b in self.benchmarks if b not in holdout]
        return self.subset(rest), self.subset(holdout)


# ---------------------------------------------------------------------------
# Campaign-result assembly
# ---------------------------------------------------------------------------

def _rates_from_results(
    results: CampaignResults,
    jobs: tuple[CampaignJob, ...],
    canonical: list[str],
    app_name: str,
) -> dict[str, float]:
    """Average counter totals over the repetition jobs, normalise by the
    accumulated phase time (Section IV-C)."""
    sums = {c: 0.0 for c in canonical}
    phase_time = 0.0
    for job in jobs:
        payload = results[job]
        for c in canonical:
            sums[c] += payload["totals"][c]
        phase_time += payload["phase_time_s"]
    if phase_time <= 0:
        raise ModelError(f"{app_name}: no phase time measured")
    return {c: sums[c] / phase_time for c in canonical}


def _normalized_energy_from_results(
    results: CampaignResults, jobs: tuple[CampaignJob, ...]
) -> dict[tuple[float, float], tuple[float, float]]:
    """Normalise each sweep point of one series' ``sweep`` rows by the
    series' calibration point, in :func:`sweep_operating_points` order."""
    energy_of = grid_cells(jobs, results, "node_energy_j")
    time_of = grid_cells(jobs, results, "time_s")
    threads = jobs[0].threads
    raw = {
        (cf, ucf): (
            energy_of[OperatingPoint(cf, ucf, threads)],
            time_of[OperatingPoint(cf, ucf, threads)],
        )
        for cf, ucf in sweep_operating_points()
    }
    cal_e, cal_t = raw[
        (config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ)
    ]
    return {p: (e / cal_e, t / cal_t) for p, (e, t) in raw.items()}


# ---------------------------------------------------------------------------
# Measurement front-ends
# ---------------------------------------------------------------------------

def measure_counter_rates(
    app: Application,
    cluster: Cluster,
    *,
    node_id: int = 0,
    threads: int | None = None,
    counters: tuple[str, ...] = FEATURE_COUNTERS,
    runs: int = COUNTER_MEASUREMENT_RUNS,
    engine: CampaignEngine | None = None,
) -> dict[str, float]:
    """Counter rates (events per second of phase time) at calibration,
    on ``cluster`` (whose seed is the measurement's).

    Registry benchmarks run through the campaign engine; custom or
    mutated application instances run against the live object, in one
    fleet-kernel pass.
    """
    cluster.check_node_id(node_id)
    canonical = [preset(c).name for c in counters]
    jobs = counter_jobs(
        app.name,
        threads=threads,
        counters=tuple(canonical),
        runs=runs,
        node_id=node_id,
        seed=cluster.seed,
    )
    results = run_app_jobs(jobs, app, cluster=cluster, engine=engine)
    return _rates_from_results(results, jobs, canonical, app.name)


def measure_normalized_energy(
    app: Application,
    cluster: Cluster,
    *,
    node_id: int = 0,
    threads: int | None = None,
    engine: CampaignEngine | None = None,
) -> dict[tuple[float, float], tuple[float, float]]:
    """Per sweep point: (normalized energy, normalized time).

    Both are relative to the calibration point of this series (same
    benchmark, same thread count).
    """
    cluster.check_node_id(node_id)
    jobs = sweep_jobs(
        app.name, threads=threads, node_id=node_id, seed=cluster.seed
    )
    results = run_app_jobs(jobs, app, cluster=cluster, engine=engine)
    return _normalized_energy_from_results(results, jobs)


def build_dataset(
    benchmarks: tuple[str, ...] | list[str] | None = None,
    *,
    cluster: Cluster | None = None,
    node_id: int = 0,
    counters: tuple[str, ...] = FEATURE_COUNTERS,
    thread_counts: tuple[int, ...] | None = None,
    engine: CampaignEngine | None = None,
) -> EnergyDataset:
    """Assemble the full training dataset for the given benchmarks.

    ``thread_counts`` defaults to the paper's 12..24 step-4 sweep for
    thread-tunable codes; MPI-only codes contribute one series at their
    fixed configuration.  The whole campaign (counter measurements and
    energy sweeps for every series) is submitted to the engine as one
    plan, so its uncached counter jobs and ``sweep`` rows are priced
    together in fleet-kernel shards.  ``cluster`` (default
    ``Cluster(4)``) fixes node variability and measurement noise.
    """
    if benchmarks is None:
        benchmarks = registry.benchmark_names()
    cluster = cluster or Cluster(4)
    cluster.check_node_id(node_id)
    canonical = [preset(c).name for c in counters]
    plan = plan_dataset_campaign(
        benchmarks,
        thread_counts=thread_counts,
        counters=tuple(canonical),
        node_id=node_id,
        seed=cluster.seed,
    )
    results = engine_for(cluster, engine).run(plan)

    rows, targets, times, groups = [], [], [], []
    counter_rates: dict[tuple[str, int], np.ndarray] = {}
    for name in benchmarks:
        app = registry.build(name)
        for threads in thread_series(app, thread_counts):
            cjobs = counter_jobs(
                name, threads=threads, counters=tuple(canonical),
                node_id=node_id, seed=cluster.seed,
            )
            rates = _rates_from_results(results, cjobs, canonical, name)
            rate_vec = np.array([rates[c] for c in canonical])
            counter_rates[(name, threads)] = rate_vec
            sjobs = sweep_jobs(
                name, threads=threads, node_id=node_id, seed=cluster.seed
            )
            normalized = _normalized_energy_from_results(results, sjobs)
            for (cf, ucf), (e_norm, t_norm) in normalized.items():
                rows.append(np.concatenate([rate_vec, [cf, ucf]]))
                targets.append(e_norm)
                times.append(t_norm)
                groups.append(name)
    feature_names = tuple(preset(c).short_name for c in canonical) + ("CF", "UCF")
    return EnergyDataset(
        features=np.asarray(rows, dtype=float),
        targets=np.asarray(targets, dtype=float),
        times=np.asarray(times, dtype=float),
        groups=np.asarray(groups, dtype=object),
        feature_names=feature_names,
        counter_rates=counter_rates,
    )
