"""The one-job-per-cell exhaustive static search.

:func:`repro.ptf.static_tuning.exhaustive_static_search` measures its
grid as per-(threads, CF) row jobs.  This oracle plans one ``static``
campaign job per cell and executes each from scratch with
:func:`repro.campaign.engine.execute_job` — no engine, no store, no
rows — then selects the argmin the same way.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.campaign.engine import execute_job
from repro.campaign.plan import static_jobs, static_operating_points
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.ptf.objectives import ENERGY, Objective
from repro.ptf.static_tuning import StaticTuningResult
from repro.workloads.application import Application


def cell_static_search(
    app: Application,
    cluster: Cluster,
    *,
    node_id: int = 0,
    objective: Objective = ENERGY,
    stride: int = 1,
    thread_counts: tuple[int, ...] | None = None,
) -> StaticTuningResult:
    points = static_operating_points(
        app, stride=stride, thread_counts=thread_counts
    )
    jobs = static_jobs(
        app.name, points=points, node_id=node_id, node_seed=cluster.seed
    )
    payloads = [execute_job(job, cluster.topology, app=app) for job in jobs]
    energies = np.array([p["node_energy_j"] for p in payloads])
    times = np.array([p["time_s"] for p in payloads])
    best = int(np.argmin(objective.batch(energies, times)))
    default = points.index(
        OperatingPoint(
            config.DEFAULT_CORE_FREQ_GHZ,
            config.DEFAULT_UNCORE_FREQ_GHZ,
            config.DEFAULT_OPENMP_THREADS,
        )
    )
    return StaticTuningResult(
        app_name=app.name,
        best=points[best],
        best_energy_j=float(energies[best]),
        best_time_s=float(times[best]),
        default_energy_j=float(energies[default]),
        default_time_s=float(times[default]),
        configurations_tried=len(points),
    )
