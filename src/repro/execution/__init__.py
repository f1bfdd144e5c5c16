"""Execution simulation: timing, thread scaling, the simulator, jobs.

This package turns (application, operating point, node) into elapsed
time, meter readings and counter values — the role the physical testbed
plays in the paper.
"""

from repro.execution.speedup import thread_speedup, memory_bandwidth_gbs
from repro.execution.timing import RegionTiming
from repro.execution.simulator import (
    ExecutionSimulator,
    OperatingPoint,
    RegionInstance,
    RunResult,
)
from repro.execution.controlled_replay import ControlSchedule, ScheduleCache
from repro.execution.job import JobRecord, JobStep
from repro.execution.slurm import SlurmAccounting

__all__ = [
    "thread_speedup",
    "memory_bandwidth_gbs",
    "RegionTiming",
    "ExecutionSimulator",
    "OperatingPoint",
    "RegionInstance",
    "RunResult",
    "ControlSchedule",
    "ScheduleCache",
    "JobRecord",
    "JobStep",
    "SlurmAccounting",
]
