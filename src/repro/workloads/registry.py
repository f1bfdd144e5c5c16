"""Benchmark registry — Table II of the paper.

Provides lookup by name, the full roster grouped by suite, and the
train/test split used in Section V-B (test set: Lulesh, Amg2013, miniMD,
BEM4I and Mcbenchmark; the remaining 14 benchmarks train the deployed
model).
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.errors import WorkloadError
from repro.workloads.application import Application, BenchmarkInfo
from repro.workloads.suites import bem4i, coral, llcbench, mantevo, npb

_BUILDERS: dict[str, Callable[[], Application]] = {}
for module in (npb, coral, mantevo, llcbench, bem4i):
    _BUILDERS.update(module.ALL)

#: Benchmarks the tuning plugin is evaluated on (Section V-B/V-C/V-D).
TEST_BENCHMARKS: tuple[str, ...] = ("Lulesh", "Amg2013", "miniMD", "BEM4I", "Mcb")

#: Memory-bound classification (used in reports, not by the model).
_MEMORY_BOUND = {"CG", "DC", "IS", "MG", "miniFE", "XSBench", "Mcb"}


def benchmark_names() -> tuple[str, ...]:
    """All 19 benchmark names in suite order."""
    return tuple(_BUILDERS)


def check_name(name: str) -> None:
    """Raise :class:`WorkloadError` unless ``name`` is registered."""
    if name not in _BUILDERS:
        raise WorkloadError(
            f"unknown benchmark: {name!r}; known: {sorted(_BUILDERS)}"
        )


def build(name: str) -> Application:
    """Construct a fresh application instance for ``name``."""
    check_name(name)
    return _BUILDERS[name]()


@functools.lru_cache(maxsize=None)
def stock(name: str) -> Application:
    """The application ``name``, built once per process and shared.

    For readers only — pricing, admission checks, default lookups —
    which must never mutate it; :func:`build` gives a private instance.
    The cache holds at most one build per registered name.
    """
    return build(name)


def default_threads(name: str) -> int:
    """``build(name).default_threads``, read off the :func:`stock` build."""
    return stock(name).default_threads


def build_all() -> dict[str, Application]:
    return {name: build(name) for name in _BUILDERS}


def info(name: str) -> BenchmarkInfo:
    app = build(name)
    return BenchmarkInfo(
        name=app.name,
        suite=app.suite,
        model=app.model,
        memory_bound=name in _MEMORY_BOUND,
        description=app.description,
    )


def roster() -> list[BenchmarkInfo]:
    """Table II: every benchmark with suite and programming model."""
    return [info(name) for name in _BUILDERS]


def training_benchmarks() -> tuple[str, ...]:
    """The 14 benchmarks used to train the deployed model (Section V-B)."""
    return tuple(n for n in _BUILDERS if n not in TEST_BENCHMARKS)
