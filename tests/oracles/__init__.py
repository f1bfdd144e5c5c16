"""Reference implementations the production fast paths are checked against.

Every speedup in :mod:`repro` (sweep and fleet replay, the batched
model evaluator, row-shaped campaign jobs) replaced a straightforward
loop.  The loops live here, outside the package, as independent
checkers: the equivalence suites compare production results with them
to the bit, and the ratio-gated benchmarks in ``benchmarks/`` time them
as their denominators.

* :mod:`tests.oracles.grids` — per-cell fresh-node loops for grids,
  heatmaps, trade-off sweeps and the variability study;
* :mod:`tests.oracles.savings` — the Table VI comparison on the
  recursive simulator engine;
* :mod:`tests.oracles.models` — pointwise grid prediction, LOOCV,
  counter selection and static-configuration selection;
* :mod:`tests.oracles.static_search` — the one-job-per-cell exhaustive
  static search.

Import them as ``tests.oracles.<module>`` with the repository root on
``sys.path`` (``python -m pytest`` from the root, or a bench script,
which inserts the root itself).
"""
