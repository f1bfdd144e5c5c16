"""Reference implementations the production fast paths are checked against.

Every speedup in :mod:`repro` (the fleet replay kernel, the array
timing and power models, the batched model evaluator, lockstep
training, row-shaped campaign jobs) replaced a straightforward loop.
The loops live here, outside the package, as independent checkers: the
equivalence suites compare production results with them to the bit,
and the ratio-gated benchmarks in ``benchmarks/`` time them as their
denominators.

* :mod:`tests.oracles.physics` — the scalar timing and power models
  (one region at one operating point, memoised), which the array forms
  every production run prices with must equal to the bit;
* :mod:`tests.oracles.engine` — the recursive execution engine (region
  by region, listeners called as the run goes, priced by the scalar
  physics) and the equivalence suites' shared harness;
* :mod:`tests.oracles.grids` — per-cell fresh-node loops for grids,
  heatmaps, trade-off sweeps and the variability study;
* :mod:`tests.oracles.savings` — the Table VI comparison on the
  recursive simulator engine;
* :mod:`tests.oracles.static` — the static controller (one
  configuration applied at run start), the reference for static runs'
  production form, the RRL under a default-only tuning model;
* :mod:`tests.oracles.models` — pointwise grid prediction, serial
  network training (layer-by-layer forward and backward, MSE,
  per-array ADAM), LOOCV, counter selection and static-configuration
  selection;
* :mod:`tests.oracles.static_search` — the one-job-per-cell exhaustive
  static search.

Import them as ``tests.oracles.<module>`` with the repository root on
``sys.path`` (``python -m pytest`` from the root, or a bench script,
which inserts the root itself).
"""
