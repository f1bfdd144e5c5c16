"""The repository benchmark: the paper pipeline on an empty store, and an
open-loop mix of tuning-service requests.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``paper-cold``  the whole paper chain (``paper.py``) on an empty SQLite
                result store per pass, then one recall pass on a filled
                store, checked against the cold ones;
``serve-mix``   open-loop Poisson arrivals into ``TuningService.handle``
                (``serve.py``).

With ``--trace 0`` the last line of standard output is one JSON object
carrying every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric, and the spans of the traced operations are written as
Chrome trace-event JSON to
``.perfbench-out/trace-<workload>-<seed>.json``.  Lines before it
describe the run for a reader.  Every operation — a pass, a request or
an output check — counts as attempted; each failure counts as failed.

The program is built from ``src/`` of the checkout; without it the
benchmark exits 2 before measuring anything.  It refuses to run with
``REPRO_FAULT_INJECT`` set, since injected faults are not the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-cold", "serve-mix")
#: Import timings behind ``setup_s``: this process's plus fresh
#: interpreters', so one slow import does not move the figure.
IMPORT_SAMPLES = 3
_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import metrics, paper, serve; print(time.perf_counter() - t)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: a reduced paper chain (self-check only)")
    return parser.parse_args(argv)


def trace_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans."""
    return ROOT / ".perfbench-out" / f"trace-{workload}-{seed}.json"


def _import_seconds() -> float:
    """Seconds to import the program and the benchmark, in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse(argv)
    if os.environ.get("REPRO_FAULT_INJECT"):
        return _fail("REPRO_FAULT_INJECT is set; unset it to benchmark")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program to build: {SRC / 'repro'} is missing")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    import_began = time.perf_counter()
    import metrics
    import paper
    import serve
    imports = [time.perf_counter() - import_began]

    context = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "REPRO_CAMPAIGN_WORKERS": os.environ.get("REPRO_CAMPAIGN_WORKERS"),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("context " + json.dumps(context, sort_keys=True))

    scale = paper.FULL if args.scale == "full" else paper.SMOKE
    workdir_root = ROOT / ".perfbench-work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root))
    try:
        if args.workload == "serve-mix":
            result, tracer = serve.serve_workload(
                args.seed, args.seconds, workdir, bool(args.trace)
            )
        else:
            result, tracer = paper.paper_workload(
                args.seed, args.seconds, scale, workdir, bool(args.trace)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in result.notes:
        print(note)
    values: dict[str, float]
    if args.trace:
        values = {name: float(result.layers.get(name, 0.0))
                  for name in metrics.PER_LAYER}
        units = metrics.PER_LAYER
        trace_file = trace_path(args.workload, args.seed)
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome(trace_file)
        self_times = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
        print("self time (s): " + ", ".join(
            f"{name}={seconds:.3f}" for name, seconds in self_times))
        print(f"trace: {len(tracer.spans)} spans -> {trace_file}")
    else:
        # Read the peak first: the import interpreters are children too.
        peak_rss_mb = metrics.peak_rss_mb()
        imports += [_import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
        import_s = metrics.median(imports)
        values = {
            "setup_s": import_s + metrics.median(result.setup_s),
            "latency_p50_ms": metrics.median(result.latencies_s) * 1e3,
            "ok_per_s": result.ok / result.window_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = metrics.END_TO_END
        tail, percentile, beyond = metrics.tail(result.latencies_s)
        print(f"latency: {len(result.latencies_s)} samples, all-sample tail "
              f"p{percentile:.1f} {tail * 1e3:.1f} ms ({beyond} beyond); "
              f"set-up {len(result.setup_s)} rep(s) + median import "
              f"{import_s:.3f} s of {len(imports)}")
    print(f"operations: {result.attempted} attempted, {result.failed} failed")
    report = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
