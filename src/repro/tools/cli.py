"""Console entry points (installed by ``pip install``).

================  =========================================================
``repro-dyn-detect``    significant-region detection for a benchmark
``repro-tune``          full DTA: train/load model, tune, write the TMM
``repro-sacct``         run a benchmark as a job and query its accounting
``repro-measure-rapl``  run a benchmark and report CPU energy via RAPL
``repro-otf2-parser``   post-process a trace file (energy + phase PAPI)
``repro-campaign``      plan / run / inspect experiment campaigns
``repro-serve``         HTTP tuning service (entry point lives in
                        :mod:`repro.serve.server`)
================  =========================================================

Exit codes follow one convention across the campaign-backed tools:
``0`` success, ``2`` argparse usage errors, ``3`` definitive job
failures (``repro-campaign run``, ``repro-tune --json``), ``130`` a
graceful SIGINT/SIGTERM drain (``repro-campaign run``, ``repro-serve``).
"""

from __future__ import annotations

import argparse
import shlex
import sys

from repro import config
from repro.execution.simulator import ExecutionSimulator
from repro.execution.slurm import SlurmAccounting
from repro.hardware.cluster import Cluster
from repro.workloads import registry


def _benchmark_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "benchmark",
        choices=registry.benchmark_names(),
        help="benchmark to operate on",
    )


def main_dyn_detect(argv: list[str] | None = None) -> int:
    """``repro-dyn-detect BENCH [-o config.json]``"""
    parser = argparse.ArgumentParser(
        prog="repro-dyn-detect",
        description="Detect significant regions (>100 ms mean) of a benchmark.",
    )
    _benchmark_arg(parser)
    parser.add_argument("-o", "--output", help="write the READEX config JSON here")
    args = parser.parse_args(argv)

    from repro.readex.dyn_detect import readex_dyn_detect
    from repro.scorep.profile import ProfileCollector

    app = registry.build(args.benchmark)
    cluster = Cluster(2)
    node = cluster.fresh_node(0)
    node.set_frequencies(
        config.CALIBRATION_CORE_FREQ_GHZ, config.CALIBRATION_UNCORE_FREQ_GHZ
    )
    collector = ProfileCollector(app.name)
    ExecutionSimulator(node).run(app, listeners=(collector,))
    readex_config = readex_dyn_detect(app, collector.profile())
    if args.output:
        readex_config.save(args.output)
        print(f"wrote {args.output}")
    for region in readex_config.significant_regions:
        print(f"{region.name:40s} mean {region.mean_time_s * 1000:8.1f} ms")
    return 0


def _tune_json(args: argparse.Namespace) -> int:
    """One-shot ``repro-tune --json``: the serving wire schema, offline.

    Prints exactly one response envelope (the same versioned schema
    ``repro-serve`` speaks) on stdout and exits 0 on ``status: ok`` or
    3 on an error envelope — mirroring ``repro-campaign run``'s
    failure exit code, so scripts can pipe either.
    """
    import json

    from repro import api
    from repro.errors import ReproError
    from repro.serve.schema import exception_response, ok_response

    request = api.TuningRequest(
        benchmark=args.benchmark,
        threads=args.threads,
        objective=args.objective,
        stride=args.stride,
        node_id=args.node_id,
        seed=args.seed,
    )
    try:
        options = api.ExecutionOptions()
        if args.store is not None:
            from repro.campaign.engine import CampaignEngine
            from repro.campaign.store import ResultStore

            options = api.ExecutionOptions(
                campaign=CampaignEngine(store=ResultStore(args.store))
            )
        answer = api.tune(request, options)
    except ReproError as exc:
        print(json.dumps(exception_response(exc)))
        return 3
    print(json.dumps(ok_response(answer, meta={"coalesced": 0, "offline": True})))
    return 0


def main_tune(argv: list[str] | None = None) -> int:
    """``repro-tune BENCH [-o tmm.json] [--epochs N] [--json ...]``"""
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Run the full design-time analysis and emit a tuning "
        "model; with --json, answer one grid-tuning request offline in "
        "the repro-serve wire schema instead.",
    )
    _benchmark_arg(parser)
    parser.add_argument("-o", "--output", default="tuning_model.json")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument(
        "--train-threads",
        type=int,
        nargs="+",
        default=[12, 24],
        help="thread counts for training-data acquisition (fewer = faster)",
    )
    json_group = parser.add_argument_group(
        "wire-schema mode (--json)",
        "answer one tuning request offline and print the versioned "
        "response envelope (exit 0 on ok, 3 on an error envelope)",
    )
    json_group.add_argument("--json", action="store_true")
    json_group.add_argument("--objective", default="energy")
    json_group.add_argument("--stride", type=int, default=1)
    json_group.add_argument("--threads", type=int, default=None)
    json_group.add_argument("--node-id", type=int, default=0)
    json_group.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    json_group.add_argument(
        "--store", default=None, help="result store for cached execution"
    )
    args = parser.parse_args(argv)
    if args.json:
        return _tune_json(args)

    from repro.modeling.dataset import build_dataset
    from repro.modeling.training import TrainingConfig, train_network
    from repro.ptf.framework import PeriscopeTuningFramework

    train_names = [b for b in registry.training_benchmarks()]
    print(f"building training data on {len(train_names)} benchmarks ...")
    dataset = build_dataset(train_names, thread_counts=tuple(args.train_threads))
    model = train_network(
        dataset.features,
        dataset.targets,
        config=TrainingConfig(epochs=args.epochs),
    )
    print(f"training done ({dataset.features.shape[0]} samples)")
    framework = PeriscopeTuningFramework(Cluster(4), model)
    outcome = framework.tune(args.benchmark)
    outcome.tuning_model.save(args.output)
    result = outcome.plugin_result
    print(f"phase optimum: {result.phase_configuration}")
    for region, cfg in result.region_configurations.items():
        print(f"  {region:40s} {cfg}")
    print(f"tuning model with {len(outcome.tuning_model.scenarios)} scenarios "
          f"written to {args.output}")
    return 0


def main_sacct(argv: list[str] | None = None) -> int:
    """``repro-sacct BENCH [--format FIELDS]``"""
    parser = argparse.ArgumentParser(
        prog="repro-sacct",
        description="Run a benchmark as a job and print sacct accounting.",
    )
    _benchmark_arg(parser)
    parser.add_argument(
        "--format",
        dest="fmt",
        default="JobID,JobName,Elapsed,ConsumedEnergy",
    )
    args = parser.parse_args(argv)

    from repro.tools.sacct import format_sacct_output

    cluster = Cluster(2)
    run = ExecutionSimulator(cluster.fresh_node(0)).run(
        registry.build(args.benchmark)
    )
    accounting = SlurmAccounting()
    accounting.submit(run)
    print(format_sacct_output(accounting, fmt=args.fmt))
    return 0


def main_measure_rapl(argv: list[str] | None = None) -> int:
    """``repro-measure-rapl BENCH [--cf GHz --ucf GHz --threads N]``"""
    parser = argparse.ArgumentParser(
        prog="repro-measure-rapl",
        description="Run a benchmark and report CPU energy via RAPL.",
    )
    _benchmark_arg(parser)
    parser.add_argument("--cf", type=float, default=config.DEFAULT_CORE_FREQ_GHZ)
    parser.add_argument("--ucf", type=float, default=config.DEFAULT_UNCORE_FREQ_GHZ)
    parser.add_argument("--threads", type=int, default=config.DEFAULT_OPENMP_THREADS)
    args = parser.parse_args(argv)

    from repro.tools.measure_rapl import measure_rapl

    node = Cluster(2).fresh_node(0)
    node.set_frequencies(args.cf, args.ucf)
    with measure_rapl(node) as measurement:
        ExecutionSimulator(node).run(
            registry.build(args.benchmark), threads=args.threads
        )
    print(f"CPU energy: {measurement.cpu_energy_j:.1f} J "
          f"over {measurement.elapsed_s:.2f} s "
          f"({measurement.mean_cpu_power_w:.1f} W)")
    return 0


def main_otf2_parser(argv: list[str] | None = None) -> int:
    """``repro-otf2-parser TRACE_FILE``"""
    parser = argparse.ArgumentParser(
        prog="repro-otf2-parser",
        description="Post-process an OTF2 trace: run energy + phase PAPI values.",
    )
    parser.add_argument("trace", help="trace file written by repro (JSONL)")
    args = parser.parse_args(argv)

    from repro.tools.otf2_parser import parse_trace

    report = parse_trace(args.trace)
    print(f"application: {report.app_name}")
    print(f"total energy: {report.total_energy_j:.1f} J")
    print(f"phase instances: {report.num_phase_instances}")
    for inst in report.phase_instances[:3]:
        printable = {k.removeprefix("papi::"): f"{v:.3g}" for k, v in inst.papi.items()}
        print(f"  iteration {inst.iteration}: {printable}")
    return 0


def _campaign_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        choices=registry.benchmark_names(),
        metavar="BENCH",
        help="benchmarks to cover (default: all 19)",
    )
    parser.add_argument(
        "--campaign",
        choices=("dataset", "static", "both"),
        default="dataset",
        help="which grids to plan: the training-data acquisition "
        "(counters + energy sweeps), the exhaustive static search, or both",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        help="thread sweep for thread-tunable codes "
        f"(default: {' '.join(map(str, config.OPENMP_THREAD_CANDIDATES))})",
    )
    parser.add_argument(
        "--stride", type=int, default=1,
        help="thin the static frequency grids by this factor",
    )
    parser.add_argument("--node-id", type=int, default=0)
    parser.add_argument("--seed", type=int, default=config.DEFAULT_SEED)


def _campaign_plan(args):
    from repro.campaign import plan_dataset_campaign, plan_static_campaign
    from repro.campaign.plan import CampaignPlan

    thread_counts = tuple(args.threads) if args.threads else None
    plan = CampaignPlan(())
    if args.campaign in ("dataset", "both"):
        plan = plan.merge(plan_dataset_campaign(
            args.benchmarks, thread_counts=thread_counts,
            node_id=args.node_id, seed=args.seed,
        ))
    if args.campaign in ("static", "both"):
        plan = plan.merge(plan_static_campaign(
            args.benchmarks, stride=args.stride, thread_counts=thread_counts,
            node_id=args.node_id, seed=args.seed,
        ))
    return plan


def _print_breakdown(title: str, counts: dict[str, int]) -> None:
    print(f"{title}:")
    for name, count in counts.items():
        print(f"  {name:20s} {count:6d}")


def main_campaign(argv: list[str] | None = None) -> int:
    """``repro-campaign {plan,run,status} ...``"""
    from repro.campaign.backends import BACKEND_KINDS
    from repro.campaign.resilience import ON_FAILURE_POLICIES

    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Plan, execute and inspect simulation campaigns "
        "(content-addressed on-disk result store).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_p = sub.add_parser("plan", help="show what a campaign would run")
    _campaign_selection_args(plan_p)
    plan_p.add_argument(
        "--store", help="existing store to count cache hits against"
    )

    run_p = sub.add_parser("run", help="execute a campaign into a store")
    _campaign_selection_args(run_p)
    run_p.add_argument(
        "--store",
        default="campaign-store.jsonl",
        help="result store path (created if missing; backend auto-detected: "
        "*.jsonl file or *.sqlite database; a directory is refused)",
    )
    run_p.add_argument(
        "--backend",
        choices=BACKEND_KINDS,
        help="force the store backend instead of auto-detecting from the path",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per shard (the jobs priced in one fleet pass) "
        "on transient failures (I/O errors; default: 2; must be >= 0)",
    )
    run_p.add_argument(
        "--on-failure",
        choices=ON_FAILURE_POLICIES,
        default="raise",
        help="what to do with jobs that exhaust their retries: abort the "
        "campaign (raise, default), persist a failure record so later runs "
        "skip them (quarantine), or drop them for this run only (skip)",
    )
    run_p.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-attempt jobs that earlier runs quarantined into this store",
    )

    status_p = sub.add_parser("status", help="summarise a result store")
    status_p.add_argument(
        "--store", default="campaign-store.jsonl", help="result store path"
    )

    store_p = sub.add_parser(
        "store", help="maintain a result store (migrate/compact/verify)"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)

    migrate_p = store_sub.add_parser(
        "migrate",
        help="copy a store into a fresh one on another backend",
    )
    migrate_p.add_argument("source", help="existing store (any backend)")
    migrate_p.add_argument("dest", help="destination store path (must be fresh)")
    migrate_p.add_argument(
        "--backend",
        choices=BACKEND_KINDS,
        help="destination backend (default: auto-detect from the path)",
    )

    compact_p = store_sub.add_parser(
        "compact",
        help="drop superseded and other-schema-version records in place",
    )
    compact_p.add_argument(
        "--store", default="campaign-store.jsonl", help="result store path"
    )

    verify_p = store_sub.add_parser(
        "verify",
        help="report damaged entries (exit 1 when any are found)",
    )
    verify_p.add_argument(
        "--store", default="campaign-store.jsonl", help="result store path"
    )

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    from repro.errors import ReproError

    try:
        return _campaign_dispatch(args, argv)
    except ReproError as exc:
        print(f"repro-campaign: error: {exc}", file=sys.stderr)
        return 2


def _existing_store(path: str):
    """Open the store at ``path`` for a command that only reads or
    maintains it: a missing path is refused, never created."""
    from pathlib import Path

    from repro.campaign import ResultStore
    from repro.errors import CampaignError

    if not Path(path).exists():
        raise CampaignError(f"no result store at {path}")
    return ResultStore(path)


def _campaign_dispatch(args, argv: list[str]) -> int:
    from repro.campaign import CampaignEngine, ResultStore, job_key

    if args.command == "status":
        with _existing_store(args.store) as store:
            summary = store.summary()
        print(f"store:   {summary['path']} ({summary['backend']})")
        print(f"results: {summary['results']}")
        if summary["stale"]:
            print(
                f"stale:   {summary['stale']} record(s) from another store "
                "schema version (dead weight; run "
                "`repro-campaign store compact` to reclaim)"
            )
        if summary["quarantined"]:
            print(
                f"quarantined: {summary['quarantined']} job(s) with persisted "
                "failure records (re-attempt with `repro-campaign run "
                "--retry-failed`)"
            )
        if summary["results"]:
            _print_breakdown("by mode", summary["modes"])
            _print_breakdown("by app", summary["apps"])
        return 0

    if args.command == "store":
        return _store_dispatch(args)

    plan = _campaign_plan(args)
    description = plan.describe()
    if args.command == "plan":
        print(f"jobs:             {description['jobs']}")
        print(f"operating points: {description['operating_points']}")
        _print_breakdown("by mode", description["modes"])
        _print_breakdown("by app", description["apps"])
        if args.store:
            with _existing_store(args.store) as store:
                cached = sum(
                    1 for job in plan if job_key(job.descriptor()) in store
                )
            print(f"already cached:   {cached} / {description['jobs']}")
        return 0

    from repro.errors import CampaignInterrupted

    # A bad --retries is refused before the store is opened (or created).
    engine = CampaignEngine(max_retries=args.retries)
    with ResultStore(args.store, backend=args.backend) as store:
        engine.store = store
        print(
            f"running {description['jobs']} jobs "
            f"({', '.join(f'{m}: {n}' for m, n in description['modes'].items())})"
        )
        try:
            results = engine.run(
                plan,
                on_failure=args.on_failure,
                retry_failed=args.retry_failed,
            )
        except CampaignInterrupted as exc:
            print(
                f"drained on {exc.signal_name}: {exc.completed} of "
                f"{exc.planned} job(s) completed and persisted",
                file=sys.stderr,
            )
            print(
                f"finish with the same command: repro-campaign {shlex.join(argv)}",
                file=sys.stderr,
            )
            return 130
        report = results.report
        print(f"cache hits:      {report.cached}")
        print(f"new simulations: {report.executed}")
        if report.retried:
            print(f"retried:         {report.retried} transient failure(s)")
        if report.quarantined:
            print(
                f"quarantined:     {report.quarantined} job(s) skipped via "
                "persisted failure records (--retry-failed to re-attempt)"
            )
        if report.failed:
            print(
                f"failed:          {report.failed} job(s) exhausted retries "
                f"(policy: {args.on_failure})"
            )
        print(f"store now holds {len(store)} results at {store.path} "
              f"({store.backend})")
    return 3 if report.failed else 0


def _store_dispatch(args) -> int:
    """``repro-campaign store {migrate,compact,verify}``."""
    from repro.campaign import migrate_store

    if args.store_command == "migrate":
        stats = migrate_store(args.source, args.dest, backend=args.backend)
        print(
            f"migrated {stats['migrated']} record(s) from {stats['source']} "
            f"to {stats['dest']} ({stats['backend']})"
        )
        if stats["stale"]:
            print(
                f"carried over {stats['stale']} stale record(s) from another "
                "schema version (run `store compact` on the new store to drop)"
            )
        return 0

    if args.store_command == "compact":
        with _existing_store(args.store) as store:
            stats = store.compact()
        print(
            f"compacted {args.store}: kept {stats['kept']} record(s), "
            f"dropped {stats['dropped']} superseded/stale line(s)"
        )
        return 0

    # verify
    with _existing_store(args.store) as store:
        issues = store.verify()
        results = len(store)
    if not issues:
        print(f"{args.store}: ok ({results} readable records, no damage)")
        return 0
    print(f"{args.store}: {len(issues)} damaged entr(y/ies)")
    for issue in issues:
        print(f"  {issue['file']} [{issue['where']}]: {issue['problem']}")
    print("damaged entries load as misses; re-run the campaign to heal them")
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_tune())
