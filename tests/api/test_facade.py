"""Tests for the :mod:`repro.api` facade and its options object."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from repro import api, config
from repro.campaign.engine import CampaignEngine, topology_job_key
from repro.campaign.faultinject import FAULT_ENV
from repro.campaign.plan import grid_jobs
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, CampaignExecutionError, TuningError
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.hardware.cluster import Cluster
from repro.hardware.topology import NodeTopology
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry
from tests.oracles.grids import loop_grid
from tests.oracles.savings import loop_savings


class TestExecutionOptions:
    def test_defaults(self):
        options = api.ExecutionOptions()
        assert options.campaign is None
        assert options.cluster is None
        assert options.on_failure == "raise"
        assert options.retry_failed is False

    def test_fields_are_campaign_cluster_and_failure_policy(self):
        names = [f.name for f in dataclasses.fields(api.ExecutionOptions)]
        assert names == ["campaign", "cluster", "on_failure", "retry_failed"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"on_failure": "explode"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(CampaignError, match="unknown"):
            api.ExecutionOptions(**kwargs)

    def test_resolve_cluster_prefers_explicit(self):
        """An explicit cluster with the request's seed wins; without
        one, the seed names ``Cluster(2, seed)``."""
        cluster = Cluster(4, seed=9)
        assert api.ExecutionOptions(cluster=cluster).resolve_cluster(9) is cluster
        default = api.ExecutionOptions().resolve_cluster(9)
        assert (default.seed, default.num_nodes) == (9, 2)

    def test_resolve_cluster_refuses_another_seed(self):
        """A cluster's seed is its noise seed: an explicit cluster with
        another seed than the request's is refused, not mixed."""
        options = api.ExecutionOptions(cluster=Cluster(4, seed=3))
        with pytest.raises(CampaignError, match="seed 9"):
            options.resolve_cluster(9)

    def test_bind_cluster_precedence(self):
        """The argument beats the options' cluster, which beats the
        default-seed ``Cluster(nodes)``; the options carry the result."""
        mine, theirs = Cluster(3, seed=5), Cluster(4, seed=6)
        options = api.ExecutionOptions(cluster=theirs)
        bound, cluster = api.bind_cluster(options, mine)
        assert cluster is mine and bound.cluster is mine
        assert api.bind_cluster(options)[1] is theirs
        _, default = api.bind_cluster(None, nodes=5)
        assert (default.num_nodes, default.seed) == (5, config.DEFAULT_SEED)


class TestTuningRequest:
    def test_validation(self):
        with pytest.raises(TuningError):
            api.TuningRequest("NoSuch").validate()
        with pytest.raises(TuningError):
            api.TuningRequest("EP", objective="nope").validate()
        with pytest.raises(TuningError):
            api.TuningRequest("EP", stride=0).validate()
        with pytest.raises(TuningError):
            api.TuningRequest("EP", threads=0).validate()

    def test_resolved_fills_default_threads(self):
        resolved = api.TuningRequest("EP").resolved()
        assert resolved.threads == registry.build("EP").default_threads

    def test_grid_spec_excludes_objective_and_tmm(self):
        base = api.TuningRequest("EP", stride=7).resolved()
        twin = api.TuningRequest(
            "EP", stride=7, objective="edp", tmm='{"x": 1}'
        ).resolved()
        assert base.grid_spec() == twin.grid_spec()
        assert base.grid_spec() != api.TuningRequest(
            "EP", stride=7, seed=1
        ).resolved().grid_spec()


class TestGridAxes:
    def test_stride_one_is_full_grid(self):
        cfs, ucfs = api.grid_axes(1)
        assert cfs == config.CORE_FREQUENCIES_GHZ
        assert ucfs == config.UNCORE_FREQUENCIES_GHZ

    def test_thinned_axes_keep_defaults(self):
        cfs, ucfs = api.grid_axes(5)
        assert config.DEFAULT_CORE_FREQ_GHZ in cfs
        assert config.DEFAULT_UNCORE_FREQ_GHZ in ucfs
        assert len(cfs) < len(config.CORE_FREQUENCIES_GHZ)

    def test_bad_stride_rejected(self):
        with pytest.raises(TuningError):
            api.grid_axes(0)


class TestGridSpecJobs:
    """``GridSpec.jobs`` builds its rows from the axes; they must be the
    jobs ``grid_jobs`` groups out of the grid's points, store keys
    included, so stores written before recall through them."""

    @staticmethod
    def grouped(spec):
        cfs, ucfs = api.grid_axes(spec.stride)
        return grid_jobs(
            spec.benchmark,
            label="heatmap",
            points=[
                OperatingPoint(cf, ucf, spec.threads) for cf in cfs for ucf in ucfs
            ],
            node_id=spec.node_id,
            seed=spec.seed,
        )

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("threads", [None, 12])
    def test_rows_equal_grouped_points(self, stride, threads):
        spec = api.GridSpec("Lulesh", threads=threads, stride=stride, node_id=1, seed=5)
        jobs, grouped = spec.jobs(), self.grouped(spec)
        assert jobs == grouped
        for topology in (None, NodeTopology.build(1, 24)):
            assert [topology_job_key(job, topology) for job in jobs] == [
                topology_job_key(job, topology) for job in grouped
            ]

    def test_equal_fields_of_other_types_plan_their_own_keys(self):
        """Specs share a plan only when their fields match in type too:
        a seed of ``True`` keys its rows apart from a seed of ``1``,
        through one engine's remembered keys as well."""
        spec, twin = api.GridSpec("EP", seed=1), api.GridSpec("EP", seed=True)
        assert spec == twin
        assert spec.jobs() is api.GridSpec("EP", seed=1).jobs()
        assert twin.jobs() is not spec.jobs()
        engine = CampaignEngine()
        for jobs in (spec.jobs(), twin.jobs(), spec.jobs()):
            assert list(engine.job_keys(jobs).values()) == [
                topology_job_key(job, None) for job in jobs
            ]
        assert engine.job_keys(spec.jobs()) != engine.job_keys(twin.jobs())

    def test_store_of_grouped_rows_recalls_with_nothing_executed(self, tmp_path):
        """A SQLite store filled through the grouped rows (the plan
        ``sweep_grid`` priced before its rows came from the axes)
        answers ``sweep_grid`` without executing a job."""
        spec = api.GridSpec("EP", threads=registry.default_threads("EP"), stride=3)
        path = tmp_path / "grid.sqlite"
        with ResultStore(path) as store:
            CampaignEngine(store=store).run(self.grouped(spec))
        with ResultStore(path) as store:
            engine = CampaignEngine(store=store)
            grid = api.sweep_grid(
                "EP", stride=3, options=api.ExecutionOptions(campaign=engine)
            )
        assert engine.total_executed == 0
        assert engine.total_cached == len(spec.jobs())
        fresh = api.sweep_grid("EP", stride=3)
        for name in ("node_energy_j", "cpu_energy_j", "time_s"):
            assert np.array_equal(getattr(grid, name), getattr(fresh, name))


class TestTune:
    def test_answer_is_grid_argmin(self):
        request = api.TuningRequest("EP", stride=7, objective="energy")
        answer = api.tune(request)
        grid = api.sweep_grid("EP", stride=7)
        i, j = np.unravel_index(
            np.argmin(grid.node_energy_j), grid.node_energy_j.shape
        )
        assert answer.best.core_freq_ghz == grid.core_frequencies[i]
        assert answer.best.uncore_freq_ghz == grid.uncore_frequencies[j]
        assert answer.best_energy_j == grid.node_energy_j[i, j]
        assert answer.cells == grid.node_energy_j.size

    def test_loop_engine_bit_identical_to_sweep(self):
        request = api.TuningRequest("EP", stride=7).resolved()
        loop = loop_grid("EP", threads=request.threads, stride=7)
        assert api.tune(request).payload() == loop.answer(request).payload()

    def test_sweep_grids_bit_identical_to_loop_oracle(self):
        specs = [api.GridSpec("EP", stride=7), api.GridSpec("Mcb", stride=9)]
        for spec, grid in zip(specs, api.sweep_grids(specs)):
            loop = loop_grid(spec.benchmark, stride=spec.stride)
            assert np.array_equal(grid.node_energy_j, loop.node_energy_j)
            assert np.array_equal(grid.cpu_energy_j, loop.cpu_energy_j)
            assert np.array_equal(grid.time_s, loop.time_s)
        assert api.sweep_grids([]) == []

    def test_campaign_backed_tune_matches_direct(self):
        engine = CampaignEngine(store=ResultStore())
        request = api.TuningRequest("EP", stride=7)
        storeless = api.tune(request)
        stored = api.tune(request, api.ExecutionOptions(campaign=engine))
        assert stored.payload() == storeless.payload()
        executed = engine.total_executed
        assert executed > 0
        again = api.tune(request, api.ExecutionOptions(campaign=engine))
        assert again.payload() == storeless.payload()
        assert engine.total_executed == executed  # warm cache

    def test_payload_json_round_trips(self):
        answer = api.tune(api.TuningRequest("EP", stride=7))
        assert json.loads(json.dumps(answer.payload())) == answer.payload()

    def test_energy_saving_sign(self):
        answer = api.tune(api.TuningRequest("EP", stride=7))
        expected = 1.0 - answer.best_energy_j / answer.default_energy_j
        assert answer.energy_saving == pytest.approx(expected)

    def test_fresh_tmm_request_is_one_engine_run(self, monkeypatch):
        """A TMM request's grid rows and dynamic run are priced by one
        engine run; the dynamic outcome equals its job priced alone and
        the static answer equals the request's without a TMM."""
        plans = count_engine_runs(monkeypatch)
        request = api.TuningRequest(
            "EP", stride=7, tmm=SAVINGS_TMM.to_json()
        ).resolved()
        answer = api.tune(request)
        assert len(plans) == 1
        jobs = request.jobs()
        assert plans == [len(jobs)]
        monkeypatch.undo()
        assert jobs[:-1] == request.grid_spec().jobs()
        assert (jobs[-1].mode, jobs[-1].label) == ("savings", "dynamic")
        alone = api.ExecutionOptions().run_jobs(jobs[-1:], Cluster(2))
        assert answer.dynamic.payload() == alone[jobs[-1]]
        static = api.tune(dataclasses.replace(request, tmm=None))
        assert dataclasses.replace(answer, dynamic=None) == static

    def test_tune_many_is_one_engine_run_over_distinct_jobs(self, monkeypatch):
        requests = [
            api.TuningRequest("EP", stride=7),
            api.TuningRequest(
                "EP", stride=7, objective="edp", tmm=SAVINGS_TMM.to_json()
            ),
            api.TuningRequest("Mcb", stride=9),
        ]
        solo = [api.tune(request).payload() for request in requests]
        plans = count_engine_runs(monkeypatch)
        answers = api.tune_many(requests)
        distinct = {job for r in requests for job in r.resolved().jobs()}
        assert plans == [len(distinct)]
        assert [answer.payload() for answer in answers] == solo
        assert api.tune_many([]) == []
        assert plans == [len(distinct)]


def count_engine_runs(monkeypatch) -> list[int]:
    """Record the plan size of every ``CampaignEngine.run`` call."""
    plans: list[int] = []
    engine_run = CampaignEngine.run

    def count_plan(self, plan, **kwargs):
        plans.append(len(plan))
        return engine_run(self, plan, **kwargs)

    monkeypatch.setattr(CampaignEngine, "run", count_plan)
    return plans


class TestVerbOptions:
    def test_static_tuning_accepts_options(self):
        from repro.ptf.static_tuning import exhaustive_static_search

        engine = CampaignEngine(store=ResultStore())
        cluster = Cluster(2)
        app = registry.build("EP")
        storeless = exhaustive_static_search(
            app, cluster, stride=7, thread_counts=(24,)
        )
        stored = exhaustive_static_search(
            app,
            cluster,
            stride=7,
            thread_counts=(24,),
            options=api.ExecutionOptions(campaign=engine),
        )
        assert stored.best == storeless.best
        assert stored.best_energy_j == storeless.best_energy_j


def _removed_selectors():
    """(callable, parameter) pairs that used to pick a bit-identical
    reference path; the references now live in ``tests/oracles/``."""
    from repro.analysis.heatmap import energy_heatmap
    from repro.analysis.savings import compare_static_dynamic
    from repro.analysis.tradeoffs import energy_time_tradeoff
    from repro.analysis.variability import variability_study
    from repro.modeling.batched import predict_energy_grid
    from repro.modeling.crossval import network_loocv_mape
    from repro.modeling.selection import select_counters
    from repro.ptf.energy_plugin import EnergyTuningPlugin
    from repro.ptf.exhaustive_plugin import ExhaustiveRegionTuner
    from repro.ptf.region_model import RegionModelTuner
    from repro.ptf.static_tuning import (
        exhaustive_static_search,
        select_static_configurations,
    )

    return [
        (energy_heatmap, "engine"),
        (energy_heatmap, "campaign"),
        (energy_time_tradeoff, "engine"),
        (compare_static_dynamic, "engine"),
        (compare_static_dynamic, "campaign"),
        (variability_study, "engine"),
        (exhaustive_static_search, "engine"),
        (exhaustive_static_search, "measurement"),
        (select_static_configurations, "engine"),
        (predict_energy_grid, "engine"),
        (network_loocv_mape, "engine"),
        (select_counters, "engine"),
        (RegionModelTuner, "engine"),
        (EnergyTuningPlugin, "engine"),
        (ExhaustiveRegionTuner.screen_frequency_pairs, "engine"),
        (ExhaustiveRegionTuner.tune, "engine"),
    ]


@pytest.mark.parametrize(
    "func, param",
    _removed_selectors(),
    ids=lambda value: getattr(value, "__qualname__", value),
)
def test_reference_selector_removed(func, param):
    assert param not in inspect.signature(func).parameters


# ---------------------------------------------------------------------------
# The failure policy reaches every campaign-backed verb
# ---------------------------------------------------------------------------


def _static_search(options):
    from repro.ptf.static_tuning import exhaustive_static_search

    return exhaustive_static_search(
        registry.build("EP"), Cluster(2), stride=7, thread_counts=(24,),
        options=options,
    )


def _static_search_jobs():
    from repro.campaign.plan import grid_jobs, static_operating_points

    points = static_operating_points(
        registry.build("EP"), stride=7, thread_counts=(24,)
    )
    return grid_jobs(
        "EP", label="static", points=points, node_id=0, seed=Cluster(2).seed
    )


SAVINGS_STATIC = OperatingPoint(2.4, 2.0, 24)
SAVINGS_TMM = TuningModel.from_best_configs(
    "EP", "phase", {"phase": SAVINGS_STATIC}
)


def _savings(options, runs=1):
    from repro.analysis.savings import compare_static_dynamic

    return compare_static_dynamic(
        "EP", SAVINGS_STATIC, SAVINGS_TMM, cluster=Cluster(2), runs=runs,
        options=options,
    )


def _savings_jobs():
    from repro.campaign.plan import savings_campaign_jobs

    batches = savings_campaign_jobs(
        "EP", SAVINGS_STATIC, SAVINGS_TMM, instrumentation=None, runs=1,
        node_id=0, seed=Cluster(2).seed,
    )
    return tuple(job for batch in batches.values() for job in batch)


TRADEOFF_CONFIGURATIONS = [OperatingPoint(1.6, 2.5, 20), OperatingPoint(2.4, 1.7, 24)]


def _tradeoff(options):
    from repro.analysis.tradeoffs import energy_time_tradeoff

    return energy_time_tradeoff(
        "EP", TRADEOFF_CONFIGURATIONS, cluster=Cluster(2), options=options
    )


def _tradeoff_jobs():
    from repro.campaign.plan import grid_jobs

    return grid_jobs(
        "EP", label="tradeoff",
        points=[OperatingPoint(), *TRADEOFF_CONFIGURATIONS],
        node_id=0, seed=Cluster(2).seed,
    )


def _variability(options):
    """The uncore-axis study on two nodes, as comparable lists."""
    from repro.analysis.variability import variability_study

    study = variability_study(
        "EP", axis="uncore", nodes=(0, 1), cluster=Cluster(2), options=options
    )
    return [
        (series.tolist(), study.normalized_energy[node_id].tolist())
        for node_id, series in study.raw_energy_j.items()
    ]


def _variability_jobs():
    from repro.campaign.plan import grid_jobs

    points = [
        OperatingPoint(config.CALIBRATION_CORE_FREQ_GHZ, ucf)
        for ucf in config.UNCORE_FREQUENCIES_GHZ
    ]
    return tuple(
        job
        for node_id in (0, 1)
        for job in grid_jobs(
            "EP", label="variability-uncore", points=points, node_id=node_id,
            seed=Cluster(2).seed,
        )
    )


#: verb -> (call with options, the jobs it plans, in plan order)
FAILURE_POLICY_VERBS = {
    "exhaustive_static_search": (_static_search, _static_search_jobs),
    "compare_static_dynamic": (_savings, _savings_jobs),
    "energy_time_tradeoff": (_tradeoff, _tradeoff_jobs),
    "variability_study": (_variability, _variability_jobs),
}


@pytest.mark.parametrize("verb", sorted(FAILURE_POLICY_VERBS))
def test_failure_policy_reaches_campaign(verb, tmp_path, monkeypatch):
    """``on_failure``/``retry_failed`` travel with the options: a job
    that fails for good is quarantined while its healthy plan-mates
    persist, and a ``retry_failed`` re-run executes only that job."""
    call, planned = FAILURE_POLICY_VERBS[verb]
    store = ResultStore(tmp_path / "store.jsonl")

    def run(**policy):
        engine = CampaignEngine(
            store=store, max_retries=2
        )
        return engine, call(api.ExecutionOptions(campaign=engine, **policy))

    monkeypatch.setenv(
        FAULT_ENV, '[{"action": "raise", "index": 0, "attempts": "all"}]'
    )
    with pytest.raises(CampaignError, match="retry"):
        run(on_failure="quarantine")
    summary = store.summary()
    assert summary["quarantined"] == 1
    assert summary["results"] == len(planned()) - 1

    monkeypatch.delenv(FAULT_ENV)
    engine, healed = run(retry_failed=True)
    assert engine.total_executed == 1
    assert healed == call(api.ExecutionOptions())


@pytest.mark.parametrize("verb", sorted(FAILURE_POLICY_VERBS))
def test_fault_reaches_storeless_run(verb, monkeypatch):
    """Without an attached engine the verb still runs through the
    resilient engine loop: a fault aimed at one of its jobs fails the
    run with a CampaignExecutionError naming exactly that job."""
    call, planned = FAILURE_POLICY_VERBS[verb]
    target = planned()[1]
    monkeypatch.setenv(
        FAULT_ENV,
        json.dumps(
            [{"action": "raise", "mode": target.mode, "index": 1,
              "attempts": "all"}]
        ),
    )
    with pytest.raises(
        CampaignExecutionError, match=f"{target.app}/{target.mode}"
    ) as info:
        call(api.ExecutionOptions())
    assert list(info.value.failures) == [topology_job_key(target, None)]


def test_storeless_savings_is_one_engine_run(monkeypatch):
    """A store-less Table VI row is one engine run over all 4 x runs
    jobs, not one solo simulator run per repetition, and it equals the
    per-run loop reference."""
    plans, solo = [], []
    engine_run, simulator_run = CampaignEngine.run, ExecutionSimulator.run

    def count_plan(self, plan, **kwargs):
        plans.append(len(plan))
        return engine_run(self, plan, **kwargs)

    def count_solo(self, *args, **kwargs):
        solo.append(args)
        return simulator_run(self, *args, **kwargs)

    monkeypatch.setattr(CampaignEngine, "run", count_plan)
    monkeypatch.setattr(ExecutionSimulator, "run", count_solo)
    row = _savings(api.ExecutionOptions(), runs=2)
    assert plans == [8]
    assert solo == []
    monkeypatch.undo()
    assert row == loop_savings(
        "EP", SAVINGS_STATIC, SAVINGS_TMM, cluster=Cluster(2), runs=2
    )


# ---------------------------------------------------------------------------
# An attached engine must simulate the cluster's topology, for every verb
# ---------------------------------------------------------------------------

def _mismatched(engine):
    return api.ExecutionOptions(cluster=Cluster(2), campaign=engine)


def _measure_front_end(name):
    def call(engine):
        from repro.modeling import dataset

        return getattr(dataset, name)(
            registry.build("EP"), Cluster(2), threads=24, engine=engine
        )

    return call


def _build_dataset(engine):
    from repro.modeling.dataset import build_dataset

    return build_dataset(
        ("EP",), cluster=Cluster(2), thread_counts=(24,), engine=engine
    )


TOPOLOGY_VERBS = {
    "replay": lambda engine: api.replay(
        "EP", OperatingPoint(2.0, 2.0, 8), options=_mismatched(engine)
    ),
    "tune_with_tmm": lambda engine: api.tune(
        api.TuningRequest("EP", stride=7, tmm=SAVINGS_TMM.to_json()),
        _mismatched(engine),
    ),
    "exhaustive_static_search": lambda engine: _static_search(
        api.ExecutionOptions(campaign=engine)
    ),
    "measure_counter_rates": _measure_front_end("measure_counter_rates"),
    "measure_normalized_energy": _measure_front_end(
        "measure_normalized_energy"
    ),
    "build_dataset": _build_dataset,
    "energy_time_tradeoff": lambda engine: _tradeoff(_mismatched(engine)),
    "variability_study": lambda engine: _variability(_mismatched(engine)),
}


@pytest.mark.parametrize("verb", sorted(TOPOLOGY_VERBS))
def test_engine_topology_mismatch_refused(verb):
    """An engine simulating another topology than the cluster's is
    refused before anything is priced."""
    engine = CampaignEngine(topology=NodeTopology.build(1, 8))
    with pytest.raises(CampaignError, match="topology"):
        TOPOLOGY_VERBS[verb](engine)
    assert engine.total_executed == 0


def test_engine_with_the_clusters_topology_is_accepted():
    topology = NodeTopology.build(1, 8)
    point = OperatingPoint(2.0, 2.0, 8)
    storeless = api.replay(
        "EP", point, options=api.ExecutionOptions(cluster=Cluster(2, topology=topology))
    )
    engine = CampaignEngine(store=ResultStore(), topology=NodeTopology.build(1, 8))
    stored = api.replay(
        "EP",
        point,
        options=api.ExecutionOptions(
            cluster=Cluster(2, topology=topology), campaign=engine
        ),
    )
    assert stored == storeless
    assert engine.total_executed == 1
    assert storeless != api.replay("EP", point)  # the topology is priced


def test_replay_equals_the_static_search_cell():
    """A replay is a one-cell ``static`` row: it measures exactly the
    exhaustive static search's cell at the same point and node, on the
    cluster its seed names — at the default seed and any other."""
    from repro.ptf.static_tuning import exhaustive_static_search

    default = OperatingPoint(
        config.DEFAULT_CORE_FREQ_GHZ,
        config.DEFAULT_UNCORE_FREQ_GHZ,
        config.DEFAULT_OPENMP_THREADS,
    )
    for seed in (config.DEFAULT_SEED, 7):
        triple = api.replay("EP", default, seed=seed)
        searched = exhaustive_static_search(
            registry.build("EP"), Cluster(2, seed=seed), stride=7
        )
        assert (triple.node_energy_j, triple.time_s) == (
            searched.default_energy_j, searched.default_time_s,
        )
