"""Tests for the :mod:`repro.api` facade and its options object."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from repro import api, config
from repro.campaign.engine import CampaignEngine
from repro.campaign.faultinject import FAULT_ENV
from repro.campaign.resilience import RetryPolicy
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, TuningError
from repro.execution.simulator import OperatingPoint
from repro.hardware.cluster import Cluster
from repro.readex.tuning_model import TuningModel
from repro.workloads import registry
from tests.oracles.grids import loop_grid


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
        cluster = Cluster(4, seed=3)
        assert api.ExecutionOptions(cluster=cluster).resolve_cluster(9) is cluster
        default = api.ExecutionOptions().resolve_cluster(9)
        assert default.seed == 9


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

    def test_grid_key_excludes_objective_and_tmm(self):
        base = api.TuningRequest("EP", stride=7).resolved()
        twin = api.TuningRequest(
            "EP", stride=7, objective="edp", tmm='{"x": 1}'
        ).resolved()
        assert base.grid_key() == twin.grid_key()
        assert base.grid_key() != api.TuningRequest(
            "EP", stride=7, seed=1
        ).resolved().grid_key()


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
        direct = api.tune(request)
        campaign = api.tune(request, api.ExecutionOptions(campaign=engine))
        assert campaign.payload() == direct.payload()
        executed = engine.total_executed
        assert executed > 0
        again = api.tune(request, api.ExecutionOptions(campaign=engine))
        assert again.payload() == direct.payload()
        assert engine.total_executed == executed  # warm cache

    def test_payload_json_round_trips(self):
        answer = api.tune(api.TuningRequest("EP", stride=7))
        assert json.loads(json.dumps(answer.payload())) == answer.payload()

    def test_energy_saving_sign(self):
        answer = api.tune(api.TuningRequest("EP", stride=7))
        expected = 1.0 - answer.best_energy_j / answer.default_energy_j
        assert answer.energy_saving == pytest.approx(expected)


class TestVerbOptions:
    def test_static_tuning_accepts_options(self):
        from repro.ptf.static_tuning import exhaustive_static_search

        engine = CampaignEngine(store=ResultStore())
        cluster = Cluster(2)
        app = registry.build("EP")
        direct = exhaustive_static_search(
            app, cluster, stride=7, thread_counts=(24,)
        )
        campaign = exhaustive_static_search(
            app,
            cluster,
            stride=7,
            thread_counts=(24,),
            options=api.ExecutionOptions(campaign=engine),
        )
        assert campaign.best == direct.best
        assert campaign.best_energy_j == direct.best_energy_j


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

FAST_POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01)


def _static_search(options):
    from repro.ptf.static_tuning import exhaustive_static_search

    return exhaustive_static_search(
        registry.build("EP"), Cluster(2), stride=7, thread_counts=(24,),
        options=options,
    )


def _static_search_jobs():
    from repro.campaign.plan import grid_rows, static_operating_points

    points = static_operating_points(
        registry.build("EP"), stride=7, thread_counts=(24,)
    )
    return len(grid_rows(points))


def _savings(options):
    from repro.analysis.savings import compare_static_dynamic

    static = OperatingPoint(2.4, 2.0, 24)
    tmm = TuningModel.from_best_configs("EP", "phase", {"phase": static})
    return compare_static_dynamic(
        "EP", static, tmm, cluster=Cluster(2), runs=1, options=options
    )


#: verb -> (call with options, number of jobs it plans)
FAILURE_POLICY_VERBS = {
    "exhaustive_static_search": (_static_search, _static_search_jobs),
    "compare_static_dynamic": (_savings, lambda: 4),
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
            store=store, retry_policy=FAST_POLICY
        )
        return engine, call(api.ExecutionOptions(campaign=engine, **policy))

    monkeypatch.setenv(
        FAULT_ENV, '[{"action": "raise", "index": 0, "attempts": "all"}]'
    )
    with pytest.raises(CampaignError, match="retry"):
        run(on_failure="quarantine")
    summary = store.summary()
    assert summary["quarantined"] == 1
    assert summary["results"] == planned() - 1

    monkeypatch.delenv(FAULT_ENV)
    engine, healed = run(retry_failed=True)
    assert engine.total_executed == 1
    assert healed == call(api.ExecutionOptions())
