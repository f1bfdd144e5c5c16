"""Heatmap analysis satellites: plateau vectorization, tolerant
frequency lookups, and the campaign-backed grid measurement."""

import numpy as np
import pytest

from repro import config
from repro.api import ExecutionOptions
from repro.analysis.heatmap import PLATEAU_THRESHOLD, EnergyHeatmap, energy_heatmap
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.hardware.cluster import Cluster
from repro.hardware.topology import NodeTopology
from repro.util.validation import frequency_index


def synthetic_heatmap(selected=None):
    cfs = config.CORE_FREQUENCIES_GHZ
    ucfs = config.UNCORE_FREQUENCIES_GHZ
    grid = 1.0 + 0.01 * (
        np.arange(len(cfs))[:, None] + np.arange(len(ucfs))[None, :]
    )
    grid[3, 5] = 0.9  # the optimum
    grid[3, 6] = 0.905
    grid[4, 5] = 0.917
    return EnergyHeatmap(
        benchmark="X",
        threads=24,
        core_frequencies=cfs,
        uncore_frequencies=ucfs,
        normalized=grid,
        selected=selected,
    )


def reference_plateau(heatmap, threshold=PLATEAU_THRESHOLD):
    """The historical nested-loop implementation."""
    limit = heatmap.best_value * (1.0 + threshold)
    out = []
    for i, cf in enumerate(heatmap.core_frequencies):
        for j, ucf in enumerate(heatmap.uncore_frequencies):
            if heatmap.normalized[i, j] <= limit:
                out.append((cf, ucf))
    return out


class TestPlateau:
    def test_matches_loop_reference_row_major(self):
        heatmap = synthetic_heatmap()
        assert heatmap.plateau() == reference_plateau(heatmap)
        assert heatmap.plateau(0.5) == reference_plateau(heatmap, 0.5)

    def test_plateau_contains_best_first_cells(self):
        heatmap = synthetic_heatmap()
        plateau = heatmap.plateau()
        assert heatmap.best in plateau
        assert plateau == sorted(plateau)  # row-major == sorted pairs here

    def test_selected_within_plateau(self):
        best_cf, best_ucf = synthetic_heatmap().best
        assert synthetic_heatmap(selected=(best_cf, best_ucf)).selected_within_plateau()
        assert not synthetic_heatmap(selected=(2.5, 3.0)).selected_within_plateau()
        assert not synthetic_heatmap().selected_within_plateau()


class TestFrequencyLookups:
    def test_value_at_tolerates_float_dust(self):
        heatmap = synthetic_heatmap()
        exact = heatmap.value_at(1.5, 2.0)
        assert heatmap.value_at(1.5 + 1e-12, 2.0 - 1e-12) == exact
        assert heatmap.value_at(0.9 + 0.6, 2.0) == exact  # 1.4999999...

    def test_unknown_frequency_named_in_error(self):
        heatmap = synthetic_heatmap()
        with pytest.raises(ValueError, match="9.9 GHz.*core-frequency"):
            heatmap.value_at(9.9, 2.0)
        with pytest.raises(ValueError, match="0.2 GHz.*uncore-frequency"):
            heatmap.value_at(1.5, 0.2)

    def test_frequency_index_helper(self):
        axis = config.CORE_FREQUENCIES_GHZ
        assert frequency_index(axis, 1.2) == 0
        assert frequency_index(axis, 2.5) == len(axis) - 1
        assert frequency_index(axis, 1.2000000001) == 0
        with pytest.raises(ValueError, match="frequency axis"):
            frequency_index(axis, 5.0)
        with pytest.raises(ValueError):
            frequency_index((), 1.2, axis="empty")


class TestCampaignHeatmap:
    def test_campaign_rows_cache_and_match(self, tmp_path):
        cluster = Cluster(2)
        engine = CampaignEngine(
            store=ResultStore(tmp_path / "store.jsonl")
        )
        storeless = energy_heatmap("EP", threads=24, cluster=cluster)
        cached = energy_heatmap(
            "EP", threads=24, cluster=cluster,
            options=ExecutionOptions(campaign=engine),
        )
        assert np.array_equal(storeless.normalized, cached.normalized)
        executed = engine.total_executed
        assert executed == len(config.CORE_FREQUENCIES_GHZ)  # one per row
        again = energy_heatmap(
            "EP", threads=24, cluster=cluster,
            options=ExecutionOptions(campaign=engine),
        )
        assert engine.total_executed == executed  # all rows recalled
        assert np.array_equal(again.normalized, storeless.normalized)

    def test_topology_mismatch_rejected(self):
        engine = CampaignEngine(topology=NodeTopology.build(1, 8))
        with pytest.raises(CampaignError, match="topology"):
            energy_heatmap(
                "EP", threads=24, cluster=Cluster(2),
                options=ExecutionOptions(campaign=engine),
            )
