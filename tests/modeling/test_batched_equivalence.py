"""Batched-vs-pointwise model-evaluation equivalence (bit-exact).

The load-bearing property of the batched engine: every consumer-visible
number — grid predictions, LOOCV MAPE, static-configuration and counter
selections — is *bit-identical* between the stacked fast path and the
historical pointwise loops, across applications, regions and seeds.
"""

import numpy as np
import pytest

from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore, job_key
from repro.errors import ModelError
from repro.modeling.batched import (
    BatchedModelEvaluator,
    backward_batch,
    forward_batch,
    frequency_grid,
    predict_energy_grid,
    stack_grid_features,
)
from repro.modeling.crossval import leave_one_out_mape, network_loocv_mape
from repro.modeling.dataset import build_dataset
from repro.modeling.metrics import mape
from repro.modeling.model_cache import (
    dataset_digest,
    model_from_payload,
    model_to_payload,
    train_network_cached,
    training_descriptor,
)
from repro.modeling.network import EnergyNetwork
from repro.modeling.selection import select_counters
from repro.modeling import crossval
from repro.modeling.training import TrainingConfig, train_network, train_networks
from repro.ptf.region_model import RegionModelTuner
from repro.ptf.static_tuning import select_static_configurations
from repro.util.rng import rng_for
from repro.workloads import registry
from tests.oracles.models import (
    pointwise_grid,
    pointwise_loocv_mape,
    pointwise_select_counters,
    pointwise_static_selections,
    serial_backward,
    serial_forward,
    serial_train_network,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        ("EP", "Mcb", "Lulesh", "CG", "FT", "XSBench"), thread_counts=(16, 24)
    )


@pytest.fixture(scope="module")
def model(dataset):
    return train_network(
        dataset.features, dataset.targets, config=TrainingConfig(epochs=6)
    )


class TestForwardBackward:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("rows", [2, 5, 64, 513])
    def test_forward_batch_matches_network_forward(self, seed, rows):
        net = EnergyNetwork(seed=seed)
        x = rng_for("batched-test", rows, seed=seed).normal(size=(rows, 9))
        assert np.array_equal(forward_batch(net.parameters, x), net.forward(x))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_stack_matches_chunked_evaluation(self, seed):
        """Stacking rows does not change a single output bit (the
        property the whole engine rests on)."""
        net = EnergyNetwork(seed=seed)
        x = rng_for("batched-chunk", seed=seed).normal(size=(612, 9))
        full = forward_batch(net.parameters, x)
        for chunk in (2, 9, 102):
            parts = [
                forward_batch(net.parameters, x[i : i + chunk])
                for i in range(0, x.shape[0], chunk)
            ]
            assert np.array_equal(np.vstack(parts), full)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_backward_batch_matches_network_backward(self, seed):
        net = EnergyNetwork(seed=seed)
        rng = rng_for("batched-grad", seed=seed)
        x = rng.normal(size=(37, 9))
        grad_out = rng.normal(size=(37, 1))
        _, inputs = serial_forward(net, x)
        reference = [np.zeros_like(p) for p in net.parameters]
        serial_backward(net, inputs, grad_out, reference)
        grads = backward_batch(net.parameters, x, grad_out)
        assert len(grads) == len(reference)
        for got, want in zip(grads, reference):
            assert np.array_equal(got, want)

    def test_malformed_weights_rejected(self):
        with pytest.raises(ModelError):
            forward_batch([np.ones((9, 5))], np.ones((2, 9)))
        with pytest.raises(ModelError):
            backward_batch([np.ones((9, 5))], np.ones((2, 9)), np.ones((2, 1)))


class TestLockstepTraining:
    def test_stacked_products_match_per_slice_matmuls(self):
        """The lockstep trainer's bit-identity rests on a stacked
        ``(K, 1, n) @ (K, n, m)`` (and the transposed backward products)
        computing each slice exactly as the 2-D matmul does."""
        rng = rng_for("stacked-matmul")
        for _trial in range(2000):
            k, n, m = (int(v) for v in rng.integers(1, 12, size=3))
            x = rng.normal(size=(k, 1, n))
            w = rng.normal(size=(k, n, m))
            g = rng.normal(size=(k, 1, m))
            forward = x @ w
            weight_grad = x.swapaxes(-1, -2) @ g
            input_grad = g @ w.swapaxes(-1, -2)
            for s in range(k):
                assert np.array_equal(forward[s], x[s] @ w[s])
                assert np.array_equal(weight_grad[s], x[s].T @ g[s])
                assert np.array_equal(input_grad[s], g[s] @ w[s].T)

    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_unequal_row_sets_match_serial_oracle(self, dataset, batch_size):
        """Row sets of different sizes (and ragged last batches, since 7
        divides none of them) train exactly as the serial loop does on
        each subset alone."""
        groups = dataset.groups
        fold = np.flatnonzero(groups != "EP")
        row_sets = [
            fold,
            fold[:-1],
            np.flatnonzero(~np.isin(groups, ["CG", "FT"])),
            rng_for("row-subset").permutation(len(groups))[:201],
        ]
        assert all(len(rows) % batch_size or batch_size == 1 for rows in row_sets)
        config = TrainingConfig(epochs=2, batch_size=batch_size)
        models = train_networks(dataset.features, dataset.targets, row_sets, config)
        for rows, model in zip(row_sets, models):
            reference = serial_train_network(
                dataset.features[rows], dataset.targets[rows], config=config
            )
            assert model.losses == reference.losses
            assert model.scaler.to_dict() == reference.scaler.to_dict()
            for got, want in zip(
                model.network.get_weights(), reference.network.get_weights()
            ):
                assert np.array_equal(got, want)

    def test_no_row_sets_trains_nothing(self, dataset):
        assert train_networks(dataset.features, dataset.targets, []) == []

    @pytest.mark.parametrize("rows", [[], [[0, 1]], [0.0, 1.0], [-1, 0], [0, 10**6]])
    def test_malformed_row_set_rejected(self, dataset, rows):
        with pytest.raises(ModelError, match="row set"):
            train_networks(dataset.features, dataset.targets, [np.asarray(rows)])


class TestGridAssembly:
    def test_stacked_features_match_pointwise_rows(self):
        rates = rng_for("grid-rates").normal(size=(3, 7)) ** 2
        points, grid = frequency_grid()
        stacked = stack_grid_features(rates, grid)
        assert stacked.shape == (3 * len(points), 9)
        row = 0
        for vec in rates:
            for cf, ucf in points:
                assert np.array_equal(stacked[row], np.concatenate([vec, [cf, ucf]]))
                row += 1

    def test_single_vector_promoted(self):
        points, grid = frequency_grid()
        stacked = stack_grid_features(np.ones(7), grid)
        assert stacked.shape == (len(points), 9)


class TestGridPredictionEquivalence:
    @pytest.mark.parametrize("rows", [1, 2, 6])
    def test_engines_bit_identical(self, model, dataset, rows):
        rates = np.asarray(list(dataset.counter_rates.values())[:rows])
        batched = predict_energy_grid(model, rates)
        pointwise = pointwise_grid(model, rates)
        assert batched.points == pointwise.points
        assert np.array_equal(batched.energies, pointwise.energies)
        assert batched.best() == pointwise.best()

    def test_evaluator_matches_trained_model_predict(self, model, dataset):
        features = dataset.features[:100]
        assert np.array_equal(
            BatchedModelEvaluator(model).predict(features),
            model.predict(features),
        )

    def test_grid_dict_matches_historical_plugin_loop(self, model, dataset):
        from repro import config

        rates = dataset.counter_rates[("Mcb", 24)]
        rows = []
        for cf in config.CORE_FREQUENCIES_GHZ:
            for ucf in config.UNCORE_FREQUENCIES_GHZ:
                rows.append(np.concatenate([rates, [cf, ucf]]))
        reference = model.predict(np.asarray(rows))
        grid = predict_energy_grid(model, rates, labels=("x",)).as_dict("x")
        assert np.array_equal(np.asarray(list(grid.values())), reference)


class TestLOOCVEquivalence:
    def test_loocv_mape_bit_identical_across_engines(self, dataset):
        config = TrainingConfig(epochs=3)
        pointwise = pointwise_loocv_mape(dataset, config=config)
        batched = network_loocv_mape(dataset, config=config)
        assert pointwise == batched  # dict equality: same keys, same bits

    def test_matches_generic_loocv_harness(self, dataset):
        config = TrainingConfig(epochs=3)

        def fit_predict(tx, ty, ex):
            return train_network(tx, ty, config=config).predict(ex)

        expected = leave_one_out_mape(dataset, fit_predict)
        assert network_loocv_mape(dataset, config=config) == expected

    def test_partial_store_recalls_serial_folds_and_trains_the_rest(
        self, tmp_path, dataset, monkeypatch
    ):
        """Stores stay compatible both ways: folds pre-filled with the
        serial oracle's payloads are recalled, not retrained, and the
        folds the lockstep pass trains persist records equal to the
        serial oracle's."""
        config = TrainingConfig(epochs=2)
        serial, keys, expected = {}, {}, {}
        for bench in dataset.benchmarks:
            train, test = dataset.split({bench})
            descriptor = training_descriptor(
                dataset_digest(train.features, train.targets), config
            )
            keys[bench] = (job_key(descriptor), descriptor)
            model = serial_train_network(train.features, train.targets, config=config)
            serial[bench] = model_to_payload(model)
            expected[bench] = mape(model.predict(test.features), test.targets)
        store = ResultStore(tmp_path / "store.jsonl")
        prefilled = dataset.benchmarks[::2]
        for bench in prefilled:
            store.put(*keys[bench], serial[bench])

        trained_rows = []

        def spy(features, targets, row_sets, config):
            trained_rows.extend(len(rows) for rows in row_sets)
            return train_networks(features, targets, row_sets, config)

        monkeypatch.setattr(crossval, "train_networks", spy)
        got = network_loocv_mape(
            dataset, config=config, campaign=CampaignEngine(store=store)
        )
        assert len(trained_rows) == len(dataset.benchmarks) - len(prefilled)
        assert got == expected  # the pointwise_loocv_mape oracle, inlined
        for bench in dataset.benchmarks:
            assert store.get(keys[bench][0]) == serial[bench]
            assert serial[bench] == store.get(keys[bench][0])

    def test_warm_model_store_skips_training_and_is_identical(
        self, tmp_path, dataset
    ):
        config = TrainingConfig(epochs=3)
        store = ResultStore(tmp_path / "store.jsonl")
        campaign = CampaignEngine(store=store)
        cold = network_loocv_mape(dataset, config=config, campaign=campaign)
        assert len(store) == len(dataset.benchmarks)
        store.close()
        warm_campaign = CampaignEngine(
            store=ResultStore(tmp_path / "store.jsonl")
        )
        warm = network_loocv_mape(dataset, config=config, campaign=warm_campaign)
        assert cold == warm
        assert len(warm_campaign.store) == len(dataset.benchmarks)  # no retrain


class TestModelCache:
    def test_cached_model_bit_identical(self, dataset):
        config = TrainingConfig(epochs=2)
        store = ResultStore(None)
        first = train_network_cached(
            dataset.features, dataset.targets, config=config, store=store
        )
        second = train_network_cached(
            dataset.features, dataset.targets, config=config, store=store
        )
        for a, b in zip(first.network.get_weights(), second.network.get_weights()):
            assert np.array_equal(a, b)
        assert first.losses == second.losses
        assert np.array_equal(
            first.predict(dataset.features[:10]),
            second.predict(dataset.features[:10]),
        )

    def test_digest_sensitive_to_data_and_config(self, dataset):
        d1 = dataset_digest(dataset.features, dataset.targets)
        d2 = dataset_digest(dataset.features[:-1], dataset.targets[:-1])
        assert d1 != d2
        k1 = training_descriptor(d1, TrainingConfig(epochs=2))
        k2 = training_descriptor(d1, TrainingConfig(epochs=3))
        assert k1 != k2

    def test_stale_model_payload_surfaces_clear_error(self):
        with pytest.raises(ModelError, match="older store schema"):
            model_from_payload({"weights": []})

    def test_payload_round_trip(self, model, dataset):
        rebuilt = model_from_payload(model_to_payload(model))
        assert np.array_equal(
            rebuilt.predict(dataset.features[:50]),
            model.predict(dataset.features[:50]),
        )


class TestSelectionEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_engines_select_identical_counters_synthetic(self, seed):
        rng = rng_for("selection-equiv", seed=seed)
        n, j = 240, 12
        rates = rng.normal(size=(n, j))
        freqs = rng.normal(size=(n, 2))
        coef = np.zeros(j)
        coef[rng.choice(j, size=4, replace=False)] = rng.normal(size=4) * 2
        targets = rates @ coef + freqs @ [0.5, -0.3] + rng.normal(size=n) * 0.1
        names = [f"C{i}" for i in range(j)]
        batched = select_counters(rates, names, freqs, targets)
        pointwise = pointwise_select_counters(rates, names, freqs, targets)
        assert batched.counters == pointwise.counters
        assert batched.vifs == pointwise.vifs
        assert np.isclose(batched.adjusted_r2, pointwise.adjusted_r2)

    def test_engines_agree_on_real_dataset(self, dataset):
        freqs = dataset.features[:, -2:]
        rates = dataset.features[:, :-2]
        names = list(dataset.feature_names[:-2])
        batched = select_counters(rates, names, freqs, dataset.targets)
        pointwise = pointwise_select_counters(rates, names, freqs, dataset.targets)
        assert batched.counters == pointwise.counters


class TestStaticSelectionEquivalence:
    def test_selected_configurations_bit_identical(self, model, dataset):
        batched = select_static_configurations(model, dataset.counter_rates)
        pointwise = pointwise_static_selections(model, dataset.counter_rates)
        assert set(batched) == set(dataset.counter_rates)
        assert batched == pointwise  # OperatingPoint + energy, bit-equal

    def test_empty_series_ok(self, model):
        assert select_static_configurations(model, {}) == {}


class TestRegionTunerEquivalence:
    @pytest.mark.parametrize("app_name", ["Lulesh", "Mcb"])
    def test_tuner_engines_bit_identical(self, model, app_name):
        from repro.hardware.cluster import Cluster

        app = registry.build(app_name)
        regions = tuple(r.name for r in app.candidate_regions if r.has_work)[:3]
        cluster = Cluster(2)
        tuner = RegionModelTuner(model, cluster)
        batched = tuner.tune(app, regions)
        phase = app.phase.name
        rates = {
            **tuner.measure_region_rates(app, regions),
            phase: tuner.measure_region_rates(app, (phase,))[phase],
        }
        names = tuple(rates)
        grid = pointwise_grid(model, np.asarray([rates[n] for n in names]), names)
        pointwise = grid.best()
        predictions = {phase: batched.phase_prediction, **batched.region_predictions}
        for name, p in predictions.items():
            assert (p.best_frequencies, p.predicted_energy) == pointwise[name]
