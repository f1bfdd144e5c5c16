"""Tests for the from-scratch neural network (Figure 4 architecture)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.modeling.batched import backward_batch, forward_batch
from repro.modeling.layers import Dense, ReLU
from repro.modeling.loss import mse, mse_gradient
from repro.modeling.network import EnergyNetwork
from repro.modeling.training import TrainingConfig, train_network
from tests.oracles.models import Adam, serial_backward, serial_forward


class TestLayers:
    def test_dense_forward_shape(self):
        layer = Dense(9, 5)
        out = layer.forward(np.ones((7, 9)))
        assert out.shape == (7, 5)

    def test_dense_he_initialisation_statistics(self):
        layer = Dense(1000, 500)
        assert abs(float(layer.weights.mean())) < 0.01
        assert float(layer.weights.std()) == pytest.approx(
            np.sqrt(2.0 / 1000), rel=0.05
        )
        assert np.all(layer.bias == 0.0)

    def test_dense_gradient_check(self):
        """Backprop gradient matches numerical finite differences."""
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 3))
        pred = layer.forward(x)
        grad_weights, _ = backward_batch(
            layer.parameters, x, mse_gradient(pred, target)
        )
        eps = 1e-6
        for i, j in [(0, 0), (2, 1), (3, 2)]:
            layer.weights[i, j] += eps
            up = mse(layer.forward(x), target)
            layer.weights[i, j] -= 2 * eps
            down = mse(layer.forward(x), target)
            layer.weights[i, j] += eps
            numeric = (up - down) / (2 * eps)
            assert grad_weights[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_relu_masks_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]
        net = EnergyNetwork(n_inputs=3, hidden=3)
        x = np.array([[-1.0, 0.0, 2.0]])
        saved = []
        forward_batch(net.parameters, x, saved=saved)
        grads = backward_batch(net.parameters, x, np.ones((1, 1)), saved=saved)
        dead = ~saved[1][0]  # the first ReLU's mask
        assert np.all(grads[1][dead] == 0.0)  # dead units pass no gradient


class TestNetworkArchitecture:
    def test_paper_architecture(self):
        """Fig. 4: 9 inputs, two hidden layers of 5 neurons, 1 output."""
        net = EnergyNetwork()
        dense = [layer for layer in net.layers if isinstance(layer, Dense)]
        relu = [layer for layer in net.layers if isinstance(layer, ReLU)]
        assert [(d.weights.shape) for d in dense] == [(9, 5), (5, 5), (5, 1)]
        assert len(relu) == 2

    def test_parameter_count(self):
        net = EnergyNetwork()
        n_params = sum(p.size for p in net.parameters)
        assert n_params == 9 * 5 + 5 + 5 * 5 + 5 + 5 * 1 + 1  # 91

    def test_predict_shape(self):
        net = EnergyNetwork()
        assert net.predict(np.ones((4, 9))).shape == (4,)

    def test_wrong_input_width_rejected(self):
        net = EnergyNetwork()
        with pytest.raises(ModelError):
            net.forward(np.ones((2, 7)))

    def test_weight_roundtrip(self):
        net = EnergyNetwork(seed=1)
        clone = EnergyNetwork.from_dict(net.to_dict())
        x = np.random.default_rng(0).standard_normal((3, 9))
        assert np.allclose(net.predict(x), clone.predict(x))

    def test_weight_shape_mismatch_rejected(self):
        net = EnergyNetwork()
        bad = [np.zeros((2, 2))] * len(net.parameters)
        with pytest.raises(ModelError):
            net.set_weights(bad)


class TestAdam:
    def test_minimises_quadratic(self):
        w = np.array([5.0, -3.0])
        opt = Adam([w], learning_rate=0.1)
        for _ in range(500):
            opt.step([2 * w])  # d/dw ||w||^2
        assert np.all(np.abs(w) < 1e-2)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(1)], learning_rate=0)

    def test_gradient_count_mismatch_rejected(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(ModelError):
            opt.step([np.zeros(2), np.zeros(2)])


class TestAllocationFreeUpdates:
    """Training writes gradients into preallocated buffers and steps a
    fused ADAM; it must equal per-step list passing to the bit."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(42)
        x = rng.standard_normal((40, 9))
        y = rng.standard_normal(40)
        return x, y

    def test_gradient_buffers_are_stable_and_written_in_place(self):
        net = EnergyNetwork(n_inputs=4, hidden=3, seed=0)
        x = np.random.default_rng(1).standard_normal((5, 4))
        buffers = [np.zeros_like(p) for p in net.parameters]
        grads = backward_batch(net.parameters, x, np.ones((5, 1)), out=buffers)
        assert all(g is b for g, b in zip(grads, buffers))
        first = [b.copy() for b in buffers]
        saved = []
        forward_batch(net.parameters, x, saved=saved)
        backward_batch(
            net.parameters, x, 2 * np.ones((5, 1)), saved=saved, out=buffers
        )
        assert all(g is b for g, b in zip(grads, buffers))  # same buffers
        for got, single in zip(buffers, first):
            assert np.array_equal(got, 2 * single)

    def test_bound_optimizer_matches_explicit_gradients(self):
        """Same data, same seeds: training produces the exact per-epoch
        losses and final weights of explicit per-array stepping."""
        x, y = self._data()
        bound = train_network(x, y, config=TrainingConfig(epochs=3, seed=0))

        # Reference loop: fresh gradient list passed every update, fresh
        # gradient copies so no buffer identity is exploited.
        from repro.modeling.scaler import StandardScaler
        from repro.util.rng import rng_for

        scaler = StandardScaler()
        xs = scaler.fit_transform(x)
        ys = y[:, None]
        net = EnergyNetwork(n_inputs=9, seed=0)
        optimizer = Adam(net.parameters, learning_rate=1e-3)
        rng = rng_for("training-shuffle", seed=0)
        losses = []
        for _epoch in range(3):
            order = rng.permutation(40)
            epoch_loss, batches = 0.0, 0
            for start in range(0, 40, 1):
                idx = order[start : start + 1]
                pred, inputs = serial_forward(net, xs[idx])
                epoch_loss += mse(pred, ys[idx])
                batches += 1
                gradients = [np.zeros_like(p) for p in net.parameters]
                serial_backward(net, inputs, mse_gradient(pred, ys[idx]), gradients)
                optimizer.step([g.copy() for g in gradients])
            losses.append(epoch_loss / batches)

        assert bound.losses == losses
        for got, expected in zip(bound.network.get_weights(), net.get_weights()):
            assert np.array_equal(got, expected)

    def test_step_without_bound_gradients_rejected(self):
        optimizer = Adam([np.zeros(2)])
        with pytest.raises(ModelError):
            optimizer.step()

    def test_bound_gradient_count_mismatch_rejected(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(2)], gradients=[np.zeros(2), np.zeros(2)])


class TestTraining:
    def test_learns_smooth_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(600, 9))
        y = 1.0 + 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2 + 0.1 * x[:, 7]
        model = train_network(x, y, config=TrainingConfig(epochs=25, seed=2))
        pred = model.predict(x)
        rel = np.mean(np.abs(pred - y) / np.abs(y))
        assert rel < 0.08

    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(400, 9))
        y = 1.0 + 0.5 * x[:, 0]
        model = train_network(x, y, config=TrainingConfig(epochs=5))
        assert model.losses[-1] < model.losses[0]

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(100, 9))
        y = x[:, 0]
        a = train_network(x, y, config=TrainingConfig(epochs=2, seed=7))
        b = train_network(x, y, config=TrainingConfig(epochs=2, seed=7))
        assert np.allclose(a.predict(x), b.predict(x))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            train_network(np.ones((4, 9)), np.ones(5))

    def test_bad_config_rejected(self):
        with pytest.raises(ModelError):
            TrainingConfig(epochs=0)
        with pytest.raises(ModelError):
            TrainingConfig(learning_rate=-1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), "1e-3", True])
    def test_non_finite_or_non_numeric_rate_rejected(self, rate):
        """A NaN or infinite rate used to train silently to NaN weights."""
        with pytest.raises(ModelError, match="learning rate"):
            TrainingConfig(learning_rate=rate)

    @pytest.mark.parametrize(
        "field",
        [
            {"epochs": 2.0},
            {"epochs": True},
            {"epochs": "5"},
            {"batch_size": 1.0},
            {"batch_size": False},
        ],
    )
    def test_counts_must_be_ints(self, field):
        """Float counts used to fail later with a raw TypeError, and
        ``epochs=True`` trained one epoch."""
        with pytest.raises(ModelError, match="must be an int"):
            TrainingConfig(**field)

    def test_integral_rate_accepted(self):
        assert TrainingConfig(learning_rate=1).learning_rate == 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=100))
    def test_prediction_finite_for_any_seed(self, seed):
        net = EnergyNetwork(seed=seed)
        x = np.random.default_rng(seed).standard_normal((5, 9))
        assert np.all(np.isfinite(net.predict(x)))
