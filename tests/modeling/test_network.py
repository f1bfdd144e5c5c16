"""Tests for the from-scratch neural network (Figure 4 architecture)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.modeling.layers import Dense, ReLU
from repro.modeling.network import EnergyNetwork
from repro.modeling.training import TrainingConfig, train_network
from tests.oracles.models import (
    Adam,
    mse,
    mse_gradient,
    serial_backward,
    serial_forward,
)


def _masking_network() -> EnergyNetwork:
    """A 3-3-3-1 network whose hidden layers pass their input through
    unchanged and whose output weighs the units 1, 10 and 100."""
    net = EnergyNetwork(n_inputs=3, hidden=3)
    eye, zero = np.eye(3), np.zeros(3)
    net.set_weights([eye, zero, eye, zero, np.array([[1.0], [10.0], [100.0]]), [0.0]])
    return net


class TestLayers:
    def test_dense_he_initialisation_statistics(self):
        layer = Dense(1000, 500)
        assert abs(float(layer.weights.mean())) < 0.01
        assert float(layer.weights.std()) == pytest.approx(
            np.sqrt(2.0 / 1000), rel=0.05
        )
        assert np.all(layer.bias == 0.0)

    def test_dense_gradient_check(self):
        """The reference backward (the one the lockstep step is pinned
        to bit for bit) matches numerical finite differences."""
        rng = np.random.default_rng(0)
        net = EnergyNetwork(n_inputs=4, hidden=3)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 1))
        pred, inputs = serial_forward(net, x)
        gradients = [np.zeros_like(p) for p in net.parameters]
        serial_backward(net, inputs, mse_gradient(pred, target), gradients)
        eps = 1e-6
        checked = [(0, (0, 0)), (0, (2, 1)), (0, (3, 2)), (2, (1, 2)), (4, (2, 0))]
        for slot, index in checked:
            weights = net.parameters[slot]
            weights[index] += eps
            up = mse(serial_forward(net, x)[0], target)
            weights[index] -= 2 * eps
            down = mse(serial_forward(net, x)[0], target)
            weights[index] += eps
            numeric = (up - down) / (2 * eps)
            assert gradients[slot][index] == pytest.approx(
                numeric, rel=1e-4, abs=1e-8
            )

    def test_relu_masks_negatives(self):
        out = _masking_network().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[200.0]]  # -1 * 1 would make it 199

    def test_dead_units_pass_no_gradient(self):
        net = _masking_network()
        _, inputs = serial_forward(net, np.array([[-1.0, 0.0, 2.0]]))
        gradients = [np.zeros_like(p) for p in net.parameters]
        serial_backward(net, inputs, np.ones((1, 1)), gradients)
        dead = ~(inputs[1][0] > 0)  # the first ReLU's input
        assert dead.tolist() == [True, True, False]
        assert np.all(gradients[1][dead] == 0.0)
        assert gradients[1][2] != 0.0


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
        with pytest.raises(ModelError):
            net.forward(np.ones((2, 9, 9)))

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

    def test_bound_optimizer_matches_explicit_gradients(self):
        """Same data, same seeds: training produces the exact per-epoch
        losses and final weights of explicit per-array stepping."""
        x, y = self._data()
        bound = train_network(x, y, config=TrainingConfig(epochs=3))

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
        model = train_network(x, y, config=TrainingConfig(epochs=25))
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
        a = train_network(x, y, config=TrainingConfig(epochs=2))
        b = train_network(x, y, config=TrainingConfig(epochs=2))
        assert np.allclose(a.predict(x), b.predict(x))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            train_network(np.ones((4, 9)), np.ones(5))
        # A column of targets used to fail mid-step with numpy's
        # "non-broadcastable output operand".
        with pytest.raises(ModelError):
            train_network(np.ones((4, 9)), np.ones((4, 1)))

    @pytest.mark.parametrize("where", ["features", "targets"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, where, value):
        """One NaN feature used to train to NaN first-layer weights
        behind finite losses (the ReLU masks it on the way forward);
        infinite values trained just as silently."""
        rng = np.random.default_rng(5)
        data = {"features": rng.uniform(-1, 1, size=(20, 9)), "targets": np.ones(20)}
        data[where].flat[7] = value
        with pytest.raises(ModelError, match="finite"):
            train_network(data["features"], data["targets"])

    def test_bad_config_rejected(self):
        with pytest.raises(ModelError):
            TrainingConfig(epochs=0)

    @pytest.mark.parametrize(
        "field", [{"epochs": 2.0}, {"epochs": True}, {"epochs": "5"}]
    )
    def test_counts_must_be_ints(self, field):
        """Float counts used to fail later with a raw TypeError, and
        ``epochs=True`` trained one epoch."""
        with pytest.raises(ModelError, match="must be an int"):
            TrainingConfig(**field)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=100))
    def test_prediction_finite_for_any_seed(self, seed):
        net = EnergyNetwork(seed=seed)
        x = np.random.default_rng(seed).standard_normal((5, 9))
        assert np.all(np.isfinite(net.predict(x)))
