"""Tests for the scaler, the reference loss, accuracy metrics and VIF."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ModelError
from repro.modeling.metrics import mape, mean_absolute_error
from repro.modeling.scaler import StandardScaler
from repro.modeling.vif import mean_vif, variance_inflation_factors
from tests.oracles.models import mse, mse_gradient


class TestScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_stays_finite(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(z))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ModelError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_feature_count_mismatch_rejected(self):
        scaler = StandardScaler().fit(np.ones((5, 3)))
        with pytest.raises(ModelError):
            scaler.transform(np.ones((2, 4)))

    def test_dict_roundtrip(self):
        scaler = StandardScaler().fit(np.random.default_rng(1).normal(size=(20, 3)))
        clone = StandardScaler.from_dict(scaler.to_dict())
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert np.allclose(scaler.transform(x), clone.transform(x))

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            float,
            (30, 3),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    def test_transform_is_affine_invertible(self, x):
        scaler = StandardScaler().fit(x)
        z = scaler.transform(x)
        back = z * scaler.scale_ + scaler.mean_
        assert np.allclose(back, x, rtol=1e-8, atol=1e-6)


class TestLossMetrics:
    def test_mse_zero_for_perfect_prediction(self):
        x = np.array([[1.0], [2.0]])
        assert mse(x, x) == 0.0

    def test_mse_gradient_direction(self):
        pred = np.array([[2.0]])
        target = np.array([[1.0]])
        assert mse_gradient(pred, target)[0, 0] > 0

    def test_mape_percent_units(self):
        assert mape(np.array([1.1]), np.array([1.0])) == pytest.approx(10.0)

    def test_mape_zero_target_rejected(self):
        with pytest.raises(ModelError):
            mape(np.array([1.0]), np.array([0.0]))

    def test_mae(self):
        assert mean_absolute_error(np.array([1.0, 3.0]), np.array([2.0, 1.0])) == 1.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            mse(np.ones(3), np.ones(4))


class TestVIF:
    def test_independent_features_have_low_vif(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 4))
        vifs = variance_inflation_factors(x)
        assert np.all(vifs < 1.1)

    def test_collinear_features_have_high_vif(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=500)
        x = np.column_stack([a, a + rng.normal(scale=0.01, size=500)])
        vifs = variance_inflation_factors(x)
        assert np.all(vifs > 100)

    def test_single_feature_is_unity(self):
        assert variance_inflation_factors(np.ones((10, 1)) * 2).tolist() == [1.0]

    def test_mean_vif(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 3))
        assert mean_vif(x) == pytest.approx(
            float(np.mean(variance_inflation_factors(x)))
        )

    def test_too_few_samples_rejected(self):
        with pytest.raises(ModelError):
            variance_inflation_factors(np.ones((2, 2)))
