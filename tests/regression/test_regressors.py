"""Tests for regression engines: linear, polynomial, SVR, MLP."""

import numpy as np
import pytest

from repro.regression import (LinearRegression, LogTargetRegressor,
                              MLPRegressor, NNLSRegression,
                              PolynomialRegression, SVR,
                              polynomial_expand, rmse)
from repro.regression.polynomial import _pair_indices


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def linear_data(rng, n=100, noise=0.01):
    x = rng.standard_normal((n, 3))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.5 * x[:, 2] + 3.0
    return x, y + noise * rng.standard_normal(n)


class TestLinearRegression:
    def test_recovers_linear_function(self, rng):
        x, y = linear_data(rng)
        model = LinearRegression().fit(x, y)
        assert rmse(model.predict(x), y) < 0.05

    def test_ridge_shrinks_coefficients(self, rng):
        x, y = linear_data(rng)
        ols = LinearRegression(alpha=0.0).fit(x, y)
        ridge = LinearRegression(alpha=100.0).fit(x, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(ols.coef_)

    def test_extrapolates(self, rng):
        x, y = linear_data(rng)
        model = LinearRegression().fit(x, y)
        far = np.array([[10.0, -10.0, 5.0]])
        expected = 2.0 * 10 - 1.0 * (-10) + 0.5 * 5 + 3.0
        assert model.predict(far)[0] == pytest.approx(expected, rel=0.05)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="must be fit"):
            LinearRegression().predict(np.zeros((1, 3)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_nonfinite(self):
        x = np.zeros((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LinearRegression().fit(x, np.zeros(3))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression(alpha=-1.0)


class TestNNLS:
    def test_coefficients_nonnegative(self, rng):
        x = rng.random((50, 3))
        y = -5.0 * x[:, 0] + x[:, 1]  # negative true coef on feature 0
        model = NNLSRegression().fit(x, y)
        assert np.all(model.coef_ >= 0.0)

    def test_fits_nonnegative_model_exactly(self, rng):
        x = rng.random((50, 2))
        y = 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 1]
        model = NNLSRegression().fit(x, y)
        np.testing.assert_allclose(model.coef_, [1.0, 2.0, 3.0], atol=1e-8)

    def test_without_intercept(self, rng):
        x = rng.random((50, 1))
        y = 2.0 * x[:, 0]
        model = NNLSRegression(include_intercept=False).fit(x, y)
        np.testing.assert_allclose(model.coef_, [2.0], atol=1e-8)


class TestLogTarget:
    def test_multiplicative_relationship(self, rng):
        x = rng.random((200, 2)) + 0.5
        y = 10.0 * x[:, 0] ** 2 / x[:, 1]
        model = LogTargetRegressor(
            PolynomialRegression(degree=2, alpha=1e-6))
        model.fit(np.log(x), y)
        pred = model.predict(np.log(x))
        assert np.all(pred > 0)
        rel = np.abs(pred / y - 1.0)
        assert rel.mean() < 0.02

    def test_rejects_nonpositive_targets(self, rng):
        x = rng.random((10, 2))
        with pytest.raises(ValueError, match="positive"):
            LogTargetRegressor(LinearRegression()).fit(x, np.zeros(10))


class TestPolynomialExpansion:
    def test_degree_two_column_count(self):
        x = np.ones((5, 4))
        expanded = polynomial_expand(x, degree=2)
        # 4 linear + 4 squares + C(4,2)=6 interactions
        assert expanded.shape == (5, 14)

    def test_degree_one_is_identity(self, rng):
        x = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(polynomial_expand(x, degree=1), x)

    def test_interaction_values(self):
        x = np.array([[2.0, 3.0]])
        expanded = polynomial_expand(x, degree=2)
        np.testing.assert_allclose(expanded[0],
                                   [2.0, 3.0, 4.0, 9.0, 6.0])

    def test_no_interactions(self):
        x = np.ones((2, 3))
        expanded = polynomial_expand(x, degree=2, interactions=False)
        assert expanded.shape == (2, 6)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            polynomial_expand(np.ones((2, 2)), degree=0)

    def test_cached_pairs_match_fresh_expansion(self, rng):
        # The uncached expression, index pairs recomputed every call.
        def reference(x, degree):
            blocks = [x] + [x ** power for power in range(2, degree + 1)]
            if degree >= 2 and x.shape[1] > 1:
                iu, ju = np.triu_indices(x.shape[1], k=1)
                blocks.append(x[:, iu] * x[:, ju])
            return np.hstack(blocks)

        for width in range(1, 51):
            x = rng.standard_normal((3, width))
            for degree in (1, 2, 3):
                got = polynomial_expand(x, degree=degree)
                assert got.tobytes() == reference(x, degree).tobytes()

    def test_cached_pairs_are_read_only(self):
        polynomial_expand(np.ones((1, 5)))
        for index in _pair_indices(5):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1


class TestPolynomialRegression:
    def test_fits_quadratic(self, rng):
        x = rng.standard_normal((200, 2))
        y = x[:, 0] ** 2 + 2.0 * x[:, 0] * x[:, 1] - x[:, 1] + 1.0
        model = PolynomialRegression(degree=2, alpha=1e-8).fit(x, y)
        assert rmse(model.predict(x), y) < 1e-4

    def test_linear_model_underfits_quadratic(self, rng):
        x = rng.standard_normal((200, 2))
        y = x[:, 0] ** 2 + x[:, 1] ** 2
        lin = LinearRegression().fit(x, y)
        poly = PolynomialRegression(degree=2).fit(x, y)
        assert rmse(poly.predict(x), y) < rmse(lin.predict(x), y) / 10

    def test_high_dimensional_stability(self, rng):
        # ~40 features -> ~860 expanded columns with fewer samples: ridge
        # must keep the solve stable.
        x = rng.standard_normal((300, 40))
        y = x[:, 0] + 0.1 * x[:, 1] ** 2
        model = PolynomialRegression(degree=2, alpha=1e-2).fit(x, y)
        pred = model.predict(x)
        assert np.isfinite(pred).all()
        assert rmse(pred, y) < 1.0


class TestSVR:
    def test_fits_linear_with_linear_kernel(self, rng):
        x, y = linear_data(rng, n=80)
        model = SVR(kernel="linear", C=100.0, epsilon=0.01).fit(x, y)
        assert rmse(model.predict(x), y) < 0.2

    def test_fits_nonlinear_with_rbf(self, rng):
        x = rng.uniform(-2, 2, size=(120, 1))
        y = np.sin(2 * x[:, 0])
        model = SVR(kernel="rbf", C=100.0, gamma=1.0, epsilon=0.01,
                    max_iter=5000).fit(x, y)
        assert rmse(model.predict(x), y) < 0.1

    def test_dual_constraints_hold(self, rng):
        x, y = linear_data(rng, n=60)
        model = SVR(C=5.0).fit(x, y)
        assert np.all(np.abs(model.beta_) <= 5.0 + 1e-9)
        assert abs(model.beta_.sum()) < 1e-6

    def test_support_vectors_subset(self, rng):
        x, y = linear_data(rng, n=60)
        model = SVR(C=5.0, epsilon=0.2).fit(x, y)
        assert 0 < len(model.support_) <= 60

    def test_epsilon_tube_reduces_supports(self, rng):
        x, y = linear_data(rng, n=60, noise=0.05)
        tight = SVR(kernel="linear", epsilon=0.001).fit(x, y)
        loose = SVR(kernel="linear", epsilon=0.5).fit(x, y)
        assert len(loose.support_) < len(tight.support_)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SVR(kernel="poly")
        with pytest.raises(ValueError):
            SVR(C=-1.0)


class TestMLPRegressor:
    def test_fits_smooth_function(self, rng):
        x = rng.uniform(-1, 1, size=(150, 2))
        y = x[:, 0] + 0.5 * x[:, 1]
        model = MLPRegressor(hidden_neurons=4, epochs=200, seed=0)
        model.fit(x, y)
        assert rmse(model.predict(x), y) < 0.1

    def test_deterministic_given_seed(self, rng):
        x = rng.uniform(-1, 1, size=(50, 2))
        y = x[:, 0]
        p1 = MLPRegressor(epochs=30, seed=3).fit(x, y).predict(x)
        p2 = MLPRegressor(epochs=30, seed=3).fit(x, y).predict(x)
        np.testing.assert_array_equal(p1, p2)

    def test_invalid_neurons(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden_neurons=0)
