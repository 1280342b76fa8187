"""Market demand model: validation, simulation moments and negative-demand
screening."""
import warnings

import numpy as np
import pytest

from demandalloc import (
    DemandModel,
    TransferPoly,
    prob_negative,
    simulate,
)
from demandalloc.forecast import predict_streams

# 50-digit normal cdf values, frozen from tests/oracles.py.
PHI_MINUS_3 = 1.3498980316300946e-3
PHI_MINUS_1 = 0.15865525393145705


def iid_model(mu=15.0, scale=5.0):
    return DemandModel(mu, TransferPoly([scale]))


class TestModelValidation:
    def test_accepts_invertible_filter(self):
        m = DemandModel(10.0, TransferPoly([1.0, 0.5]))
        assert m.mu == 10.0
        assert m.psi.coeffs[1] == 0.5

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError, match="mu"):
            DemandModel(0.0, TransferPoly([5.0]))
        with pytest.raises(ValueError, match="mu"):
            DemandModel(-3.0, TransferPoly([5.0]))

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_rejects_non_finite_mean(self, mu):
        with pytest.raises(ValueError, match="mu"):
            DemandModel(mu, [5.0])

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError, match="psi"):
            DemandModel(10.0, TransferPoly([0.0, 1.0]))

    def test_rejects_noninvertible_filter(self):
        # one root at -5/6 sits inside the unit disk
        with pytest.raises(ValueError, match="invertible"):
            DemandModel(10.0, TransferPoly([0.5, 1.0, 0.48]))
        with pytest.raises(ValueError, match="invertible"):
            DemandModel(10.0, TransferPoly([1.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e-200, 1e-13, 1e13, 1e200])
    def test_rejects_noninvertible_filter_at_any_scale(self, scale):
        # scale (1 + 5 z) has its root at -0.2 however small its coefficients
        with pytest.raises(ValueError, match="invertible"):
            DemandModel(10.0, [scale, 5.0 * scale])

    def test_boundary_root_accepted(self):
        # invertibility only excludes roots strictly inside the unit disk;
        # a root on the circle passes model validation (factorization warns)
        m = DemandModel(10.0, TransferPoly([1.0, 1.0]))
        assert m.psi.degree == 1


class TestSimulate:
    def test_shapes_and_seed(self):
        # the path is the demand array alone; q = 2 presample shocks are
        # drawn ahead of it from the seed's one stream
        m = DemandModel(10.0, TransferPoly([1.0, 0.5, 0.25]))
        path = simulate(m, 500, 11)
        assert isinstance(path, np.ndarray)
        assert path.shape == (500,)
        shocks = np.random.default_rng(11).standard_normal(502)
        assert path[0] == pytest.approx(
            10.0 + shocks[2] + 0.5 * shocks[1] + 0.25 * shocks[0], abs=1e-12)

    def test_deterministic_per_seed(self):
        m = iid_model()
        a = simulate(m, 200, 42)
        b = simulate(m, 200, 42)
        c = simulate(m, 200, 43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_arrays_read_only(self):
        path = simulate(iid_model(), 50, 0)
        with pytest.raises(ValueError):
            path[0] = 99.0

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            simulate(iid_model(), 0, 0)

    def test_moving_average_identity(self):
        # each reported demand is exactly mu + sum_k psi_k e_{t-k}
        m = DemandModel(7.0, TransferPoly([1.0, -0.4, 0.3]))
        path = simulate(m, 60, 5)
        q = 2
        shocks = np.random.default_rng(5).standard_normal(60 + q)
        for t in range(60):
            want = 7.0 + sum(m.psi.coeffs[k] * shocks[q + t - k]
                             for k in range(q + 1))
            assert path[t] == pytest.approx(want, abs=1e-12)

    def test_iid_moments_long_run(self):
        path = simulate(iid_model(15.0, 5.0), 100_000, 0)
        assert abs(path.mean() - 15.0) < 0.05
        assert abs(path.var() - 25.0) < 0.5

    def test_ma1_lag_one_autocorrelation(self):
        m = DemandModel(10.0, TransferPoly([1.0, 0.8]))
        path = simulate(m, 100_000, 0)
        d = path - path.mean()
        r1 = float(np.dot(d[:-1], d[1:]) / np.dot(d, d))
        assert abs(r1 - 0.8 / 1.64) < 0.01

    def test_negative_demand_warning_at_high_cv(self):
        with pytest.warns(UserWarning, match="negative demand"):
            simulate(iid_model(5.0, 5.0), 10, 0)

    def test_no_warning_at_moderate_cv(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(iid_model(15.0, 5.0), 10, 0)


class TestProbNegative:
    def test_cv_one_third(self):
        assert prob_negative(iid_model(15.0, 5.0)) == pytest.approx(
            PHI_MINUS_3, abs=1e-12)

    def test_cv_one(self):
        assert prob_negative(iid_model(5.0, 5.0)) == pytest.approx(
            PHI_MINUS_1, abs=1e-12)

    def test_decreasing_in_mean(self):
        probs = [prob_negative(iid_model(mu, 5.0)) for mu in (5.0, 10.0, 20.0)]
        assert probs[0] > probs[1] > probs[2]

    def test_subnormal_mean(self):
        # 1/CV = mu / sd would overflow; mu / sd underflows to 0
        assert prob_negative(iid_model(5e-324, 5.0)) == 0.5

    def test_increasing_in_dispersion(self):
        lo = prob_negative(DemandModel(10.0, TransferPoly([1.0])))
        hi = prob_negative(DemandModel(10.0, TransferPoly([1.0, 0.9])))
        assert hi > lo


class TestMarketForecastability:
    def test_empirical_one_step_msfe_matches_filter_scale(self):
        # the optimal predictor's error variance is psi(0)^2 for an
        # invertible market filter; check the simulated path agrees
        m = DemandModel(10.0, TransferPoly([1.0, 0.8]))
        path = simulate(m, 100_000, 1)
        pred = predict_streams([m.psi], path[None], mean=m.mu)[0]
        rmse = float(np.sqrt(np.mean((path - pred) ** 2)))
        assert abs(rmse - 1.0) < 0.01
