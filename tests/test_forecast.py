"""Seller-side forecasting: innovations benchmark, smoothing-filter MSFEs,
and lead-time demand uncertainty."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandalloc import (
    AllocationPolicy,
    DemandModel,
    DemandPath,
    FBM,
    FBP,
    FilterForecaster,
    InsufficientHistory,
    TransferPoly,
    filter_msfe,
    forecast,
    inner_outer_factor,
    lagged_variant,
    leadtime_msfe,
    market_table,
    neutral_policy,
    root_msfe,
    seller_filter,
    ses_truncated_weights,
    sigma_lower_bound,
    simulate,
    uniform_policy,
)
from demandalloc.forecast import (PREDICT_ROW_CAP, SES_MAX_ORDER,
                                  SES_MIN_LAMBDA, _innovations_rows,
                                  predict_streams, simulate_inventory)
from oracles import (benchmark_targets, mp_root_msfe, mp_roots,
                     ref_innovations_predict, ses_msfe_closed_form)
from test_routing import relabelled_policy, routed_designs
from test_seller import COSTS, SELLERS, TABLE

M5 = DemandModel(15.0, TransferPoly([5.0]))
SIGMA_STAR = 8.867803761159964

LEADTIME_MODELS = [DemandModel(15.0, TransferPoly([5.0])),
                   DemandModel(15.0, TransferPoly([1.0, 0.5])),
                   DemandModel(15.0, TransferPoly([2.0, -0.6, 0.4]))]

# Three sellers with two-lag transfers that sum to N coefficient-wise.
CUSTOM_POLICY = AllocationPolicy(3, [TransferPoly([1.0, 2.5, -0.4]),
                                     TransferPoly([1.0, -1.2, 0.6]),
                                     TransferPoly([1.0, -1.3, -0.2])])


def _lead_time_designs():
    def target(m, N):
        return 2.4 * sigma_lower_bound(m, N)

    designs = {f"neutral-N{N}": (lambda m, N=N: neutral_policy(m, N, target(m, N)))
               for N in (2, 3, 4, 5)}
    designs.update({
        f"lagged-N{N}-k{k}":
            (lambda m, N=N, k=k: lagged_variant(m, N, target(m, N), k=k))
        for N in (2, 4) for k in (1, 2, 3)})
    designs["odd-permuted"] = lambda m: relabelled_policy(
        neutral_policy(m, 5, target(m, 5)), [3, 5, 1, 4, 2])
    designs["custom"] = lambda m: CUSTOM_POLICY
    return designs


LEADTIME_DESIGNS = _lead_time_designs()


def settled_msfe(p: TransferPoly, horizon: int) -> float:
    """Root of the settled one-step variance of the innovations recursion
    predict_streams runs; fails unless it settles within horizon steps."""
    _, v = _innovations_rows(p.coeffs, horizon)
    assert v.size <= horizon, f"innovations variance still moving after {horizon} steps"
    return math.sqrt(v[-1])


class TestInnovationsMsfe:
    def test_factorable_case(self):
        got = settled_msfe(TransferPoly([0.5, -0.2, -0.48]), horizon=400)
        assert got == pytest.approx(0.6, abs=1e-6)

    def test_invertible_ma1_keeps_shock_scale(self):
        assert settled_msfe(TransferPoly([1.0, 0.5]), horizon=200) == \
            pytest.approx(1.0, abs=1e-8)

    def test_noninvertible_ma1_reflects_the_root(self):
        assert settled_msfe(TransferPoly([1.0, 2.0]), horizon=200) == \
            pytest.approx(2.0, abs=1e-8)

    def test_degree_zero(self):
        assert settled_msfe(TransferPoly([-3.0]), horizon=50) == 3.0


class TestInnovationsPredict:
    def test_iid_filter_predicts_the_mean(self):
        series = np.array([3.0, 7.0, 5.0, 6.0])
        pred = predict_streams([TransferPoly([5.0])], series[None], mean=5.0)
        np.testing.assert_allclose(pred, 5.0)

    def test_empirical_error_matches_theory(self):
        model = DemandModel(10.0, TransferPoly([1.0, 0.6]))
        path = simulate(model, 20_000, 4)
        pred = predict_streams([model.psi], path.demands[None], mean=model.mu)[0]
        rmse = float(np.sqrt(np.mean((path.demands - pred) ** 2)))
        assert rmse == pytest.approx(1.0, rel=0.02)

    def test_no_series_gives_no_rows(self):
        pred = predict_streams([], np.zeros((0, 7)))
        assert pred.shape == (0, 7)

    @pytest.mark.parametrize("n_filters", [0, 1, 3])
    def test_one_filter_per_series(self, n_filters):
        with pytest.raises(ValueError, match=f"{n_filters} filters for 2 series"):
            predict_streams([TransferPoly([1.0, 0.5])] * n_filters,
                            np.zeros((2, 5)))


# Nonzero coefficients keep each filter's drawn degree (TransferPoly trims
# near-zero trailing coefficients).
_COEFF = st.floats(-3.0, 3.0).filter(lambda c: abs(c) >= 0.05)
_FILTER = st.integers(0, 4).flatmap(
    lambda d: st.lists(_COEFF, min_size=d + 1, max_size=d + 1))


def _assert_stack_matches_scalar(filters, T, seed, mean=4.0):
    series = mean + 3.0 * np.random.default_rng(seed).standard_normal((len(filters), T))
    got = predict_streams([TransferPoly(c) for c in filters], series, mean)
    want = np.array([ref_innovations_predict(TransferPoly(c).coeffs, s, mean)
                     for c, s in zip(filters, series)])
    # bit for bit, zero signs included
    assert got.tobytes() == want.tobytes()


# A small pool, so drawn lists repeat filters: degree 0 (two), 1, 2, 4 and 9;
# a lone degree-9 series is where numpy would sum the lags pairwise.
_POOL = ([2.0], [-0.7], [1.0, -0.9], [0.5, 1.0, 0.48],
         [1.2, -0.3, 0.4, 0.15, -0.22],
         [1.0, 0.3, -0.2, 0.1, 0.05, -0.04, 0.03, 0.02, 0.01, 0.01])
# innovations rows [1.0, -0.9] takes to settle
_SETTLE_ROWS = _innovations_rows(np.array(_POOL[2]), 400)[0].shape[0]


class TestPredictStreams:
    """All sellers predicted at once equal the one-series scalar loop."""

    @given(st.lists(st.sampled_from(_POOL), min_size=1, max_size=6),
           st.integers(0, 400), st.integers(0, 2 ** 32 - 1))
    @example([_POOL[3], _POOL[4]], 0, 0)
    @example([_POOL[0], _POOL[1], _POOL[0]], 50, 1)
    @example([_POOL[2], _POOL[4], _POOL[0]], _SETTLE_ROWS, 2)
    @example([_POOL[4]] * 5, 300, 3)
    @example([_POOL[5]], 200, 4)
    @settings(max_examples=60, deadline=None)
    def test_settled_loop_and_shared_filters_match_scalar_loop(self, filters, T,
                                                               seed):
        _assert_stack_matches_scalar(filters, T, seed)

    def test_rows_are_built_once_per_distinct_filter(self, monkeypatch):
        calls = []

        def counting(coeffs, steps):
            calls.append(steps)
            return _innovations_rows(coeffs, steps)

        monkeypatch.setattr(forecast, "_innovations_rows", counting)
        series = np.random.default_rng(0).standard_normal((5, 80))
        predict_streams([TransferPoly([1.0, 0.5]) for _ in range(5)], series)
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(7,), (2, 3, 4)])
    def test_series_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"series must be \(N, T\), got "
                                             rf"shape {re.escape(str(shape))}"):
            predict_streams([TransferPoly([1.0, 0.5])] * 2, np.zeros(shape))

    @given(st.lists(_FILTER, min_size=1, max_size=5), st.integers(0, 60),
           st.integers(0, 2 ** 32 - 1))
    @example([[1.0, 0.5, -0.3, 0.2, 0.4], [2.0], [0.7, -1.1]], 3, 0)
    @example([[0.5, 1.0, 0.48], [3.0, 0.1]], 0, 1)
    @settings(max_examples=80, deadline=None)
    def test_mixed_degrees_match_scalar_loop(self, filters, T, seed):
        _assert_stack_matches_scalar(filters, T, seed)

    def test_past_the_row_cap_with_an_unsettled_filter(self):
        # 1 + 0.9999 z has a root just outside the unit circle: its rows are
        # still moving at the cap and the last one is reused past it, while
        # the others settle early and repeat their own last rows
        near_unit = [1.0, 0.9999]
        rows, _ = _innovations_rows(np.array(near_unit), PREDICT_ROW_CAP)
        assert rows.shape[0] == PREDICT_ROW_CAP + 1
        filters = [near_unit, [1.2, -0.3, 0.4, 0.15, -0.22], [5.0], [2.0, -0.6, 0.4]]
        _assert_stack_matches_scalar(filters, PREDICT_ROW_CAP + 200, 7)


class TestSesWeights:
    def test_heavy_smoothing_is_last_value(self):
        f = ses_truncated_weights(1.0)
        np.testing.assert_array_equal(f.weights.coeffs, [1.0])

    def test_geometric_profile(self):
        f = ses_truncated_weights(0.5)
        w = f.weights.coeffs
        assert w[0] / w[1] == pytest.approx(2.0, rel=1e-12)
        assert w[1] / w[2] == pytest.approx(2.0, rel=1e-12)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12

    def test_auto_order_makes_tail_negligible(self):
        # dropped geometric tail stays below the unbiasedness tolerance
        for lam in (0.1, 0.5, 0.9):
            f = ses_truncated_weights(lam)
            order = f.weights.coeffs.size
            assert (1.0 - lam) ** order < 1e-9
            assert abs(float(np.sum(f.weights.coeffs)) - 1.0) < 1e-9

    def test_domain(self):
        for lam in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ses_truncated_weights(lam)

    @pytest.mark.parametrize("lam", [5e-4, SES_MIN_LAMBDA])
    def test_small_lambda_keeps_unit_sum(self, lam):
        # the tail weights fall below the polynomial trim level from
        # lam ~ 0.5 down; the kept weights must still sum to 1
        f = ses_truncated_weights(lam)
        assert f.weights.coeffs.size <= SES_MAX_ORDER
        assert abs(float(np.sum(f.weights.coeffs)) - 1.0) < 1e-12
        assert filter_msfe(TransferPoly([3.0, 1.0]), f) == pytest.approx(
            ses_msfe_closed_form(3.0, 1, 1 / 3, lam), rel=1e-9)

    @pytest.mark.parametrize("lam", [np.nextafter(SES_MIN_LAMBDA, 0.0), 1e-12])
    def test_below_the_floor_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            ses_truncated_weights(lam)

    def test_forecaster_requires_unit_sum(self):
        with pytest.raises(ValueError, match="sum"):
            FilterForecaster(TransferPoly([0.5, 0.2]))


class TestFilterMsfe:
    def test_last_value_on_iid(self):
        # naive forecasting doubles the error variance
        naive = ses_truncated_weights(1.0)
        assert filter_msfe(TransferPoly([3.0]), naive) == pytest.approx(
            3.0 * math.sqrt(2.0), rel=1e-12)

    def test_never_beats_the_factorization_floor(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            coeffs = rng.uniform(-2, 2, size=rng.integers(1, 6))
            if abs(coeffs[0]) < 0.1 or abs(coeffs[-1]) < 0.1:
                continue
            p = TransferPoly(coeffs)
            w = rng.uniform(-1, 1, size=rng.integers(1, 8))
            w[0] += 1.0 - w.sum()  # normalize to an unbiased filter
            f = FilterForecaster(TransferPoly(w))
            assert filter_msfe(p, f) >= root_msfe(p) - 1e-9

    def test_tapered_inverse_filter_approaches_the_floor(self):
        # an invertible stream admits near-optimal finite filters: expand
        # 1/((1+theta z)(1-z)) with a triangular taper on the 1/(1-z) part
        theta = 0.5
        psi = TransferPoly([1.0, theta])

        def weights(m):
            A = 1.0 / (1.0 + theta)
            B = theta / (1.0 + theta)
            k = np.arange(m)
            H = A * (1.0 - k / m) + B * (-theta) ** k
            G = np.concatenate([H, [0.0]]) - np.concatenate([[0.0], H])
            return -G[1:]

        msfes = [filter_msfe(psi, FilterForecaster(TransferPoly(weights(m))))
                 for m in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(msfes, msfes[1:]))
        assert msfes[-1] == pytest.approx(root_msfe(psi), abs=1.1e-3)
        assert all(v >= root_msfe(psi) for v in msfes)


class TestSesClosedForm:
    def test_no_smoothing_recovers_optimal_forecast(self):
        got = ses_msfe_closed_form(5.0, 10, 10 * SIGMA_STAR / 5.0, 0.0)
        assert got == pytest.approx(math.sqrt(0.25 + SIGMA_STAR ** 2), rel=1e-12)
        assert got == pytest.approx(8.88, abs=0.01)

    def test_matches_truncated_filter_both_parities(self):
        pol = neutral_policy(M5, 10, SIGMA_STAR)
        for n in (1, 2):
            f = seller_filter(pol, M5, n)
            alpha = pol.transfers[n - 1].coeffs[1]
            for lam in (0.01, 0.3, 0.9):
                truncated = filter_msfe(f, ses_truncated_weights(lam))
                closed = ses_msfe_closed_form(5.0, 10, alpha, lam)
                assert truncated == pytest.approx(closed, abs=1e-6)

    def test_no_smoothing_is_the_corner_optimum(self):
        # the perceived error is minimized at lam = 0 for the reference
        # design, for both transfer parities
        a = 10 * SIGMA_STAR / 5.0
        for alpha in (a, -a):
            at_zero = ses_msfe_closed_form(5.0, 10, alpha, 0.0)
            grid = [ses_msfe_closed_form(5.0, 10, alpha, lam)
                    for lam in np.linspace(0.01, 0.99, 60)]
            assert at_zero < min(grid)

    def test_domain(self):
        with pytest.raises(ValueError):
            ses_msfe_closed_form(5.0, 10, 2.0, 1.0)
        with pytest.raises(ValueError):
            ses_msfe_closed_form(5.0, 10, 2.0, -0.1)


class TestLeadTimeMsfe:
    def test_zero_lead_is_one_step(self):
        assert leadtime_msfe(TransferPoly([2.0, 1.0]), 0) == 2.0
        assert leadtime_msfe(TransferPoly([-2.0, 1.0]), 0) == 2.0

    def test_reference_two_coefficient_case(self):
        assert leadtime_msfe(TransferPoly([2.0, 1.0]), 1) ** 2 == \
            pytest.approx(13.0, rel=1e-12)

    def test_constant_theta_grows_like_sqrt_horizon(self):
        for L in range(5):
            assert leadtime_msfe(TransferPoly([1.5]), L) ** 2 == pytest.approx(
                (L + 1) * 1.5 ** 2, rel=1e-12)

    def test_monotone_for_nonnegative_coefficients(self):
        p = TransferPoly([1.0, 0.4, 0.2])
        vals = [leadtime_msfe(p, L) for L in range(6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_lead(self):
        with pytest.raises(ValueError):
            leadtime_msfe(TransferPoly([1.0]), -1)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
           st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_against_partial_sum_loop(self, coeffs, L):
        p = TransferPoly([coeffs[0] or 1.0, *coeffs[1:]])
        total = partial = 0.0
        for k in range(L + 1):
            partial += float(p.coeffs[k]) if k < p.coeffs.size else 0.0
            total += partial ** 2
        assert leadtime_msfe(p, L) ** 2 == pytest.approx(total, rel=1e-12, abs=1e-300)

    def test_billion_period_lead_against_closed_form(self):
        # partial sums 2, 3, 3, ...: 4 + 9 L; and 1, 1.4, 1.6, 1.6, ...
        L = 10 ** 9
        assert leadtime_msfe(TransferPoly([2.0, 1.0]), L) ** 2 == pytest.approx(
            4.0 + 9.0 * L, rel=1e-12)
        assert leadtime_msfe(TransferPoly([1.0, 0.4, 0.2]), L) ** 2 == \
            pytest.approx(1.0 + 1.4 ** 2 + (L - 1) * 1.6 ** 2, rel=1e-12)


def _theta(model, policy, n):
    """Lead-time theta of seller n: the outer factor of its filter."""
    return inner_outer_factor(seller_filter(policy, model, n)).outer


class TestLeadTimeTheta:
    def test_even_design(self):
        m = DemandModel(20.0, TransferPoly([5.0]))
        pol = neutral_policy(m, 2, 5.0)
        th1 = _theta(m, pol, 1)
        th2 = _theta(m, pol, 2)
        np.testing.assert_allclose(th1.coeffs, [-5.0, 2.5])
        np.testing.assert_allclose(th2.coeffs, [5.0, 2.5])

    def test_odd_design(self):
        m = DemandModel(9.0, TransferPoly([1.0]))
        pol = neutral_policy(m, 3, 0.4)
        np.testing.assert_allclose(_theta(m, pol, 1).coeffs, [0.4, 0.4, 1 / 3])
        np.testing.assert_allclose(_theta(m, pol, 2).coeffs, [-0.4, 0.0, 1 / 3])
        np.testing.assert_allclose(_theta(m, pol, 3).coeffs, [-0.4, 1 / 3])

    def test_uniform_design_passes_through(self):
        m = DemandModel(15.0, TransferPoly([1.0, 0.5]))
        pol = uniform_policy(3)
        th = _theta(m, pol, 2)
        np.testing.assert_allclose(th.coeffs, [1 / 3, 0.5 / 3])

    @pytest.mark.parametrize("model", LEADTIME_MODELS, ids=["iid", "ma1", "ma2"])
    @pytest.mark.parametrize("design", sorted(LEADTIME_DESIGNS))
    def test_outer_factor_against_mpmath(self, model, design):
        # theta has psi_n's modulus on the unit circle, no root inside it,
        # and |theta_0| equal to the high-precision root MSFE of psi_n
        pol = LEADTIME_DESIGNS[design](model)
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        for n in range(1, pol.n_sellers + 1):
            psi_n = seller_filter(pol, model, n).coeffs
            sigma = mp_root_msfe(psi_n)
            th = _theta(model, pol, n)
            np.testing.assert_allclose(
                np.abs(np.polynomial.polynomial.polyval(circle, th.coeffs)),
                np.abs(np.polynomial.polynomial.polyval(circle, psi_n)),
                rtol=1e-10)
            if th.degree:
                assert min(abs(r) for r in mp_roots(th.coeffs)) >= 1 - 1e-9
            assert abs(th.coeffs[0]) == pytest.approx(sigma, rel=1e-10)


class TestSesComparison:
    def test_perception_shifts_the_marginal_seller(self):
        sigma_tilde = ses_msfe_closed_form(5.0, 10, 10 * SIGMA_STAR / 5.0, 0.0)
        at_design = np.where(TABLE.adopts(SIGMA_STAR), FBP, FBM)
        perceived = np.where(TABLE.adopts(sigma_tilde), FBP, FBM)
        assert at_design.size == perceived.size == 10
        # seller 1 adopts at the design sigma but not at the perceived one
        assert at_design[0] == FBP
        assert perceived[0] == FBM
        assert at_design[1] == perceived[1] == FBP


class TestSimulateInventory:
    @given(routed_designs(), st.lists(st.integers(0, 80), min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_allocations_replay_the_policy_targets(self, pol_model, demand):
        # the designs routing tracks: neutral even and odd, lagged k = 1..3,
        # permuted and custom
        pol, model = pol_model
        table = market_table(SELLERS[:pol.n_sellers], COSTS, model.mu)
        path = DemandPath(np.array(demand, dtype=float), np.zeros(0), 0)
        start = pol.max_lag
        if len(demand) <= start:
            with pytest.raises(InsufficientHistory):
                simulate_inventory(table, pol, model, path, 1.0)
            return
        run = simulate_inventory(table, pol, model, path, 1.0)
        assert run.start_period == start
        assert run.allocations.shape == (pol.n_sellers, len(demand) - start)
        transfers = [t.coeffs.tolist() for t in pol.transfers]
        targets = benchmark_targets(transfers, model.mu, [float(d) for d in demand])
        for t in range(start, len(demand)):
            column = run.allocations[:, t - start]
            tol = 1e-12 * max(1.0, max(abs(x) for x in targets[t]))
            assert max(abs(a - x) for a, x in zip(column, targets[t])) <= tol
            assert abs(column.sum() - demand[t]) <= 1e-9

    @pytest.mark.parametrize("table_sellers", [1, 3])
    def test_table_of_another_market_is_rejected(self, table_sellers):
        table = market_table(SELLERS[:table_sellers], COSTS, M5.mu)
        with pytest.raises(ValueError, match="policy has 2 sellers, market table"):
            simulate_inventory(table, neutral_policy(M5, 2, 5.0), M5,
                               simulate(M5, 50, 0), 1.0)
