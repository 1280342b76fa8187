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
    FBM,
    FBP,
    InsufficientHistory,
    NumericalInstability,
    TransferPoly,
    forecast,
    inner_outer_factor,
    leadtime_msfe,
    market_table,
    neutral_policy,
    root_msfe,
    seller_filters,
    ses_msfe,
    sigma_lower_bound,
    simulate,
    uniform_policy,
)
from demandalloc.forecast import (PREDICT_ROW_CAP, _innovations_rows,
                                  predict_streams, simulate_inventory)
from oracles import (REF_ROW_CAP, REF_SES_MAX_ORDER, REF_SES_MIN_LAMBDA,
                     REF_SETTLE_RTOL, benchmark_targets, lagged_variant,
                     mp_root_msfe, mp_roots, mp_ses_msfe_double_sum,
                     mp_ses_msfe_recursion, ref_filter_msfe,
                     ref_innovations_predict, ref_innovations_recursion,
                     ref_innovations_rows, ref_policy_transfers,
                     ref_seller_filter, ref_ses_truncated_weights,
                     seller_columns, ses_msfe_closed_form)
from test_policy import filters_by_seller
from test_routing import relabelled_policy, routed_designs
from test_seller import COSTS, SELLERS, TABLE

M5 = DemandModel(15.0, TransferPoly([5.0]))
SIGMA_STAR = 8.867803761159964

LEADTIME_MODELS = [DemandModel(15.0, TransferPoly([5.0])),
                   DemandModel(15.0, TransferPoly([1.0, 0.5])),
                   DemandModel(15.0, TransferPoly([2.0, -0.6, 0.4]))]

# Three sellers with two-lag transfers that sum to N coefficient-wise.
CUSTOM_POLICY = AllocationPolicy([[1.0, 2.5, -0.4],
                                  [1.0, -1.2, 0.6],
                                  [1.0, -1.3, -0.2]])


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
    the predictor runs (its byte reference); fails unless it settles within
    horizon steps."""
    _, v = ref_innovations_recursion(p.coeffs, horizon)
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
        pred = predict_streams([model.psi], path[None], mean=model.mu)[0]
        rmse = float(np.sqrt(np.mean((path - pred) ** 2)))
        assert rmse == pytest.approx(1.0, rel=0.02)

    def test_no_series_gives_no_rows(self):
        pred = predict_streams([], np.zeros((0, 7)))
        assert pred.shape == (0, 7)

    @pytest.mark.parametrize("n_filters", [0, 1, 3])
    def test_one_filter_per_series(self, n_filters):
        # two series need two filters: fewer or more is an error
        filters = [TransferPoly([1.0, 0.5])] * n_filters
        with pytest.raises(ValueError, match=rf"^need one filter for each of 2 "
                                             rf"series, got {n_filters}$"):
            predict_streams(filters, np.zeros((2, 5)))


# Nonzero coefficients keep each filter's drawn degree (TransferPoly trims
# near-zero trailing coefficients).
_COEFF = st.floats(-3.0, 3.0).filter(lambda c: abs(c) >= 0.05)
_FILTER = st.integers(0, 4).flatmap(
    lambda d: st.lists(_COEFF, min_size=d + 1, max_size=d + 1))


def _assert_stack_matches_scalar(filters, T, seed, mean=4.0):
    series = mean + 3.0 * np.random.default_rng(seed).standard_normal((len(filters), T))
    _assert_series_match_scalar(filters, series, mean)


def _assert_series_match_scalar(filters, series, mean):
    got = predict_streams([TransferPoly(c) for c in filters], series, mean)
    want = np.array([ref_innovations_predict(TransferPoly(c).coeffs, s, mean)
                     for c, s in zip(filters, series)])
    # bit for bit, zero signs included; C order, so a mean along a row sums
    # that series alone
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
    return got


# A small pool, so drawn lists repeat filters: degree 0 (two), 1, 2, 4 and 9.
# Each degree runs its own generated recursion; degree 60 is covered by
# test_long_filter_among_short_ones.
_POOL = ([2.0], [-0.7], [1.0, -0.9], [0.5, 1.0, 0.48],
         [1.2, -0.3, 0.4, 0.15, -0.22],
         [1.0, 0.3, -0.2, 0.1, 0.05, -0.04, 0.03, 0.02, 0.01, 0.01])
# innovations rows [1.0, -0.9] takes to settle
_SETTLE_ROWS = ref_innovations_recursion(_POOL[2], 400)[0].shape[0]


# Degree 0, 1 and 2, each with a negative weight somewhere, so that zero
# innovations make -0.0 products.
_ZERO_SIGN_POOL = {0: ([2.0], [-0.7]), 1: ([1.0, -0.5], [1.0, 0.9]),
                   2: ([0.5, -1.0, 0.48],)}


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
        # an even-N neutral design has two distinct transfer rows at any N:
        # simulate_inventory builds two filters and two sets of innovations
        # rows, as many TransferPoly objects at N = 100 as at N = 10, and
        # each seller's forecast is its own scalar loop's, bit for bit
        made, rows_built = [], []
        real_init = TransferPoly.__init__

        def counting_init(poly, coeffs):
            made.append(1)
            real_init(poly, coeffs)

        def counting_rows(coeffs, *args):
            rows_built.append(coeffs.tobytes())
            return _innovations_rows(coeffs, *args)

        monkeypatch.setattr(TransferPoly, "__init__", counting_init)
        monkeypatch.setattr(forecast, "_innovations_rows", counting_rows)
        objects = {}
        for N in (10, 100):
            pol = neutral_policy(M5, N, 2.0 * sigma_lower_bound(M5, N))
            table = market_table(seller_columns(SELLERS * (N // 10)), COSTS, M5.mu)
            made.clear()
            rows_built.clear()
            run = simulate_inventory(table, pol, M5, simulate(M5, 120, 5), 1.0)
            objects[N] = len(made)
            assert len(rows_built) == len(set(rows_built)) == 2
        assert objects[10] == objects[100]
        transfers = ref_policy_transfers(pol.transfers)
        for n in range(1, 101):
            want = ref_innovations_predict(
                ref_seller_filter(transfers, M5.psi, n).coeffs,
                run.allocations[n - 1], M5.mu / 100)
            assert run.forecasts[n - 1].tobytes() == want.tobytes()

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
        assert len(_innovations_rows(np.array(near_unit), PREDICT_ROW_CAP)) == \
            PREDICT_ROW_CAP + 1
        filters = [near_unit, [1.2, -0.3, 0.4, 0.15, -0.22], [5.0], [2.0, -0.6, 0.4]]
        _assert_stack_matches_scalar(filters, PREDICT_ROW_CAP + 200, 7)

    @pytest.mark.parametrize("mean", [0.0, 4.0])
    def test_long_filter_among_short_ones(self, mean):
        # degree 60, far past the pool's 9: its recursion holds 60 weights
        # and 60 innovations, next to degrees 0 and 1 in one call
        k = np.arange(61)
        long = (0.9 ** k * np.cos(k)).tolist()
        assert TransferPoly(long).degree == 60
        filters = [long, [2.0], [1.0, -0.5], long, [-0.7]]
        T = 150
        series = mean + 3.0 * np.random.default_rng(8).standard_normal((5, T))
        got = _assert_series_match_scalar(filters, series, mean)
        # a degree-0 series predicts exactly the level
        for row in (got[1], got[4]):
            assert row.tobytes() == np.full(T, mean).tobytes()

    @pytest.mark.parametrize("mean", [0.0, 4.0])
    @pytest.mark.parametrize("degrees", [(0, 1, 2), (0, 1), (1,), (0,)])
    def test_exact_zeros_keep_their_signs(self, degrees, mean):
        # exact zeros and a series at the mean make exact zero innovations;
        # times a negative weight they are -0.0 products, which the lag sum
        # from +0.0 turns into +0.0 as the scalar loop does.  Degrees 1 and
        # 2 run their generated recursions, degree 0 none at all.
        T = 9
        shapes = [np.zeros(T), np.full(T, -0.0), np.resize([0.0, -0.0], T),
                  np.full(T, mean),
                  np.array([mean, -0.0, 0.0, 1.5, -0.0, mean, mean, 0.0, -2.0])]
        filters = [c for d in degrees for c in _ZERO_SIGN_POOL[d]]
        pairs = [(c, x) for c in filters for x in shapes]
        _assert_series_match_scalar([c for c, _ in pairs],
                                    np.array([x for _, x in pairs]), mean)


def _row_filters():
    """The pool's filters and the neutral seller filters of even and odd N,
    on i.i.d. and MA(2) demand."""
    ma2 = DemandModel(40.0, TransferPoly([5.0, 2.0, 1.0]))
    filters = {f"pool-{i}": TransferPoly(c) for i, c in enumerate(_POOL)}
    for model_name, model in (("iid", M5), ("ma2", ma2)):
        for N in (4, 5, 11):
            pol = neutral_policy(model, N, 2.0 * sigma_lower_bound(model, N))
            for i, f in enumerate(seller_filters(pol, model)[0]):
                filters[f"{model_name}-N{N}-{i}"] = f
    return filters


ROW_FILTERS = _row_filters()


def _byte_row_filters():
    """ROW_FILTERS, a degree-60 filter, and 1 + 0.9999 z, whose rows are
    still moving at the row cap."""
    k = np.arange(61)
    return {**ROW_FILTERS, "degree-60": TransferPoly(0.9 ** k * np.cos(k)),
            "near-unit": TransferPoly([1.0, 0.9999])}


BYTE_ROW_FILTERS = _byte_row_filters()


class TestInnovationsRows:
    """The banded innovations recursion: the package's Python-float rows
    equal the numpy-scalar reference loop bit for bit, and that loop agrees
    with the Cholesky factor of the autocovariance matrix."""

    @pytest.mark.parametrize("name", sorted(BYTE_ROW_FILTERS))
    def test_rows_equal_the_reference_loop(self, name):
        assert (PREDICT_ROW_CAP, forecast.PREDICT_SETTLE_RTOL) == \
            (REF_ROW_CAP, REF_SETTLE_RTOL)
        coeffs = BYTE_ROW_FILTERS[name].coeffs
        q = coeffs.size - 1
        for steps in (0, 1, q, q + 1, PREDICT_ROW_CAP):
            rows = _innovations_rows(coeffs, steps)
            got = np.array(rows, dtype=float).reshape(len(rows), q)
            want = np.ascontiguousarray(ref_innovations_recursion(coeffs, steps)[0][:, 1:])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(ROW_FILTERS))
    def test_rows_match_the_cholesky_factor(self, name):
        coeffs = ROW_FILTERS[name].coeffs
        theta, v = ref_innovations_recursion(coeffs, 150)
        want_theta, want_v = ref_innovations_rows(coeffs, v.size)
        # relative to the largest weight: some weights are zero in exact
        # arithmetic and rounding residue in both
        scale = np.abs(want_theta).max(initial=0.0)
        np.testing.assert_allclose(theta[:, 1:], want_theta, rtol=1e-12,
                                   atol=1e-12 * scale)
        # no weight before the first observation (t < j)
        assert not np.triu(theta[:, 1:]).any()
        np.testing.assert_allclose(v, want_v, rtol=1e-12, atol=0)


@st.composite
def _invertible_filters(draw):
    """A degree 1-8 filter from its roots, all outside the closed unit disk:
    conjugate pairs and real roots of modulus 1.05-3, and about half the
    time the first factor within 1e-3 of the circle instead, so that its
    rows are still moving at the row cap."""
    q = draw(st.integers(1, 8))
    pairs = draw(st.integers(0, q // 2))
    moduli = [draw(st.floats(1.05, 3.0)) for _ in range(q - pairs)]
    if draw(st.booleans()):
        moduli[0] = 1.0 + draw(st.floats(1e-6, 1e-3))
    roots = []
    for m in moduli[:pairs]:
        angle = draw(st.floats(0.05, math.pi - 0.05))
        roots += [m * complex(math.cos(angle), math.sin(angle)),
                  m * complex(math.cos(angle), -math.sin(angle))]
    roots += [m * draw(st.sampled_from([-1.0, 1.0])) for m in moduli[pairs:]]
    coeffs = np.ones(1)
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -1.0 / r])
    scale = draw(st.floats(0.2, 5.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return TransferPoly(scale * coeffs.real)


def _assert_rows_match_reference(coeffs):
    """The rows at steps 0, 1, q, q + 1, the settle index and the row cap
    equal the reference loop's bytes; returns the settle index (the last
    row's, PREDICT_ROW_CAP when the rows never settle)."""
    q = coeffs.size - 1
    full = np.ascontiguousarray(ref_innovations_recursion(coeffs, REF_ROW_CAP)[0][:, 1:])
    settle = full.shape[0] - 1
    for steps in (0, 1, q, q + 1, settle, PREDICT_ROW_CAP):
        rows = _innovations_rows(coeffs, steps)
        got = np.array(rows, dtype=float).reshape(len(rows), q)
        want = (full if steps == PREDICT_ROW_CAP else np.ascontiguousarray(
            ref_innovations_recursion(coeffs, steps)[0][:, 1:]))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return settle


class TestRowStep:
    """Past the head t <= q, the predictor of a filter up to degree
    PREDICT_STEP_MAX_DEGREE builds each innovations row itself, and keeps
    the last row's weights as locals past the built rows: both bit for bit
    as the reference loops."""

    @given(_invertible_filters(), st.integers(0, 2 ** 32 - 1))
    @example(TransferPoly([1.0, -1.0 / (1.0 + 1e-6)]), 0)
    @example(TransferPoly([2.0, 0.5]), 1)
    @settings(max_examples=25, deadline=None)
    def test_rows_and_predictions_equal_the_reference(self, f, seed):
        settle = _assert_rows_match_reference(f.coeffs)
        rng = np.random.default_rng(seed)
        for T in (settle // 2, settle + 1 + rng.integers(0, 40)):
            series = 3.0 * rng.standard_normal((1, T)) - 1.5
            got = predict_streams([f], series, -1.5)
            want = ref_innovations_predict(f.coeffs, series[0], -1.5)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("above", [0, 1])
    def test_degree_threshold(self, above, monkeypatch):
        # the threshold degree asks the generic loop for the head alone and
        # builds the rest in its predictor; one degree above it the generic
        # loop builds every row.  Both equal the reference predictions.
        q = forecast.PREDICT_STEP_MAX_DEGREE + above
        k = np.arange(q + 1)
        f = TransferPoly(0.8 ** k * np.cos(k))
        assert f.degree == q
        settle = _assert_rows_match_reference(f.coeffs)
        assert q < settle < PREDICT_ROW_CAP
        steps = []
        monkeypatch.setattr(forecast, "_innovations_rows", lambda coeffs, n, *args: (
            steps.append(n) or _innovations_rows(coeffs, n, *args)))
        T = settle + 30
        series = 2.0 + np.random.default_rng(q).standard_normal((1, T))
        assert predict_streams([f], series, 2.0).tobytes() == \
            ref_innovations_predict(f.coeffs, series[0], 2.0).tobytes()
        assert steps == [T if above else q]

    @pytest.mark.parametrize("q", [1, 4, 12, 13])
    @pytest.mark.parametrize("kind", ["settling", "near-unit"])
    def test_edges_equal_the_reference(self, q, kind):
        # path lengths at each hand-off: the head (q, q + 1), the settled
        # row and the row cap, and one past each.  The near-unit filter
        # never settles, so its rows run to the cap.
        k = np.arange(q + 1)
        coeffs = 0.8 ** k * np.cos(k)
        if kind == "near-unit":
            coeffs = np.convolve(0.8 ** k[:-1] * np.cos(k[:-1]), [1.0, -1.0 / (1.0 + 1e-6)])
        f = TransferPoly(coeffs)
        assert f.degree == q
        settle = ref_innovations_recursion(f.coeffs, REF_ROW_CAP)[0].shape[0] - 1
        assert (settle == PREDICT_ROW_CAP) == (kind == "near-unit")
        rng = np.random.default_rng(q)
        lengths = sorted({0, 1, q, q + 1, settle, settle + 1,
                          PREDICT_ROW_CAP, PREDICT_ROW_CAP + 1})
        for T in lengths:
            series = 5.0 * rng.standard_normal((1, T)) + 3.0
            assert predict_streams([f], series, 3.0).tobytes() == \
                ref_innovations_predict(f.coeffs, series[0], 3.0).tobytes(), T

    @pytest.mark.parametrize("coeffs", [
        [1.9092940190827896e-162, -1.4550150729282874e-162],
        [1.894823319289875e-162, 9.406822896755349e-163, -1.5663317345212026e-162],
    ])
    def test_underflow_in_the_step(self, coeffs, monkeypatch):
        # gamma is subnormal and the variance of row q, the head's last,
        # rounds to 0: the step's first row, q + 1, divides by it
        coeffs = np.array(coeffs)
        q = coeffs.size - 1
        message = (rf"^an innovation variance of a degree-{q} filter "
                   "underflows to 0$")
        assert len(_innovations_rows(coeffs, q)) == q + 1
        with pytest.raises(NumericalInstability, match=message):
            _innovations_rows(coeffs, q + 1)
        with pytest.raises(NumericalInstability, match=message):
            predict_streams([TransferPoly(coeffs)], np.zeros((1, q + 1)))
        # the generic loop fails at the same row with the same message
        monkeypatch.setattr(forecast, "PREDICT_STEP_MAX_DEGREE", 0)
        assert len(_innovations_rows(coeffs, q)) == q + 1
        with pytest.raises(NumericalInstability, match=message):
            _innovations_rows(coeffs, q + 1)


def _gather_designs():
    ma2 = DemandModel(40.0, TransferPoly([5.0, 2.0, 1.0]))
    return {
        # sellers 1 and 2 hold the two-lag rows, so the first seller of each
        # distinct row is not in the sorted order of the rows' bytes
        "odd-neutral": (M5, neutral_policy(M5, 7, 2.0 * sigma_lower_bound(M5, 7))),
        "lagged-k3": (ma2, lagged_variant(ma2, 6, 1.5 * sigma_lower_bound(ma2, 6), k=3)),
        "all-distinct": (ma2, CUSTOM_POLICY),
        # the first two rows differ only in the sign of a zero lag-1 coefficient
        "signed-zero": (M5, AllocationPolicy([[1.0, -0.0, 0.5], [1.0, 0.0, 0.5],
                                              [1.0, 0.0, -1.0]])),
    }


GATHER_DESIGNS = _gather_designs()


class TestDistinctStreams:
    """simulate_inventory predicts one stream per distinct transfer row and
    gathers it to the sellers; each forecast is still the seller's own."""

    @pytest.mark.parametrize("design", sorted(GATHER_DESIGNS))
    def test_gathered_forecasts_match_each_sellers_scalar_loop(self, design):
        model, pol = GATHER_DESIGNS[design]
        N = pol.n_sellers
        table = market_table(seller_columns(SELLERS[:N]), COSTS, model.mu)
        run = simulate_inventory(table, pol, model, simulate(model, 150, 6), 1.0)
        transfers = ref_policy_transfers(pol.transfers)
        for n in range(1, N + 1):
            want = ref_innovations_predict(
                ref_seller_filter(transfers, model.psi, n).coeffs,
                run.allocations[n - 1], model.mu / N)
            assert run.forecasts[n - 1].tobytes() == want.tobytes()

    def test_one_series_per_distinct_row(self, monkeypatch):
        # an even-N neutral design has two distinct rows: at N = 100 the
        # predictor sees two series, not a hundred
        widths = []
        real = forecast.predict_streams

        def spy(filters, series, mean=0.0):
            widths.append(len(series))
            return real(filters, series, mean)

        monkeypatch.setattr(forecast, "predict_streams", spy)
        pol = neutral_policy(M5, 100, 2.0 * sigma_lower_bound(M5, 100))
        table = market_table(seller_columns(SELLERS * 10), COSTS, M5.mu)
        run = simulate_inventory(table, pol, M5, simulate(M5, 80, 5), 1.0)
        assert widths == [2]
        assert run.forecasts.shape == (100, 80 - pol.max_lag)


class TestSesWeights:
    # the truncated weights are the reference ses_msfe is held to on
    # [REF_SES_MIN_LAMBDA, 1]; these checks keep that reference honest
    def test_heavy_smoothing_is_last_value(self):
        f = ref_ses_truncated_weights(1.0)
        np.testing.assert_array_equal(f.coeffs, [1.0])

    def test_geometric_profile(self):
        f = ref_ses_truncated_weights(0.5)
        w = f.coeffs
        assert w[0] / w[1] == pytest.approx(2.0, rel=1e-12)
        assert w[1] / w[2] == pytest.approx(2.0, rel=1e-12)
        assert abs(float(np.sum(w)) - 1.0) < 1e-12

    def test_auto_order_makes_tail_negligible(self):
        # dropped geometric tail stays below the unbiasedness tolerance
        for lam in (0.1, 0.5, 0.9):
            f = ref_ses_truncated_weights(lam)
            order = f.coeffs.size
            assert (1.0 - lam) ** order < 1e-9
            assert abs(float(np.sum(f.coeffs)) - 1.0) < 1e-9

    def test_domain(self):
        for lam in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ref_ses_truncated_weights(lam)

    @pytest.mark.parametrize("lam", [5e-4, REF_SES_MIN_LAMBDA])
    def test_small_lambda_keeps_unit_sum(self, lam):
        # the tail weights fall below the polynomial trim level from
        # lam ~ 0.5 down; the kept weights must still sum to 1
        f = ref_ses_truncated_weights(lam)
        assert f.coeffs.size <= REF_SES_MAX_ORDER
        assert abs(float(np.sum(f.coeffs)) - 1.0) < 1e-12
        assert ref_filter_msfe(TransferPoly([3.0, 1.0]), f) == pytest.approx(
            ses_msfe_closed_form(3.0, 1, 1 / 3, lam), rel=1e-9)

    @pytest.mark.parametrize("lam", [np.nextafter(REF_SES_MIN_LAMBDA, 0.0), 1e-12])
    def test_below_the_floor_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            ref_ses_truncated_weights(lam)

    def test_forecaster_requires_unit_sum(self):
        with pytest.raises(ValueError,
                           match=r"^forecaster weights sum to 0\.7, need 1$"):
            ref_filter_msfe(TransferPoly([3.0, 1.0]), TransferPoly([0.5, 0.2]))


class TestFilterMsfe:
    def test_last_value_on_iid(self):
        # naive forecasting doubles the error variance
        naive = ref_ses_truncated_weights(1.0)
        assert ref_filter_msfe(TransferPoly([3.0]), naive) == pytest.approx(
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
            assert ref_filter_msfe(p, TransferPoly(w)) >= root_msfe(p) - 1e-9

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

        msfes = [ref_filter_msfe(psi, TransferPoly(weights(m)))
                 for m in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(msfes, msfes[1:]))
        assert msfes[-1] == pytest.approx(root_msfe(psi), abs=1.1e-3)
        assert all(v >= root_msfe(psi) for v in msfes)


# streams of degree 0..8 with a nonzero lead coefficient, and smoothing
# constants log-uniform in [10**lo, 1]
_ses_psi = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=9).filter(
    lambda c: abs(c[0]) >= 1e-3).map(TransferPoly)


def _ses_lam(lo):
    return st.floats(lo, 0.0).map(lambda x: 10.0 ** x)


class TestSesMsfe:
    @given(psi=_ses_psi, lam=_ses_lam(-12.0))
    @example(psi=TransferPoly([3.0, 1.0]), lam=1e-12)
    @example(psi=TransferPoly([1.0, -1.0]), lam=1.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_double_sum_in_mpmath(self, psi, lam):
        assert ses_msfe(psi, lam) == pytest.approx(
            mp_ses_msfe_double_sum(psi.coeffs, lam), rel=1e-13)

    @given(psi=_ses_psi, lam=_ses_lam(-300.0))
    @example(psi=TransferPoly([1.0, 2.0, -0.5]), lam=5e-324)
    @example(psi=TransferPoly([1.0]), lam=1e-300)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_recursion_in_mpmath(self, psi, lam):
        assert ses_msfe(psi, lam) == pytest.approx(
            mp_ses_msfe_recursion(psi.coeffs, lam), rel=1e-13)

    @given(psi=_ses_psi, x=st.floats(math.log10(REF_SES_MIN_LAMBDA), 0.0))
    @example(psi=TransferPoly([3.0, 1.0]), x=math.log10(REF_SES_MIN_LAMBDA))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_truncated_filter(self, psi, x):
        lam = max(REF_SES_MIN_LAMBDA, 10.0 ** x)
        assert ses_msfe(psi, lam) == pytest.approx(
            ref_filter_msfe(psi, ref_ses_truncated_weights(lam)), rel=1e-11)

    @given(psi=_ses_psi, lam=_ses_lam(-300.0))
    @settings(max_examples=200, deadline=None)
    def test_never_beats_the_factorization_floor(self, psi, lam):
        assert ses_msfe(psi, lam) >= root_msfe(psi) * (1.0 - 1e-12)

    @given(psi=_ses_psi)
    @settings(max_examples=100, deadline=None)
    def test_full_smoothing_is_the_last_value_forecast(self, psi):
        err = np.convolve([1.0, -1.0], psi.coeffs)
        assert ses_msfe(psi, 1.0) == pytest.approx(math.sqrt(math.fsum(err * err)),
                                                   rel=1e-15)

    @pytest.mark.parametrize("lam", [0.0, -0.0, -0.2, 1.5, math.nan])
    def test_domain(self, lam):
        with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\]"):
            ses_msfe(TransferPoly([3.0]), lam)


class TestSesClosedForm:
    def test_no_smoothing_recovers_optimal_forecast(self):
        got = ses_msfe_closed_form(5.0, 10, 10 * SIGMA_STAR / 5.0, 0.0)
        assert got == pytest.approx(math.sqrt(0.25 + SIGMA_STAR ** 2), rel=1e-12)
        assert got == pytest.approx(8.88, abs=0.01)

    def test_ses_msfe_matches_both_parities(self):
        pol = neutral_policy(M5, 10, SIGMA_STAR)
        for n, f in zip((1, 2), filters_by_seller(pol, M5)):
            alpha = pol.transfers[n - 1, 1]
            for lam in (1e-9, 0.01, 0.3, 0.9):
                assert ses_msfe(f, lam) == pytest.approx(
                    ses_msfe_closed_form(5.0, 10, alpha, lam), rel=1e-13)

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
    return inner_outer_factor(filters_by_seller(policy, model)[n - 1]).outer


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
        for n, f in enumerate(filters_by_seller(pol, model), start=1):
            psi_n = f.coeffs
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
        table = market_table(seller_columns(SELLERS[:pol.n_sellers]), COSTS, model.mu)
        path = np.array(demand, dtype=float)
        start = pol.max_lag
        if len(demand) <= start:
            with pytest.raises(InsufficientHistory):
                simulate_inventory(table, pol, model, path, 1.0)
            return
        run = simulate_inventory(table, pol, model, path, 1.0)
        assert run.start_period == start
        assert run.allocations.shape == (pol.n_sellers, len(demand) - start)
        targets = benchmark_targets(pol.transfers.tolist(), model.mu,
                                    [float(d) for d in demand])
        for t in range(start, len(demand)):
            column = run.allocations[:, t - start]
            tol = 1e-12 * max(1.0, max(abs(x) for x in targets[t]))
            assert max(abs(a - x) for a, x in zip(column, targets[t])) <= tol
            assert abs(column.sum() - demand[t]) <= 1e-9

    @pytest.mark.parametrize("table_sellers", [1, 3])
    def test_table_of_another_market_is_rejected(self, table_sellers):
        table = market_table(seller_columns(SELLERS[:table_sellers]), COSTS, M5.mu)
        with pytest.raises(ValueError, match="policy has 2 sellers, market table"):
            simulate_inventory(table, neutral_policy(M5, 2, 5.0), M5,
                               simulate(M5, 50, 0), 1.0)
