"""Allocation policy construction: neutral designs, admissibility,
per-seller filters and ex-post allocation (the policy replayed along a path
by forecast.simulate_inventory)."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from demandalloc import (
    AllocationPolicy,
    BelowLowerBound,
    DemandModel,
    Infeasible,
    InsufficientHistory,
    TransferPoly,
    benchmark_offsets,
    is_invertible,
    market_table,
    neutral_policy,
    root_msfe,
    seller_filters,
    sigma_lower_bound,
    simulate,
)
from demandalloc.forecast import simulate_inventory
from oracles import (jensen_root_msfe, lagged_variant, ref_benchmark_offsets,
                     ref_policy_transfers, ref_seller_filter,
                     seller_columns)
from test_seller import COSTS, SELLERS

M5 = DemandModel(20.0, TransferPoly([5.0]))
M1 = DemandModel(9.0, TransferPoly([1.0]))


def filters_by_seller(pol, model):
    """Each seller's demand filter, from seller_filters' distinct filters
    and index."""
    filters, index = seller_filters(pol, model)
    return [filters[i] for i in index]


def random_invertible_model(rng, max_degree=4):
    """MA filter with all roots outside the unit disk, random scale."""
    n_real = rng.integers(0, max_degree + 1)
    n_pairs = rng.integers(0, (max_degree - n_real) // 2 + 1)
    roots = []
    for _ in range(n_real):
        roots.append(rng.uniform(1.1, 5.0) * rng.choice([-1.0, 1.0]))
    for _ in range(n_pairs):
        r = rng.uniform(1.1, 5.0)
        phi = rng.uniform(0.2, np.pi - 0.2)
        roots.extend([r * np.exp(1j * phi), r * np.exp(-1j * phi)])
    lead = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
    if roots:
        coeffs = (np.poly(roots)[::-1] * lead).real
    else:
        coeffs = np.array([lead])
    mu = rng.uniform(5.0, 40.0)
    return DemandModel(mu, TransferPoly(coeffs))


class TestLowerBound:
    def test_reference_value(self):
        assert sigma_lower_bound(DemandModel(15.0, TransferPoly([5.0])), 10) == 0.5

    def test_uses_magnitude(self):
        assert sigma_lower_bound(DemandModel(15.0, TransferPoly([-5.0])), 10) == 0.5

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sigma_lower_bound(M5, 0)


class TestNeutralPolicy:
    def test_at_bound_returns_uniform(self):
        pol = neutral_policy(M5, 4, sigma_lower_bound(M5, 4))
        assert pol.max_lag == 0
        np.testing.assert_array_equal(pol.transfers, np.ones((4, 1)))

    def test_even_design(self):
        pol = neutral_policy(M5, 2, 5.0)
        assert pol.max_lag == 1
        np.testing.assert_allclose(pol.transfers, [[1.0, -2.0], [1.0, 2.0]])

    def test_odd_design(self):
        pol = neutral_policy(M1, 3, 0.4)
        assert pol.max_lag == 2
        np.testing.assert_allclose(pol.transfers, [[1.0, 1.2, 1.2],
                                                   [1.0, 0.0, -1.2],
                                                   [1.0, -1.2, 0.0]])

    def test_below_bound_raises_with_bound_attached(self):
        with pytest.raises(BelowLowerBound) as exc_info:
            neutral_policy(M5, 2, 1.0)
        assert exc_info.value.sigma_lower == pytest.approx(2.5)
        assert isinstance(exc_info.value, ValueError)

    def test_single_seller_cannot_spread_risk(self):
        with pytest.raises(Infeasible):
            neutral_policy(M5, 1, 6.0)
        # at the bound the degenerate uniform policy is still fine
        pol = neutral_policy(M5, 1, 5.0)
        np.testing.assert_array_equal(pol.transfers, [[1.0]])

    @pytest.mark.parametrize("N, k", [(4, None), (5, None), (4, 1), (6, 3)])
    def test_alternating_coefficients_are_exact(self, N, k):
        # a = N sigma/|psi(0)|, and seller n's lag coefficient is
        # (-1)^n a to the last bit (sellers 3..N of the odd design, whose
        # rows end in the zero of the two-lag column)
        sigma = 1.7
        alpha = N * sigma / 5.0
        if k is None:
            pol, k = neutral_policy(M5, N, sigma), 1
        else:
            pol = lagged_variant(M5, N, sigma, k=k)
        for n in range(3 if N % 2 else 1, N + 1):
            np.testing.assert_array_equal(
                pol.transfers[n - 1],
                [1.0] + [0.0] * (k - 1) + [(-1.0) ** n * alpha] + [0.0] * (N % 2))

    def test_target_hit_exactly(self):
        for N, sigma in ((2, 5.0), (3, 2.0), (4, 1.3), (5, 7.7), (6, 2.5)):
            pol = neutral_policy(M5, N, sigma)
            for f in filters_by_seller(pol, M5):
                assert root_msfe(f) == pytest.approx(sigma, abs=1e-9)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 11, 1001])
    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_distinct_rows(self, N, factor):
        # one row at the bound (the uniform split), two for even N, three
        # at N = 3 and four for odd N >= 5 (two two-lag rows, two
        # alternating ones)
        pol = neutral_policy(M5, N, factor * sigma_lower_bound(M5, N))
        want = 1 if factor == 1.0 else 2 if N % 2 == 0 else 3 if N == 3 else 4
        assert len(seller_filters(pol, M5)[0]) == want

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1.7e308])
    def test_non_finite_target_names_sigma(self, sigma):
        # at 1.7e308 the target is finite but a = N sigma/|psi(0)| is not
        for design in (lambda: neutral_policy(M5, 4, sigma),
                       lambda: lagged_variant(M5, 4, sigma, k=2)):
            with pytest.raises(ValueError, match="sigma target") as exc_info:
                design()
            assert not isinstance(exc_info.value, BelowLowerBound)


class TestLaggedVariant:
    def test_three_period_memory(self):
        pol = lagged_variant(M5, 2, 5.0, k=3)
        np.testing.assert_allclose(pol.transfers, [[1.0, 0, 0, -2.0],
                                                   [1.0, 0, 0, 2.0]])
        assert pol.max_lag == 3
        for f in filters_by_seller(pol, M5):
            assert root_msfe(f) == pytest.approx(5.0, abs=1e-9)

    def test_four_sellers_lag_two(self):
        sigma = 2 * sigma_lower_bound(M5, 4)
        pol = lagged_variant(M5, 4, sigma, k=2)
        filters = filters_by_seller(pol, M5)
        for n in range(1, 5):
            np.testing.assert_allclose(
                pol.transfers[n - 1], [1.0, 0.0, 2.0 if n % 2 == 0 else -2.0])
            assert root_msfe(filters[n - 1]) == pytest.approx(sigma, abs=1e-9)

    def test_rejects_odd_n_and_zero_lag(self):
        with pytest.raises(ValueError):
            lagged_variant(M5, 3, 5.0, k=2)
        with pytest.raises(ValueError):
            lagged_variant(M5, 2, 5.0, k=0)


class TestAdmissibility:
    def test_transfers_must_sum_to_n(self):
        with pytest.raises(ValueError, match="admissibility"):
            AllocationPolicy([[1.0, 0.5], [1.0, 0.2]])

    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(ValueError, match="T_n"):
            AllocationPolicy([[0.9, 0.5], [1.1, -0.5]])

    def test_custom_admissible_accepted(self):
        pol = AllocationPolicy([[1.0, -1.0], [1.0, 2.0], [1.0, -1.0]])
        assert (pol.n_sellers, pol.max_lag) == (3, 1)
        assert repr(pol) == "AllocationPolicy(N=3, max_lag=1)"
        np.testing.assert_array_equal(pol.transfers[1], [1.0, 2.0])
        assert not pol.transfers.flags.writeable


def per_seller_sigma(pol, model):
    return [root_msfe(f) for f in filters_by_seller(pol, model)]


class TestNeutralityCheck:
    def test_designs_are_neutral(self):
        for pol in (neutral_policy(M5, 2, 5.0),
                    neutral_policy(M1, 3, 0.4),
                    lagged_variant(M5, 2, 5.0, k=3)):
            model = M5 if pol.n_sellers == 2 else M1
            sigmas = per_seller_sigma(pol, model)
            assert max(sigmas) - min(sigmas) < 1e-9

    def test_unequal_split_flagged(self):
        pol = AllocationPolicy([[1.0, -1.0], [1.0, 2.0], [1.0, -1.0]])
        sigmas = per_seller_sigma(pol, M1)
        np.testing.assert_allclose(sigmas, [1 / 3, 2 / 3, 1 / 3], atol=1e-9)
        assert max(sigmas) - min(sigmas) == pytest.approx(1 / 3, abs=1e-9)


def ex_post(pol, demands):
    """The allocation that `simulate` replays along a path: allocations and
    start_period of simulate_inventory on a market of pol's size."""
    table = market_table(seller_columns(SELLERS[:pol.n_sellers]), COSTS, M5.mu)
    run = simulate_inventory(table, pol, M5, np.asarray(demands, dtype=float), 5.0)
    return run.allocations, run.start_period


class TestExPost:
    def test_first_period_split(self):
        pol = neutral_policy(M5, 2, 5.0)
        allocations, start = ex_post(pol, [M5.mu + 1.0, M5.mu])
        assert start == 1
        assert allocations[0, 0] == pytest.approx(M5.mu / 2 - 1.0)
        assert allocations[1, 0] == pytest.approx(M5.mu / 2 + 1.0)

    def test_allocations_sum_to_demand(self):
        path = simulate(M5, 400, 3)
        for pol in (neutral_policy(M5, 2, 5.0),
                    neutral_policy(M5, 5, 3.0),
                    lagged_variant(M5, 4, 4.0, k=2)):
            allocations, start = ex_post(pol, path)
            np.testing.assert_allclose(allocations.sum(axis=0),
                                       path[start:], atol=1e-9)

    def test_requires_enough_history(self):
        pol = lagged_variant(M5, 2, 5.0, k=3)
        path = simulate(M5, 3, 0)
        with pytest.raises(InsufficientHistory, match="at least 4 periods"):
            ex_post(pol, path)


class TestDesignProperties:
    @given(seed=st.integers(0, 10_000),
           N=st.integers(2, 9),
           factor=st.floats(1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_randomized_designs(self, seed, N, factor):
        rng = np.random.default_rng(seed)
        model = random_invertible_model(rng)
        sigma_l = sigma_lower_bound(model, N)
        sigma = sigma_l * factor
        pol = neutral_policy(model, N, sigma)

        # admissibility: transfers sum to N at lag 0 and cancel elsewhere
        total = np.zeros(pol.max_lag + 1)
        for t in pol.transfers:
            total += t
        assert abs(total[0] - N) < 1e-10
        if pol.max_lag:
            assert np.max(np.abs(total[1:])) < 1e-10

        filters = filters_by_seller(pol, model)
        sigmas = [root_msfe(f) for f in filters]
        # every seller hits the target, and the split cannot beat the
        # market-wide filter scale
        for s in sigmas:
            assert s == pytest.approx(sigma, abs=max(1e-9, 1e-10 * sigma))
        psi0 = abs(model.psi.coeffs[0])
        assert sum(sigmas) >= psi0 - max(1e-9, 1e-10 * psi0)

        # spreading risk above the bound costs every seller invertibility
        if factor > 1.05:
            for f in filters:
                assert not is_invertible(f)


# psi of degree 0..3 with every root outside the unit circle: a product of
# a scale and one to three factors (1 + c z) with |c| < 1
@st.composite
def demand_models(draw):
    psi = np.array([draw(st.floats(0.5, 6.0)) * draw(st.sampled_from([-1.0, 1.0]))])
    for _ in range(draw(st.integers(0, 3))):
        psi = np.convolve(psi, [1.0, draw(st.floats(-0.9, 0.9))])
    return DemandModel(draw(st.floats(5.0, 40.0)), TransferPoly(psi))


# lag coefficients: repeats, both zero signs, and trailing values just
# below and just above TRIM_TOL
_LAG = st.sampled_from([0.0, -0.0, 0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12,
                        0.5, -0.5, 1.25, -2.0])


@st.composite
def transfer_rows(draw, model):
    """Rows of a design: the neutral design at or above sigma_L for N =
    1..12, its lagged variant with k = 1..4, or a custom matrix of drawn lag
    coefficients, balanced to sum to N or not, with T_n(0) off 1 now and
    then."""
    kind = draw(st.sampled_from(["neutral", "lagged", "custom"]))
    if kind == "custom":
        N, lags = draw(st.integers(1, 6)), draw(st.integers(0, 3))
        rows = [[1.0] + [draw(_LAG) for _ in range(lags)] for _ in range(N)]
        if N > 2 and lags > 1 and draw(st.booleans()):
            # a second role that differs from the first only in the sign of
            # an interior zero
            rows[0][1], rows[0][-1] = draw(st.sampled_from([0.0, -0.0])), 0.5
            rows[1] = [-c if c == 0.0 else c for c in rows[0]]
        if draw(st.booleans()):
            rows[-1][1:] = [-sum(r[k] for r in rows[:-1]) for k in range(1, lags + 1)]
        if draw(st.integers(0, 9)) == 0:
            rows[draw(st.integers(0, N - 1))][0] = 1.0 + 2e-10
        return rows
    N = draw(st.integers(1, 6)) * 2 if kind == "lagged" else draw(st.integers(1, 12))
    sigma = sigma_lower_bound(model, N)
    if N > 1 and draw(st.booleans()):
        sigma *= draw(st.floats(1.0, 4.0))
    pol = (lagged_variant(model, N, sigma, draw(st.integers(1, 4)))
           if kind == "lagged" else neutral_policy(model, N, sigma))
    return pol.transfers.tolist()


def _hex(poly):
    return [c.hex() for c in poly.coeffs.tolist()]


class TestMatrixAgainstPerSeller:
    """The transfer matrix equals the one-TransferPoly-per-seller design bit
    for bit: the same designs accepted, with the same error texts, and each
    seller's filter and offsets to the last bit, zero signs included."""

    @given(st.data(), demand_models(),
           st.lists(st.floats(-50.0, 90.0), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_filters_offsets_and_checks_match(self, data, model, demands):
        rows = data.draw(transfer_rows(model))
        try:
            want = ref_policy_transfers(rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                AllocationPolicy(rows)
            assert str(got.value) == str(exc)
            return
        pol = AllocationPolicy(rows)
        assert pol.n_sellers == len(want)
        assert pol.max_lag == max(t.degree for t in want)
        filters, index = seller_filters(pol, model)
        assert len(filters) == len({t.coeffs.tobytes() for t in want})
        for n in range(1, len(want) + 1):
            got, ref = filters[index[n - 1]], ref_seller_filter(want, model.psi, n)
            assert got.degree == ref.degree
            assert _hex(got) == _hex(ref)
        assert benchmark_offsets(pol, model, demands).tobytes() == \
            ref_benchmark_offsets(want, model.mu, demands).tobytes()


@st.composite
def admissible_transfers(draw):
    """An admissible (N, L+1) transfer matrix, N = 2..11 and L = 1..3: rows
    with T_n(0) = 1 and drawn lag coefficients, the last row's lags the
    negated column sums of the others, so every lag column sums to 0."""
    N, lags = draw(st.integers(2, 11)), draw(st.integers(1, 3))
    rows = [[1.0] + [draw(st.floats(-3.0, 3.0)) for _ in range(lags)]
            for _ in range(N - 1)]
    rows.append([1.0] + [-sum(r[k] for r in rows) for k in range(1, lags + 1)])
    return rows


def _roots_apart(coeffs) -> bool:
    """Whether every root of coeffs lies 1e-2 or more from the unit circle
    and from every other root.  There root_msfe and the FFT Jensen mean are
    exact to rounding; the copies of a repeated root are not (test_polyalg,
    test_repeated_root_keeps_its_msfe)."""
    roots = np.roots(np.trim_zeros(coeffs, "b")[::-1])
    gap = np.abs(np.subtract.outer(roots, roots)) + np.diag(np.full(roots.size, 1.0))
    return bool(np.all(np.abs(np.abs(roots) - 1.0) >= 1e-2) and np.all(gap >= 1e-2))


@st.composite
def outer_transfers(draw):
    """An admissible design whose transfer rows have no root in the closed
    unit disk: N = 2..11 rows, pairs 1 + a z^k and 1 - a z^k with k = 1..3
    and |a| <= 0.95 (roots of modulus |a|^(-1/k)), the rest uniform rows, in
    drawn order.  Each pair's lags cancel, so every lag column sums to 0."""
    N = draw(st.integers(2, 11))
    rows = [[1.0] + [0.0] * 3 for _ in range(N)]
    for n in range(draw(st.integers(1, N // 2))):
        k, a = draw(st.integers(1, 3)), draw(st.floats(-0.95, 0.95))
        rows[2 * n][k], rows[2 * n + 1][k] = a, -a
    return draw(st.permutations(rows))


# psi and rows of a case where root_msfe, as |c_q| times the product of the
# outer roots' moduli, read 5.9e-13 below sigma_L on an invertible filter
_FLOOR_CASE = (DemandModel(5.0, TransferPoly([-1.0, 1.48022, -0.727546, 0.118719])),
               [[1.0, 0.0]] * 3 + [[1.0, 0.53125], [1.0, -0.53125]])


class TestUniformSplitFloor:
    """The paper's first claim: no admissible design beats the uniform split.
    Root MSFE is multiplicative (Jensen), root_msfe(T_n) >= |T_n(0)| = 1 and
    psi is invertible, so seller n's sigma_n = sigma_L root_msfe(T_n) is at
    least sigma_L = |psi(0)|/N, with equality when T_n has no root inside the
    unit disk (the uniform split among them)."""

    @given(demand_models(), admissible_transfers())
    @example(DemandModel(20.0, TransferPoly([5.0, 2.0])), [[1.0, 0.0], [1.0, 0.0]])
    @example(M5, [[1.0, 0.5, 0.0], [1.0, -0.5, 0.0], [1.0, 0.0, 0.0]])
    @example(*_FLOOR_CASE)
    @settings(max_examples=200, deadline=None)
    def test_no_seller_beats_the_uniform_split(self, model, rows):
        pol = AllocationPolicy(rows)
        sigma_l = sigma_lower_bound(model, pol.n_sellers)
        for t, f in zip(pol.transfers, filters_by_seller(pol, model)):
            assume(_roots_apart(t) and _roots_apart(f.coeffs))
            assert root_msfe(f) >= sigma_l * (1.0 - 1e-12)
            assert root_msfe(f) == pytest.approx(sigma_l * jensen_root_msfe(t),
                                                 rel=1e-9, abs=0)

    @given(demand_models(), outer_transfers())
    @example(*_FLOOR_CASE)
    @settings(max_examples=100, deadline=None)
    def test_rows_without_inner_roots_keep_every_seller_at_the_floor(self, model,
                                                                    rows):
        # the paper's necessity claim: a design lifts a seller above sigma_L
        # only through a transfer root inside the disk; without one, each
        # seller's root MSFE is |psi_0 T_n(0)|/N exactly, as the filter's
        # first coefficient psi_0 T_n(0) / N is
        pol = AllocationPolicy(rows)
        psi_0, N = float(model.psi.coeffs[0]), pol.n_sellers
        for t, f in zip(pol.transfers, filters_by_seller(pol, model)):
            assert np.all(np.abs(np.roots(np.trim_zeros(t, "b")[::-1])) > 1.0)
            assert root_msfe(f) == abs(psi_0 * t[0]) / N == sigma_lower_bound(model, N)
