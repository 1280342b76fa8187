"""Allocation policy construction: neutral designs, admissibility,
per-seller filters and ex-post allocation (the policy replayed along a path
by forecast.simulate_inventory)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demandalloc import (
    AllocationPolicy,
    BelowLowerBound,
    DemandModel,
    DemandPath,
    Infeasible,
    InsufficientHistory,
    TransferPoly,
    is_invertible,
    lagged_variant,
    market_table,
    neutral_policy,
    root_msfe,
    seller_filter,
    sigma_lower_bound,
    simulate,
)
from demandalloc.forecast import simulate_inventory
from test_seller import COSTS, SELLERS

M5 = DemandModel(20.0, TransferPoly([5.0]))
M1 = DemandModel(9.0, TransferPoly([1.0]))


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
        for t in pol.transfers:
            np.testing.assert_array_equal(t.coeffs, [1.0])

    def test_even_design(self):
        pol = neutral_policy(M5, 2, 5.0)
        assert pol.max_lag == 1
        np.testing.assert_allclose(pol.transfers[0].coeffs, [1.0, -2.0])
        np.testing.assert_allclose(pol.transfers[1].coeffs, [1.0, 2.0])

    def test_odd_design(self):
        pol = neutral_policy(M1, 3, 0.4)
        assert pol.max_lag == 2
        np.testing.assert_allclose(pol.transfers[0].coeffs, [1.0, 1.2, 1.2])
        np.testing.assert_allclose(pol.transfers[1].coeffs, [1.0, 0.0, -1.2])
        np.testing.assert_allclose(pol.transfers[2].coeffs, [1.0, -1.2])

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
        np.testing.assert_array_equal(pol.transfers[0].coeffs, [1.0])

    @pytest.mark.parametrize("N, k", [(4, None), (5, None), (4, 1), (6, 3)])
    def test_alternating_coefficients_are_exact(self, N, k):
        # a = N sigma/|psi(0)|, and seller n's lag coefficient is
        # (-1)^n a to the last bit (sellers 3..N of the odd design)
        sigma = 1.7
        alpha = N * sigma / 5.0
        if k is None:
            pol, k = neutral_policy(M5, N, sigma), 1
        else:
            pol = lagged_variant(M5, N, sigma, k=k)
        for n in range(3 if N % 2 else 1, N + 1):
            np.testing.assert_array_equal(
                pol.transfers[n - 1].coeffs,
                [1.0] + [0.0] * (k - 1) + [(-1.0) ** n * alpha])

    def test_target_hit_exactly(self):
        for N, sigma in ((2, 5.0), (3, 2.0), (4, 1.3), (5, 7.7), (6, 2.5)):
            pol = neutral_policy(M5, N, sigma)
            for n in range(1, N + 1):
                f = seller_filter(pol, M5, n)
                assert root_msfe(f) == pytest.approx(sigma, abs=1e-9)

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
        np.testing.assert_allclose(pol.transfers[0].coeffs, [1.0, 0, 0, -2.0])
        np.testing.assert_allclose(pol.transfers[1].coeffs, [1.0, 0, 0, 2.0])
        assert pol.max_lag == 3
        for n in (1, 2):
            assert root_msfe(seller_filter(pol, M5, n)) == pytest.approx(
                5.0, abs=1e-9)

    def test_four_sellers_lag_two(self):
        sigma = 2 * sigma_lower_bound(M5, 4)
        pol = lagged_variant(M5, 4, sigma, k=2)
        for n in range(1, 5):
            t = pol.transfers[n - 1]
            np.testing.assert_allclose(
                t.coeffs, [1.0, 0.0, 2.0 if n % 2 == 0 else -2.0])
            assert root_msfe(seller_filter(pol, M5, n)) == pytest.approx(
                sigma, abs=1e-9)

    def test_rejects_odd_n_and_zero_lag(self):
        with pytest.raises(ValueError):
            lagged_variant(M5, 3, 5.0, k=2)
        with pytest.raises(ValueError):
            lagged_variant(M5, 2, 5.0, k=0)


class TestAdmissibility:
    def test_transfers_must_sum_to_n(self):
        with pytest.raises(ValueError, match="admissibility"):
            AllocationPolicy(2, [TransferPoly([1.0, 0.5]),
                                 TransferPoly([1.0, 0.2])])

    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(ValueError, match="T_n"):
            AllocationPolicy(2, [TransferPoly([0.9, 0.5]),
                                 TransferPoly([1.1, -0.5])])

    def test_custom_admissible_accepted(self):
        pol = AllocationPolicy(3, [TransferPoly([1.0, -1.0]),
                                   TransferPoly([1.0, 2.0]),
                                   TransferPoly([1.0, -1.0])])
        assert (pol.n_sellers, pol.max_lag) == (3, 1)
        assert repr(pol) == "AllocationPolicy(N=3, max_lag=1)"
        np.testing.assert_array_equal(pol.transfers[1].coeffs, [1.0, 2.0])


def per_seller_sigma(pol, model):
    return [root_msfe(seller_filter(pol, model, n))
            for n in range(1, pol.n_sellers + 1)]


class TestNeutralityCheck:
    def test_designs_are_neutral(self):
        for pol in (neutral_policy(M5, 2, 5.0),
                    neutral_policy(M1, 3, 0.4),
                    lagged_variant(M5, 2, 5.0, k=3)):
            model = M5 if pol.n_sellers == 2 else M1
            sigmas = per_seller_sigma(pol, model)
            assert max(sigmas) - min(sigmas) < 1e-9

    def test_unequal_split_flagged(self):
        pol = AllocationPolicy(3, [TransferPoly([1.0, -1.0]),
                                   TransferPoly([1.0, 2.0]),
                                   TransferPoly([1.0, -1.0])])
        sigmas = per_seller_sigma(pol, M1)
        np.testing.assert_allclose(sigmas, [1 / 3, 2 / 3, 1 / 3], atol=1e-9)
        assert max(sigmas) - min(sigmas) == pytest.approx(1 / 3, abs=1e-9)


def ex_post(pol, demands):
    """The allocation that `simulate` replays along a path: allocations and
    start_period of simulate_inventory on a market of pol's size."""
    table = market_table(SELLERS[:pol.n_sellers], COSTS, M5.mu)
    path = DemandPath(np.asarray(demands, dtype=float), np.zeros(0), 0)
    run = simulate_inventory(table, pol, M5, path, 5.0)
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
            allocations, start = ex_post(pol, path.demands)
            np.testing.assert_allclose(allocations.sum(axis=0),
                                       path.demands[start:], atol=1e-9)

    def test_requires_enough_history(self):
        pol = lagged_variant(M5, 2, 5.0, k=3)
        path = simulate(M5, 3, 0)
        with pytest.raises(InsufficientHistory, match="at least 4 periods"):
            ex_post(pol, path.demands)


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
        width = max(len(t) for t in pol.transfers)
        total = np.zeros(width)
        for t in pol.transfers:
            total[:len(t)] += t.coeffs
        assert abs(total[0] - N) < 1e-10
        if width > 1:
            assert np.max(np.abs(total[1:])) < 1e-10

        sigmas = [root_msfe(seller_filter(pol, model, n))
                  for n in range(1, N + 1)]
        # every seller hits the target, and the split cannot beat the
        # market-wide filter scale
        for s in sigmas:
            assert s == pytest.approx(sigma, abs=max(1e-9, 1e-10 * sigma))
        psi0 = abs(model.psi.coeffs[0])
        assert sum(sigmas) >= psi0 - max(1e-9, 1e-10 * psi0)

        # spreading risk above the bound costs every seller invertibility
        if factor > 1.05:
            for n in range(1, N + 1):
                assert not is_invertible(seller_filter(pol, model, n))
