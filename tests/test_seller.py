"""Seller-side economics: normal quantile machinery, inventory cost
coefficients, utilities, mode choice, and participation bounds."""
import io
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demandalloc.seller as seller
from demandalloc import (
    FBM,
    FBP,
    DomainError,
    PlatformCosts,
    SellerParams,
    adoption_set,
    base_stock,
    check_cost_assumptions,
    export_k_table,
    inventory_coefficient,
    k_table,
    mode_choice,
    mode_economics,
    seller_utility,
    sigma_participation_ub,
    std_normal_cdf,
    std_normal_loss,
    std_normal_quantile,
)
from oracles import mp_cdf, mp_inventory_k, mp_quantile

# 50-digit reference values, frozen from tests/oracles.py.
ZETA_12_126 = 1.668391193946766     # quantile(12 / 12.6)
Z_975 = 1.959963984540054           # quantile(0.975)
K_06_12 = 1.249812690808036         # inventory_coefficient(0.6, 12)
K_25_12 = 3.702505667085437         # inventory_coefficient(2.5, 12)
K_25_9 = 3.381777959770482          # inventory_coefficient(2.5, 9)

# reference safety-stock coefficients for the ten-seller market
REFERENCE_K = {
    1: (1.250, 3.703),
    2: (1.479, 3.382),
    3: (1.757, 3.791),
    4: (1.830, 3.250),
    5: (2.115, 3.606),
    6: (2.438, 3.500),
    7: (2.591, 3.382),
    8: (3.159, 3.703),
    9: (3.229, 3.791),
    10: (3.191, 3.606),
}

SELLERS = (
    SellerParams(0.6, 12.0, 24.50),
    SellerParams(0.8, 9.0, 24.40),
    SellerParams(0.9, 13.0, 23.10),
    SellerParams(1.1, 8.0, 22.30),
    SellerParams(1.2, 11.0, 21.40),
    SellerParams(1.5, 10.0, 20.00),
    SellerParams(1.7, 9.0, 18.80),
    SellerParams(2.0, 12.0, 12.50),
    SellerParams(2.0, 13.0, 11.90),
    SellerParams(2.1, 11.0, 10.48),
)
COSTS = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0, delta_h=2.0, r=100.0)
MU = 15.0
N = 10
SIGMA_STAR = 8.867803761159964


class TestNormalMachinery:
    def test_quantile_frozen_references(self):
        assert std_normal_quantile(12.0 / 12.6) == pytest.approx(
            ZETA_12_126, abs=1e-9)
        assert std_normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-9)
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_inverts_cdf(self):
        grid = np.concatenate([
            np.linspace(1e-6, 1 - 1e-6, 101),
            [1e-5, 1e-4, 1 - 1e-5, 1 - 1e-4],
        ])
        for p in grid:
            assert abs(std_normal_cdf(std_normal_quantile(float(p))) - p) < 1e-9

    @given(st.floats(1e-40, 0.5))
    @example(0.5 - 2.0 ** -54)
    @settings(max_examples=200, deadline=None)
    def test_quantile_against_mpmath(self, p):
        # the upper half follows by symmetry (test_quantile_symmetry)
        assert std_normal_quantile(p) == pytest.approx(
            mp_quantile(p), rel=1e-12, abs=0.0)

    def test_cdf_keeps_the_far_lower_tail(self):
        # erf-based cdfs return 0 here; prob_negative reads this tail
        for x in (-10.0, -30.0):
            assert std_normal_cdf(x) == pytest.approx(mp_cdf(x), rel=1e-12)

    def test_quantile_symmetry(self):
        for p in (0.01, 0.2, 0.35, 0.49):
            assert std_normal_quantile(p) == pytest.approx(
                -std_normal_quantile(1 - p), abs=1e-12)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                std_normal_quantile(p)

    def test_loss_at_zero(self):
        assert std_normal_loss(0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_loss_shape(self):
        grid = np.linspace(-3.0, 4.0, 40)
        vals = [std_normal_loss(float(z)) for z in grid]
        assert all(v > 0 for v in vals)
        assert all(x > y for x, y in zip(vals, vals[1:]))
        # convex: second differences nonnegative
        d2 = np.diff(vals, 2)
        assert np.all(d2 > -1e-12)
        # L(-z) = L(z) + z
        for z in (0.5, 1.0, 2.0):
            assert std_normal_loss(-z) == pytest.approx(
                std_normal_loss(z) + z, abs=1e-12)


class TestInventoryCoefficient:
    def test_frozen_references(self):
        assert inventory_coefficient(0.6, 12.0).K == pytest.approx(K_06_12, abs=1e-9)
        assert inventory_coefficient(2.5, 12.0).K == pytest.approx(K_25_12, abs=1e-9)
        assert inventory_coefficient(2.5, 9.0).K == pytest.approx(K_25_9, abs=1e-9)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @example(1e3, 1e-3)  # zeta near -4.75: h_bar * zeta and L(zeta) terms cancel
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath(self, h_bar, b):
        _, K = mp_inventory_k(h_bar, b)
        assert inventory_coefficient(h_bar, b).K == pytest.approx(
            K, rel=1e-12, abs=0.0)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @example(1e-3, 393.0)  # fractile near 1: b/(h_bar+b) keeps few digits of 1-p
    @settings(max_examples=200, deadline=None)
    def test_zeta_against_mpmath(self, h_bar, b):
        with mp.workdps(50):
            fractile = mp.mpf(b) / (mp.mpf(h_bar) + mp.mpf(b))
        # near h_bar = b the fractile's own rounding, a fraction of an ulp of
        # 1/2, bounds zeta's absolute error
        assert inventory_coefficient(h_bar, b).zeta == pytest.approx(
            mp_quantile(fractile), rel=1e-12, abs=1e-15)

    def test_critical_fractile(self):
        econ = inventory_coefficient(0.6, 12.0)
        assert econ.zeta == pytest.approx(ZETA_12_126, abs=1e-9)

    def test_scale_invariance(self):
        # K is homogeneous of degree 1 in (h, b): the fractile depends only
        # on the ratio
        base = inventory_coefficient(0.6, 12.0)
        scaled = inventory_coefficient(1.8, 36.0)
        assert scaled.zeta == pytest.approx(base.zeta, abs=1e-12)
        assert scaled.K == pytest.approx(3.0 * base.K, rel=1e-12)

    def test_monotone_in_holding_cost(self):
        ks = [inventory_coefficient(h, 10.0).K for h in np.linspace(0.3, 3.0, 12)]
        assert all(x < y for x, y in zip(ks, ks[1:]))

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(DomainError):
            inventory_coefficient(0.0, 10.0)
        with pytest.raises(DomainError):
            inventory_coefficient(1.0, -2.0)

    def test_reference_table_reproduced(self):
        for idx, params in enumerate(SELLERS, start=1):
            want_fbm, want_fbp = REFERENCE_K[idx]
            assert mode_economics(params, COSTS, FBM).K == pytest.approx(
                want_fbm, abs=0.005), f"seller {idx} FBM"
            assert mode_economics(params, COSTS, FBP).K == pytest.approx(
                want_fbp, abs=0.005), f"seller {idx} FBP"

    def test_mode_dispatch(self):
        # FBM runs on the seller's own holding cost, FBP on the platform's
        p = SELLERS[0]
        assert mode_economics(p, COSTS, FBM).K == pytest.approx(
            inventory_coefficient(p.h, p.b).K, rel=1e-15)
        assert mode_economics(p, COSTS, FBP).K == pytest.approx(
            inventory_coefficient(COSTS.H, p.b).K, rel=1e-15)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            mode_economics(SELLERS[0], COSTS, "warehouse")


class TestBaseStock:
    def test_reference_level(self):
        zeta = mode_economics(SELLERS[0], COSTS, FBP).zeta
        assert base_stock(1.5, 0.5, zeta) == pytest.approx(1.972, abs=5e-4)

    def test_zero_dispersion_stocks_the_mean(self):
        assert base_stock(4.2, 0.0, 1.3) == 4.2

    def test_negative_fractile_understocks(self):
        assert base_stock(4.0, 1.0, -0.5) < 4.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            base_stock(1.0, -0.1, 1.0)


class TestSellerUtility:
    def test_reference_value(self):
        # seller 1 under platform fulfillment at the uniform mean share
        u = seller_utility(SELLERS[0], COSTS, FBP, MU / N, 0.5)
        assert u == pytest.approx(110.65, abs=0.005)

    def test_zero_sigma_is_pure_margin(self):
        u = seller_utility(SELLERS[0], COSTS, FBM, 1.5, 0.0)
        assert u == pytest.approx((100.0 - 15.0 - 24.5) * 1.5, rel=1e-12)

    def test_linear_decrease_in_sigma(self):
        p = SELLERS[3]
        u0 = seller_utility(p, COSTS, FBM, 1.5, 1.0)
        u1 = seller_utility(p, COSTS, FBM, 1.5, 2.0)
        u2 = seller_utility(p, COSTS, FBM, 1.5, 3.0)
        assert u0 - u1 == pytest.approx(u1 - u2, rel=1e-9)
        assert u0 - u1 == pytest.approx(mode_economics(p, COSTS, FBM).K, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            seller_utility(SELLERS[0], COSTS, FBM, 1.5, -1.0)
        with pytest.raises(DomainError):
            seller_utility(SELLERS[0], COSTS, FBM, 0.0, 1.0)


class TestModeChoice:
    def test_urban_seller_prefers_self_fulfillment(self):
        assert mode_choice(SELLERS[9], COSTS, N, MU, 1.8) == FBM

    def test_everyone_adopts_at_zero_sigma(self):
        for p in SELLERS:
            assert mode_choice(p, COSTS, N, MU, 0.0) == FBP

    def test_threshold_is_inclusive(self):
        # seller 1 switches exactly at the largest breakpoint; at that sigma
        # the tie goes to platform fulfillment
        assert mode_choice(SELLERS[0], COSTS, N, MU, SIGMA_STAR) == FBP
        assert mode_choice(SELLERS[0], COSTS, N, MU, SIGMA_STAR * (1 + 1e-6)) == FBM

    def test_choice_matches_utility_comparison(self):
        for sigma in (0.5, 2.0, 5.0, 9.0, 12.0, 15.0):
            for p in SELLERS:
                picked = mode_choice(p, COSTS, N, MU, sigma)
                u_fbp = seller_utility(p, COSTS, FBP, MU / N, sigma)
                u_fbm = seller_utility(p, COSTS, FBM, MU / N, sigma)
                if picked == FBP:
                    assert u_fbp >= u_fbm - 1e-9
                else:
                    assert u_fbm > u_fbp - 1e-9

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            mode_choice(SELLERS[0], COSTS, N, MU, -0.5)


class TestAdoptionSet:
    def test_low_dispersion_everyone(self):
        assert adoption_set(SELLERS, COSTS, N, MU, 0.5) == set(range(1, 11))

    def test_design_level_drops_urban_sellers(self):
        assert adoption_set(SELLERS, COSTS, N, MU, 8.8678) == {1, 2, 3, 4, 5, 6, 7}

    def test_high_dispersion_empty(self):
        assert adoption_set(SELLERS, COSTS, N, MU, 20.0) == set()

    def test_monotone_shrinking(self):
        sizes = [len(adoption_set(SELLERS, COSTS, N, MU, s))
                 for s in np.linspace(0.0, 20.0, 60)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_exclusive_boundary_drops_threshold_seller(self):
        inc = adoption_set(SELLERS, COSTS, N, MU, SIGMA_STAR)
        exc = adoption_set(SELLERS, COSTS, N, MU, SIGMA_STAR, boundary="exclusive")
        assert 1 in inc
        assert 1 not in exc
        assert exc == {2, 3, 4, 5, 6, 7}


class TestParticipationBound:
    def test_reference_market(self):
        ub = sigma_participation_ub(SELLERS, COSTS, N, MU, 500.0)
        assert ub == pytest.approx(33.9568, abs=1e-4)

    def test_single_seller_unit_coefficients(self):
        # scale (h, b) = (0.6, 12) so both coefficients equal 1; the bound
        # is then just the better of the two margins on the mean share
        c = 1.0 / K_06_12
        s = SellerParams(h=0.6 * c, b=12.0 * c, f=75.0)
        costs = PlatformCosts(rho=15.0, F=65.0, H=0.6 * c,
                              delta_f=0.0, delta_h=0.0, r=100.0)
        assert mode_economics(s, costs, FBM).K == pytest.approx(1.0, abs=1e-9)
        assert mode_economics(s, costs, FBP).K == pytest.approx(1.0, abs=1e-9)
        ub = sigma_participation_ub([s], costs, 1, 1.0, 1e6)
        assert ub == pytest.approx(20.0, abs=1e-9)

    def test_all_margins_negative_gives_zero(self):
        s = SellerParams(h=0.6, b=12.0, f=90.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            costs = PlatformCosts(rho=15.0, F=88.0, H=2.5,
                                  delta_f=0.0, delta_h=0.0, r=100.0)
            assert sigma_participation_ub([s], costs, 1, 1.0, 1e6) == 0.0

    def test_cap_binds_with_warning(self):
        with pytest.warns(UserWarning, match="cap"):
            ub = sigma_participation_ub(SELLERS, COSTS, N, MU, 10.0)
        assert ub == 10.0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(DomainError):
            sigma_participation_ub(SELLERS, COSTS, N, MU, 0.0)


class TestCostAssumptions:
    def test_reference_market_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_cost_assumptions(SELLERS, COSTS) == []

    def test_violations_reported_with_indices(self):
        bad = PlatformCosts(rho=15.0, F=20.0, H=1.0, delta_f=2.0,
                            delta_h=2.0, r=100.0)
        with pytest.warns(UserWarning):
            messages = check_cost_assumptions(SELLERS, bad)
        # F=20 beats sellers 8..10 whose f < 20; H=1 sits below h for 5..10
        assert any("seller 10" in m and "fulfillment" in m for m in messages)
        assert any("seller 6" in m and "holding" in m for m in messages)

    def test_thin_margin_warns_at_construction(self):
        with pytest.warns(UserWarning, match="margin"):
            PlatformCosts(rho=90.0, F=10.0, H=2.5, delta_f=2.0,
                          delta_h=2.0, r=100.0)


class TestKTable:
    def test_rows(self):
        rows = k_table(SELLERS, COSTS)
        assert len(rows) == 10
        assert rows[0][0] == 1
        assert rows[0][1:4] == (0.6, 12.0, 24.5)

    def test_export_header_and_shape(self):
        buf = io.StringIO()
        export_k_table(SELLERS, COSTS, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "seller,h,b,f,K_fbm,K_fbp"
        assert len(lines) == 11


class TestParamValidation:
    def test_seller_params(self):
        with pytest.raises(DomainError):
            SellerParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            SellerParams(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SellerParams(1.0, 1.0, -0.5)

    def test_nan_fails_the_domain_checks(self):
        nan = float("nan")
        for args in ((nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan)):
            with pytest.raises(DomainError):
                SellerParams(*args)
        with pytest.raises(DomainError, match="delta_h"):
            PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                          delta_h=nan, r=100.0)
        with pytest.raises(DomainError, match="H"):
            PlatformCosts(rho=15.0, F=10.0, H=0.0, delta_f=2.0,
                          delta_h=2.0, r=100.0)

    def test_domain_error_is_value_error(self):
        assert issubclass(DomainError, ValueError)
