"""Seller-side economics: normal quantile machinery, inventory cost
coefficients, and the market table's mode choice, adoption sets and
participation bounds, with the sellers' cumulative utility that the payoff
sums from it."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandalloc import (
    FBM,
    FBP,
    DomainError,
    PlatformCosts,
    SellerParams,
    base_stock,
    check_cost_assumptions,
    inventory_coefficient,
    market_table,
    payoff,
    std_normal_cdf,
    std_normal_loss,
    std_normal_quantile,
)
from oracles import (Seller, mp_cdf, mp_inventory_k, mp_quantile,
                     ref_check_cost_assumptions, ref_cumulative_utility,
                     ref_inventory_coefficient, ref_mode_economics,
                     ref_seller_utility, seller_columns)

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
    Seller(0.6, 12.0, 24.50),
    Seller(0.8, 9.0, 24.40),
    Seller(0.9, 13.0, 23.10),
    Seller(1.1, 8.0, 22.30),
    Seller(1.2, 11.0, 21.40),
    Seller(1.5, 10.0, 20.00),
    Seller(1.7, 9.0, 18.80),
    Seller(2.0, 12.0, 12.50),
    Seller(2.0, 13.0, 11.90),
    Seller(2.1, 11.0, 10.48),
)
COSTS = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0, delta_h=2.0, r=100.0)
MU = 15.0
N = 10
SIGMA_STAR = 8.867803761159964
TABLE = market_table(seller_columns(SELLERS), COSTS, MU)


def adopters(table, sigma, exclusive=False) -> set:
    """1-based indices of the sellers choosing FBP at sigma."""
    return set((np.flatnonzero(table.adopts(sigma, exclusive)) + 1).tolist())


# both tails down to the least subnormal and up to the last float below 1
QUANTILE_SWEEP = sorted({
    5e-324, 1e-300, 1e-16, 0.5, 1 - 1e-16, math.nextafter(1.0, 0.0),
    *np.logspace(-323, -1, 200).tolist(), *np.linspace(1e-3, 1 - 1e-3, 999).tolist(),
    *(1.0 - np.logspace(-16, -1, 60)).tolist()})


class TestNormalMachinery:
    def test_quantile_is_normaldist_inv_cdf(self):
        want = NormalDist().inv_cdf
        assert [std_normal_quantile(p).hex() for p in QUANTILE_SWEEP] == \
            [want(p).hex() for p in QUANTILE_SWEEP]

    def test_quantile_fallback_without_the_c_accelerator(self):
        # with _statistics missing the quantile comes from statistics.NormalDist
        probe = ("import json, sys\n"
                 "sys.modules['_statistics'] = None\n"
                 "from demandalloc.seller import std_normal_quantile\n"
                 "assert 'statistics' in sys.modules\n"
                 "ps = map(float.fromhex, json.load(sys.stdin))\n"
                 "print(json.dumps([std_normal_quantile(p).hex() for p in ps]))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                        env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              input=json.dumps([p.hex() for p in QUANTILE_SWEEP]),
                              capture_output=True, text=True)
        assert json.loads(done.stdout) == \
            [std_normal_quantile(p).hex() for p in QUANTILE_SWEEP]

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


_POSITIVE = st.floats(5e-324, 1.7976931348623157e308)
_COEFFICIENT_PAIRS = st.one_of(
    # any magnitudes, subnormal to the largest float
    st.tuples(_POSITIVE, _POSITIVE),
    # b a few ulps either side of h_bar, b == h_bar included
    st.tuples(st.floats(1e-300, 1e300), st.integers(-4, 4)).map(
        lambda hk: (hk[0], hk[0] * (1.0 + hk[1] * 2.0 ** -52))),
    # fractiles a few ulps from 1 (b >> h_bar) and from 0 (b << h_bar)
    st.tuples(st.floats(1e-150, 1e150), st.integers(1, 8), st.integers(50, 56),
              st.booleans()).map(
        lambda p: (p[0], p[0] * p[1] * 2.0 ** p[2]) if p[3]
        else (p[0] * p[1] * 2.0 ** p[2], p[0])),
    st.tuples(st.floats(1e-3, 1e3), st.integers(1, 8)).map(
        lambda p: (p[0], p[1] * 5e-324)),
)


class TestInventoryCoefficient:
    def test_frozen_references(self):
        assert inventory_coefficient(0.6, 12.0)[1] == pytest.approx(K_06_12, abs=1e-9)
        assert inventory_coefficient(2.5, 12.0)[1] == pytest.approx(K_25_12, abs=1e-9)
        assert inventory_coefficient(2.5, 9.0)[1] == pytest.approx(K_25_9, abs=1e-9)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @example(1e3, 1e-3)  # zeta near -4.75: h_bar * zeta and L(zeta) terms cancel
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath(self, h_bar, b):
        _, K = mp_inventory_k(h_bar, b)
        assert inventory_coefficient(h_bar, b)[1] == pytest.approx(
            K, rel=1e-12, abs=0.0)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @example(1e-3, 393.0)  # fractile near 1: b/(h_bar+b) keeps few digits of 1-p
    @settings(max_examples=200, deadline=None)
    def test_zeta_against_mpmath(self, h_bar, b):
        with mp.workdps(50):
            fractile = mp.mpf(b) / (mp.mpf(h_bar) + mp.mpf(b))
        # near h_bar = b the fractile's own rounding, a fraction of an ulp of
        # 1/2, bounds zeta's absolute error
        assert inventory_coefficient(h_bar, b)[0] == pytest.approx(
            mp_quantile(fractile), rel=1e-12, abs=1e-15)

    @given(_COEFFICIENT_PAIRS)
    @example((1.0, 1.0))
    @example((2.5, 2.5 * 2.0 ** 53))  # fractile 1 - 2**-53, an ulp below 1
    @example((2.5, 2.5 * 2.0 ** 54))  # rounds to 1: no quantile
    @example((1.0, 5e-324))  # fractile 5e-324, the least above 0
    @example((1e308, 1e308))  # h_bar + b overflows: the fractile is 0
    @settings(max_examples=400, deadline=None)
    def test_helper_matches_the_method_form(self, pair):
        # market_table's scalar helper against NormalDist's methods: equal
        # bit for bit, with the same DomainError text
        h_bar, b = pair
        try:
            want = ref_inventory_coefficient(h_bar, b)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                inventory_coefficient(h_bar, b)
            assert str(got.value) == str(exc)
            return
        assert [x.hex() for x in inventory_coefficient(h_bar, b)] == \
            [x.hex() for x in want]

    def test_critical_fractile(self):
        zeta, _ = inventory_coefficient(0.6, 12.0)
        assert zeta == pytest.approx(ZETA_12_126, abs=1e-9)

    def test_scale_invariance(self):
        # K is homogeneous of degree 1 in (h, b): the fractile depends only
        # on the ratio
        base_zeta, base_k = inventory_coefficient(0.6, 12.0)
        zeta, k = inventory_coefficient(1.8, 36.0)
        assert zeta == pytest.approx(base_zeta, abs=1e-12)
        assert k == pytest.approx(3.0 * base_k, rel=1e-12)

    def test_monotone_in_holding_cost(self):
        ks = [inventory_coefficient(h, 10.0)[1] for h in np.linspace(0.3, 3.0, 12)]
        assert all(x < y for x, y in zip(ks, ks[1:]))

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(DomainError):
            inventory_coefficient(0.0, 10.0)
        with pytest.raises(DomainError):
            inventory_coefficient(1.0, -2.0)

    def test_reference_table_reproduced(self):
        for idx, (k_fbm, k_fbp) in enumerate(zip(TABLE.k_fbm, TABLE.k_fbp), start=1):
            want_fbm, want_fbp = REFERENCE_K[idx]
            assert k_fbm == pytest.approx(want_fbm, abs=0.005), f"seller {idx} FBM"
            assert k_fbp == pytest.approx(want_fbp, abs=0.005), f"seller {idx} FBP"

    def test_mode_dispatch(self):
        # FBM runs on the seller's own holding cost, FBP on the platform's
        p = SELLERS[0]
        assert TABLE.k_fbm[0] == pytest.approx(
            inventory_coefficient(p.h, p.b)[1], rel=1e-15)
        assert TABLE.k_fbp[0] == pytest.approx(
            inventory_coefficient(COSTS.H, p.b)[1], rel=1e-15)
        assert TABLE.zeta_fbp[0] == ref_mode_economics(p, COSTS, FBP)[0]

    def test_rejects_unknown_mode(self):
        # the scalar reference must not read an unknown mode as FBM
        with pytest.raises(ValueError):
            ref_mode_economics(SELLERS[0], COSTS, "warehouse")


class TestBaseStock:
    def test_reference_level(self):
        assert base_stock(1.5, 0.5, TABLE.zeta_fbp[0]) == pytest.approx(1.972, abs=5e-4)

    def test_zero_dispersion_stocks_the_mean(self):
        assert base_stock(4.2, 0.0, 1.3) == 4.2

    def test_negative_fractile_understocks(self):
        assert base_stock(4.0, 1.0, -0.5) < 4.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            base_stock(1.0, -0.1, 1.0)


def cumulative_utility_matches_reference(sigma) -> bool:
    """The payoff's cumulative utility at sigma against the per-seller sum
    of tests/oracles.py."""
    return payoff(TABLE, sigma).cumulative_utility == pytest.approx(
        ref_cumulative_utility(SELLERS, COSTS, N, MU, sigma), rel=1e-12)


class TestSellerUtility:
    def test_reference_value(self):
        # seller 1 under platform fulfillment at the uniform mean share
        assert TABLE.adopts(0.5)[0]
        assert ref_seller_utility(SELLERS[0], COSTS, FBP, MU / N, 0.5) == \
            pytest.approx(110.65, abs=0.005)
        assert cumulative_utility_matches_reference(0.5)

    def test_zero_sigma_is_pure_margin(self):
        assert TABLE.adopts(0.0).all()
        assert payoff(TABLE, 0.0).cumulative_utility == pytest.approx(
            N * (100.0 - 15.0 - 10.0) * 1.5, rel=1e-12)
        assert TABLE.margin_fbm[0] == pytest.approx((100.0 - 15.0 - 24.5) * 1.5,
                                                    rel=1e-12)

    def test_linear_decrease_in_sigma(self):
        for sigma in (1.0, 2.0, 3.0):
            assert cumulative_utility_matches_reference(sigma)
        # no seller switches between the first two exit thresholds (1.74
        # and 5.07), so there the sum falls by the chosen K's per unit sigma
        u0, u1, u2 = (payoff(TABLE, s).cumulative_utility for s in (2.0, 3.0, 4.0))
        k = np.where(TABLE.adopts(3.0), TABLE.k_fbp, TABLE.k_fbm).sum()
        assert u0 - u1 == pytest.approx(u1 - u2, rel=1e-9)
        assert u0 - u1 == pytest.approx(k, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            payoff(TABLE, -1.0)
        with pytest.raises(DomainError, match="mu_share"):
            market_table(seller_columns(SELLERS), COSTS, 0.0)


class TestModeChoice:
    def test_urban_seller_prefers_self_fulfillment(self):
        assert not TABLE.adopts(1.8)[9]

    def test_everyone_adopts_at_zero_sigma(self):
        assert TABLE.adopts(0.0).all()

    def test_threshold_is_inclusive(self):
        # seller 1 switches exactly at the largest breakpoint; at that sigma
        # the tie goes to platform fulfillment
        assert TABLE.adopts(SIGMA_STAR)[0]
        assert not TABLE.adopts(SIGMA_STAR * (1 + 1e-6))[0]

    def test_choice_matches_utility_comparison(self):
        for sigma in (0.5, 2.0, 5.0, 9.0, 12.0, 15.0):
            assert cumulative_utility_matches_reference(sigma)
            for p, chosen in zip(SELLERS, TABLE.adopts(sigma).tolist()):
                u_fbp = ref_seller_utility(p, COSTS, FBP, MU / N, sigma)
                u_fbm = ref_seller_utility(p, COSTS, FBM, MU / N, sigma)
                if chosen:
                    assert u_fbp >= u_fbm - 1e-9
                else:
                    assert u_fbm > u_fbp - 1e-9

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            payoff(TABLE, -0.5)


class TestAdoptionSet:
    def test_low_dispersion_everyone(self):
        assert adopters(TABLE, 0.5) == set(range(1, 11))

    def test_design_level_drops_urban_sellers(self):
        assert adopters(TABLE, 8.8678) == {1, 2, 3, 4, 5, 6, 7}

    def test_high_dispersion_empty(self):
        assert adopters(TABLE, 20.0) == set()

    def test_monotone_shrinking(self):
        sizes = [len(adopters(TABLE, s)) for s in np.linspace(0.0, 20.0, 60)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_exclusive_boundary_drops_threshold_seller(self):
        inc = adopters(TABLE, SIGMA_STAR)
        exc = adopters(TABLE, SIGMA_STAR, exclusive=True)
        assert 1 in inc
        assert 1 not in exc
        assert exc == {2, 3, 4, 5, 6, 7}


class TestParticipationBound:
    def test_reference_market(self):
        ub = TABLE.participation_ub(500.0)
        assert ub == pytest.approx(33.9568, abs=1e-4)

    def test_single_seller_unit_coefficients(self):
        # scale (h, b) = (0.6, 12) so both coefficients equal 1; the bound
        # is then just the better of the two margins on the mean share
        c = 1.0 / K_06_12
        s = SellerParams(h=[0.6 * c], b=[12.0 * c], f=[75.0])
        costs = PlatformCosts(rho=15.0, F=65.0, H=0.6 * c,
                              delta_f=0.0, delta_h=0.0, r=100.0)
        table = market_table(s, costs, 1.0)
        assert table.k_fbm[0] == pytest.approx(1.0, abs=1e-9)
        assert table.k_fbp[0] == pytest.approx(1.0, abs=1e-9)
        ub = table.participation_ub(1e6)
        assert ub == pytest.approx(20.0, abs=1e-9)

    def test_all_margins_negative_gives_zero(self):
        s = SellerParams(h=[0.6], b=[12.0], f=[90.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            costs = PlatformCosts(rho=15.0, F=88.0, H=2.5,
                                  delta_f=0.0, delta_h=0.0, r=100.0)
            assert market_table(s, costs, 1.0).participation_ub(1e6) == 0.0

    def test_cap_binds_with_warning(self):
        with pytest.warns(UserWarning, match="cap"):
            ub = TABLE.participation_ub(10.0)
        assert ub == 10.0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(DomainError):
            TABLE.participation_ub(0.0)


class TestCostAssumptions:
    def test_reference_market_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_cost_assumptions(seller_columns(SELLERS), COSTS) is None

    def test_violations_reported_with_indices(self):
        bad = PlatformCosts(rho=15.0, F=20.0, H=1.0, delta_f=2.0,
                            delta_h=2.0, r=100.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            check_cost_assumptions(seller_columns(SELLERS), bad)
        # F=20 beats sellers 7..10 whose f < 20; H=1 sits below h for 4..10
        assert [str(w.message) for w in caught] == [
            "seller 7: platform fulfillment cost F=20 exceeds own cost f=18.8"
            " (and 3 more sellers)",
            "seller 4: platform holding cost H=1 below own cost h=1.1"
            " (and 6 more sellers)"]
        assert {w.category for w in caught} == {UserWarning}

    @given(st.lists(st.sampled_from(["neither", "F", "H", "both"]), min_size=1,
                    max_size=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_messages_match_the_per_seller_loop(self, kinds, data):
        # sellers that trip neither rule, F > f only, H < h only, or both;
        # f = F and h = H trip nothing
        F, H = COSTS.F, COSTS.H
        sellers = [Seller(
            h=data.draw(st.floats(H, 9.0, exclude_min=True) if kind in ("H", "both")
                        else st.floats(0.1, H)),
            b=data.draw(st.floats(0.5, 20.0)),
            f=data.draw(st.floats(0.0, F, exclude_max=True) if kind in ("F", "both")
                        else st.floats(F, 40.0)))
            for kind in kinds]
        want = ref_check_cost_assumptions(sellers, COSTS)
        assert len(want) == sum(1 + (kind == "both") for kind in kinds
                                if kind != "neither")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            check_cost_assumptions(seller_columns(sellers), COSTS)
        # one warning per rule that trips: its first seller's message and
        # the count of the others
        warned = []
        for rule in ("fulfillment", "holding"):
            hits = [m for m in want if f"platform {rule} cost" in m]
            if hits:
                more = f" (and {len(hits) - 1} more sellers)" if len(hits) > 1 else ""
                warned.append(hits[0] + more)
        assert [str(w.message) for w in caught] == warned

    def test_market_table_adds_no_second_holding_warning(self):
        # H = 1 below h of sellers 4..10 makes their dK negative; that is
        # check_cost_assumptions' warning, not the table's
        cheap_storage = PlatformCosts(rho=15.0, F=10.0, H=1.0, delta_f=2.0,
                                      delta_h=2.0, r=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = market_table(seller_columns(SELLERS), cheap_storage, 150.0)
        assert np.flatnonzero(table.dK < 0).tolist() == [
            i for i, p in enumerate(SELLERS) if p.h > cheap_storage.H]

    def test_thin_margin_warns_at_construction(self):
        with pytest.warns(UserWarning, match="margin") as caught:
            PlatformCosts(rho=90.0, F=10.0, H=2.5, delta_f=2.0,
                          delta_h=2.0, r=100.0)
        # the warning points at the line that built the costs
        assert [w.filename for w in caught] == [__file__]


class TestParamValidation:
    def test_seller_params(self):
        # one check of the columns names the first seller at fault
        ok = [1.0, 1.0, 1.0]
        for column, message in (("h", "holding and backorder"),
                                ("b", "holding and backorder"),
                                ("f", "fulfillment")):
            bad = dict(h=ok, b=ok, f=ok)
            bad[column] = [1.0, -0.5 if column == "f" else 0.0, -1.0]
            with pytest.raises(DomainError, match=rf"^sellers\[2\]: {message}"):
                SellerParams(**bad)
        with pytest.raises(DomainError, match=r"^sellers\[1\]: holding"):
            SellerParams([0.0], [1.0], [-1.0])  # h and b before f
        with pytest.raises(ValueError, match="columns"):
            SellerParams(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SellerParams([1.0], [1.0, 2.0], [1.0])

    def test_columns_are_read_only_floats(self):
        params = SellerParams([1, 2], [3.5, 4], [0, 5])
        assert len(params) == 2
        for column in (params.h, params.b, params.f):
            assert column.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 9.0

    def test_nan_fails_the_domain_checks(self):
        nan = float("nan")
        for args in ((nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan)):
            with pytest.raises(DomainError, match=r"sellers\[2\]"):
                SellerParams(*zip((1.0, 1.0, 1.0), args))
        with pytest.raises(DomainError, match="delta_h"):
            PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                          delta_h=nan, r=100.0)
        with pytest.raises(DomainError, match="H"):
            PlatformCosts(rho=15.0, F=10.0, H=0.0, delta_f=2.0,
                          delta_h=2.0, r=100.0)

    def test_domain_error_is_value_error(self):
        assert issubclass(DomainError, ValueError)
