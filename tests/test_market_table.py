"""The array-backed market table against the scalar per-seller reference in
tests/oracles.py, the sweep of curve and optimize against the adoption rule
point by point, their memory, the optimizer's domain check, and the curve
export's bytes.

Markets for the agreement properties are drawn inside the optimizer's domain
(delta_h >= 0 and b_n >= H, so delta_h * zeta_FBP,n >= 0), with some sellers
whose own holding cost exceeds H (dK < 0) and some caps that bind.
"""
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandalloc import (DemandModel, DomainError, MarketTable, PlatformCosts,
                         SellerParams, TransferPoly, market_table, optimize,
                         payoff, payoff_curve, sigma_lower_bound)
from demandalloc.cli import EXIT_INPUT, main
from demandalloc.platform import _adopter_sums
from oracles import (Seller, curve_points, ref_adoption_set, ref_breakpoints,
                     ref_cumulative_utility, ref_mode_choice, ref_optimize,
                     ref_fractile_fault, ref_payoff, ref_payoff_curve,
                     ref_seller_utility, ref_sigma_participation_ub,
                     seller_columns)
from test_seller import COSTS, MU, N, SELLERS, adopters

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "illustrative.scenario"
# `curve --grid 200` on the reference scenario, written by the per-seller
# scalar implementation the market table replaced.
GOLDEN_CURVE = Path(__file__).resolve().parent / "data" / "illustrative_curve_grid200.csv"


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def random_market(seed: int, n: int):
    """(sellers, costs, mu, sigma_l, sigma_cap) inside the optimizer domain."""
    rng = np.random.default_rng(seed)
    F = float(rng.uniform(5.0, 15.0))
    H = float(rng.uniform(0.3, 4.0))
    rho = float(rng.uniform(5.0, 20.0))
    costs = PlatformCosts(rho=rho, F=F, H=H,
                          delta_f=float(rng.uniform(0.0, 3.0)),
                          delta_h=float(rng.uniform(0.0, 3.0)),
                          r=F + rho + float(rng.uniform(10.0, 80.0)))
    sellers = tuple(
        Seller(h=float(rng.uniform(0.3, 3.0)),
               b=float(rng.uniform(H, 15.0)),
               f=float(rng.uniform(max(0.0, F - 3.0), F + 15.0)))
        for _ in range(n))
    mu = n * float(rng.uniform(1.0, 10.0))
    sigma_l = float(rng.uniform(0.1, 3.0)) / n
    unbounded = ref_sigma_participation_ub(sellers, costs, n, mu, math.inf)
    sigma_cap = 1e6 if rng.random() < 0.7 else max(0.7 * unbounded, 1e-3)
    return sellers, costs, mu, sigma_l, sigma_cap


markets = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 300))


@given(markets)
@settings(max_examples=60, deadline=None)
def test_table_rules_match_scalar_reference(market):
    seed, n = market
    sellers, costs, mu, _, sigma_cap = random_market(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = market_table(seller_columns(sellers), costs, mu)
        bps = table.breakpoints()
        assert bps == ref_breakpoints(sellers, costs, n, mu)
        ub = table.participation_ub(sigma_cap)
        assert ub == ref_sigma_participation_ub(sellers, costs, n, mu, sigma_cap)
        # every exit threshold would cost O(N^2) coefficient evaluations
        probes = [0.0, *np.linspace(0.0, 1.2 * max(ub, 1e-3), 7).tolist(),
                  *(s for s, _ in bps[::max(1, len(bps) // 8)])]
        for sigma in probes:
            for exclusive in (False, True):
                assert adopters(table, sigma, exclusive) == \
                    ref_adoption_set(sellers, costs, n, mu, sigma, exclusive)
        for sigma in [s for s in probes if s >= 0][-2:]:
            for params, chosen in zip(sellers[:10], table.adopts(sigma).tolist()):
                assert ("FBP" if chosen else "FBM") == \
                    ref_mode_choice(params, costs, n, mu, sigma)


@given(markets, st.lists(st.floats(0.0, 60.0), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_utilities_and_adoption_match_scalar_utility(market, sigmas):
    seed, n = market
    sellers, costs, mu, _, _ = random_market(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = market_table(seller_columns(sellers), costs, mu)
    masks = table.adopts(np.array(sigmas))
    for sigma, mask in zip(sigmas, masks):
        res = payoff(table, sigma)
        assert res.adopters == frozenset((np.flatnonzero(mask) + 1).tolist())
        chosen_utilities = []
        for params, chosen in zip(sellers, mask.tolist()):
            u_fbp = ref_seller_utility(params, costs, "FBP", mu / n, sigma)
            u_fbm = ref_seller_utility(params, costs, "FBM", mu / n, sigma)
            chosen_utilities.append(u_fbp if chosen else u_fbm)
            # the table decides within its boundary slack, 1e-9 of the
            # larger of the margin and inventory-cost differences
            terms = [ref_seller_utility(params, costs, mode, mu / n, s)
                     for mode in ("FBP", "FBM") for s in (0.0, sigma)]
            tol = 4e-9 * max(1.0, *map(abs, terms))
            if abs(u_fbp - u_fbm) > tol:
                assert chosen == (u_fbp > u_fbm)
        # the sum runs in another order than the reference's loop
        scale = 1e-12 * max(1.0, sum(map(abs, chosen_utilities)))
        assert abs(res.cumulative_utility
                   - ref_cumulative_utility(sellers, costs, n, mu, sigma)) <= scale


@given(markets, st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_curve_and_optimum_match_scalar_reference(market, grid_points):
    seed, n = market
    sellers, costs, mu, sigma_l, sigma_cap = random_market(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = market_table(seller_columns(sellers), costs, mu)
        ub = table.participation_ub(sigma_cap)
        grid = np.linspace(0.0, 1.1 * max(ub, 1e-3), grid_points)
        got = curve_points(payoff_curve(table, grid, ub))
        want = ref_payoff_curve(sellers, costs, n, mu, grid, sigma_cap=sigma_cap)
        assert [(p.sigma, p.side, p.n_adopters) for p in got] == \
            [(p.sigma, p.side, p.n_adopters) for p in want]
        for p, q in zip(got, want):
            assert close(p.payoff, q.payoff)
            assert close(p.gamma_fbp, q.gamma_fbp)
            assert close(p.gamma_fbm, q.gamma_fbm)
        for sigma in grid[:3].tolist():
            assert payoff(table, sigma).adopters == \
                ref_payoff(sigma, sellers, costs, n, mu).adopters

        if ub < sigma_l:
            return
        model = DemandModel(mu, TransferPoly([sigma_l * n]))
        sol = optimize(table, sigma_lower_bound(model, n), sigma_cap)
        ref = ref_optimize(sellers, costs, sol.sigma_lower, n, mu, sigma_cap)
    assert sol.sigma_star == ref.sigma_star
    assert sol.star.adopters == ref.star.adopters
    assert sol.breakpoints == ref.breakpoints
    assert (sol.sigma_lower, sol.sigma_upper) == (ref.sigma_lower, ref.sigma_upper)
    for key in ("total", "intermediation", "fulfillment_share", "storage_rent",
                "gamma_fbp", "gamma_fbm"):
        assert close(getattr(sol.star, key), getattr(ref.star, key))


def mixed_market(seed: int, n: int):
    """random_market's sellers and costs, with every third seller at h = H
    (dK = 0 exactly) and every third at h > H and f < F (dK < 0 and dF < 0:
    it enters platform fulfillment as sigma grows)."""
    sellers, costs, mu, _, _ = random_market(seed, n)
    rng = np.random.default_rng(seed)
    mixed = list(sellers)
    for i, p in enumerate(sellers):
        if i % 3 == 1:
            mixed[i] = Seller(h=costs.H, b=p.b, f=p.f)
        elif i % 3 == 2:
            mixed[i] = Seller(h=costs.H * float(rng.uniform(1.1, 3.0)), b=p.b,
                              f=costs.F * float(rng.uniform(0.0, 0.9)))
    return mixed, costs, mu


@given(markets, st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_sweep_matches_adoption_rule_point_by_point(market, grid_points):
    seed, n = market
    sellers, costs, mu = mixed_market(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        table = market_table(seller_columns(sellers), costs, mu)
    assert n < 2 or (table.dK == 0).any()
    assert n < 3 or ((table.dK < 0) & (table.fixed < 0)).any()
    # every switching point fixed / dK and its float neighbours
    moves = table.dK != 0
    switch = table.fixed[moves] / table.dK[moves]
    switch = switch[switch >= 0]
    sigma = np.sort(np.concatenate((
        switch, np.nextafter(switch, -np.inf), np.nextafter(switch, np.inf),
        np.linspace(0.0, 1.2 * switch.max(initial=1.0), grid_points))))
    zeta_scale = np.abs(table.zeta_fbp).sum() + np.abs(table.zeta_fbm).sum()
    for exclusive in (False, True):
        mask = table.adopts(sigma, exclusive)
        before = np.arange(sigma.size)[:, None] < table.switch_index(sigma,
                                                                     exclusive)
        assert np.array_equal(mask, np.where(table.dK > 0, before, ~before))
        n_adopters, zeta_fbp, zeta_fbm = _adopter_sums(table, sigma, exclusive)
        assert np.array_equal(n_adopters, mask.sum(axis=1))
        for got, want in ((zeta_fbp, np.where(mask, table.zeta_fbp, 0.0)),
                          (zeta_fbm, np.where(mask, 0.0, table.zeta_fbm))):
            assert np.all(np.abs(got - want.sum(axis=1)) <= 1e-12 * zeta_scale)


_TINY, _HUGE = 5e-324, 1.5e308
# costs at the edges of a fractile: subnormal (a tail underflows against a
# normal cost), huge (h + b overflows at two of them) and b/h past 2**54
# (the larger tail rounds to 1, the smaller one does not)
_EDGE_COSTS = st.one_of(st.floats(0.5, 20.0),
                        st.sampled_from([_TINY, 1e-310, 2.0 ** -60, _HUGE]))


@given(st.lists(st.builds(Seller, h=_EDGE_COSTS, b=_EDGE_COSTS,
                          f=st.just(20.0)), min_size=1, max_size=6),
       st.one_of(st.floats(0.5, 5.0), st.sampled_from([_TINY, 2.0 ** -60])))
@example([Seller(1.0, 2.0, 20.0)], 2.5)  # no fault
@example([Seller(1.0, 2.0 ** 55, 20.0)], 2.0 ** 55)  # b/h past 2**54
@example([Seller(_TINY, 9.0, 20.0)], 2.5)  # FBM, rounds to 1
@example([Seller(1.0, 2.0, 20.0), Seller(0.8, _TINY, 20.0)], 2.5)  # FBP, 0
@example([Seller(1.0, 12.0, 20.0)], _TINY)  # platform.H
@example([Seller(_HUGE, _HUGE, 20.0)], 2.5)  # h + b overflows
@example([Seller(1.0, _TINY, 20.0), Seller(_TINY, 9.0, 20.0)], 2.5)  # FBP, FBM
@example([Seller(1.0, _TINY, 20.0), Seller(1.0, 2.0, 20.0),
          Seller(1.0, _TINY, 20.0)], 2.5)  # two on the FBP side
@settings(max_examples=200, deadline=None)
def test_fractile_fault_is_named_as_by_the_one_at_a_time_scan(sellers, H):
    costs = PlatformCosts(rho=15.0, F=10.0, H=H, delta_f=2.0, delta_h=2.0,
                          r=100.0)
    want = ref_fractile_fault(sellers, costs)
    if want is None:
        market_table(seller_columns(sellers), costs, 15.0)
        return
    with pytest.raises(DomainError) as raised:
        market_table(seller_columns(sellers), costs, 15.0)
    assert str(raised.value) == want


def test_sweep_matches_adoption_rule_past_the_float_range():
    # sigma * dK overflows to inf from sigma = 1e8 on: an advantage of -inf
    # does not adopt, so adoption stays a prefix and the sweep agrees
    costs = PlatformCosts(rho=15.0, F=10.0, H=2e300, delta_f=2.0, delta_h=2.0,
                          r=100.0)
    table = market_table(SellerParams(h=[1e300, 1.0], b=[1e300, 3e300],
                                      f=[20.0, 12.0]), costs, 1e300)
    sigma = np.array([0.0, 1.0, 1e5, 1e8, 1e10, 1e300])
    for exclusive in (False, True):
        mask = table.adopts(sigma, exclusive)
        assert mask.tolist() == [[True, True], [True, False]] + [[False] * 2] * 4
        assert table.switch_index(sigma, exclusive).tolist() == [2, 1]
        assert np.array_equal(_adopter_sums(table, sigma, exclusive)[0],
                              mask.sum(axis=1))


def test_curve_and_optimize_memory_grows_with_points_plus_sellers():
    # 2,000 sellers and 2,848 curve points: one (points x sellers) float
    # array would take 43 MiB
    sellers, costs, mu, sigma_l, sigma_cap = random_market(1, 2000)
    table = market_table(seller_columns(sellers), costs, mu)
    ub = table.participation_ub(sigma_cap)
    tracemalloc.start()
    try:
        curve = payoff_curve(table, np.linspace(0.0, 1.1 * ub, 200), ub)
        optimize(table, sigma_l, sigma_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.sigma.size == 2848
    assert peak < 16 * 2**20


@pytest.fixture
def k_calls(monkeypatch):
    """Arguments of every K evaluation from here on: calls of
    seller.inventory_coefficient, which market_table runs per seller and
    mode."""
    import demandalloc.seller as seller
    calls = []
    original = seller.inventory_coefficient

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(seller, "inventory_coefficient", counted)
    return calls


def test_table_computes_each_coefficient_once(k_calls):
    table = market_table(seller_columns(SELLERS), COSTS, MU)
    assert len(k_calls) == 2 * N
    assert table.breakpoints() == ref_breakpoints(SELLERS, COSTS, N, MU)


@pytest.mark.parametrize("argv", [
    ["optimize"],
    ["curve", "--grid", "50"],
    ["simulate", "--sigma", "3", "--periods", "200"],
])
def test_each_command_builds_one_table(k_calls, tmp_path, capsys, argv):
    assert main([argv[0], "--scenario", str(SCENARIO),
                 "--out", str(tmp_path / "out"), *argv[1:]]) == 0
    assert len(k_calls) == 2 * N


@pytest.mark.parametrize("argv, masks", [
    (["optimize"], 2),
    (["simulate", "--sigma", "3", "--periods", "200"], 1),
])
def test_each_sigma_point_evaluates_one_mask(monkeypatch, tmp_path, capsys,
                                             argv, masks):
    # optimize reads the adoption mask at sigma* and at sigma_L, simulate
    # at its --sigma; everything printed at a point comes from that mask
    calls = []
    original = MarketTable.adopts

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MarketTable, "adopts", counted)
    assert main([argv[0], "--scenario", str(SCENARIO),
                 "--out", str(tmp_path / "out"), *argv[1:]]) == 0
    assert len(calls) == masks


@pytest.mark.parametrize("command, section, field, value, message", [
    ("optimize", "platform", "H", 0.5, "seller 1: platform holding cost"),
    ("curve", "platform", "H", 0.5, "seller 1: platform holding cost"),
    ("curve", "options", "sigma_cap", 5.0, "cap binds"),
])
def test_each_warning_is_raised_once(tmp_path, capsys, recwarn, command,
                                     section, field, value, message):
    doc = json.loads(SCENARIO.read_text())
    doc[section][field] = value
    path = tmp_path / "edited.scenario"
    path.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert sum(message in str(w.message) for w in recwarn) == 1


def test_curve_export_matches_golden(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--scenario", str(SCENARIO), "--grid", "200",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_CURVE.read_bytes()


def domain_violating_market(seed: int):
    """Storage rent drawn from U(-3, 3) and backorder costs from U(0.5, 15),
    so delta_h * zeta_FBP,n can be negative."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    F = float(rng.uniform(5.0, 15.0))
    hs = rng.uniform(0.5, 2.5, size=n)
    sellers = tuple(Seller(h=float(h), b=float(rng.uniform(0.5, 15.0)),
                           f=F + float(rng.uniform(0.5, 15.0)))
                    for h in hs)
    costs = PlatformCosts(rho=float(rng.uniform(5.0, 20.0)), F=F,
                          H=float(hs.max() + rng.uniform(0.1, 2.0)),
                          delta_f=float(rng.uniform(0.0, 3.0)),
                          delta_h=float(rng.uniform(-3.0, 3.0)),
                          r=float(F + rng.uniform(35.0, 80.0)))
    mu = n * float(rng.uniform(3.0, 10.0))
    model = DemandModel(mu, TransferPoly([float(rng.uniform(0.5, 3.0))]))
    return sellers, costs, model, n


class TestOptimizerDomain:
    def test_negative_storage_rent_is_rejected(self):
        # Seed 2: delta_h < 0, so the payoff falls between exits and its
        # supremum is a right limit that no candidate point attains.
        sellers, costs, model, n = domain_violating_market(2)
        assert costs.delta_h < 0
        sigma_l = abs(float(model.psi.coeffs[0])) / n
        ref = ref_optimize(sellers, costs, sigma_l, n, model.mu, 1e6)
        grid = np.linspace(ref.sigma_lower, ref.sigma_upper, 4001)
        best = max(ref_payoff(s, sellers, costs, n, model.mu).total
                   for s in grid.tolist())
        assert best > ref.star.total + 1.0
        table = market_table(seller_columns(sellers), costs, model.mu)
        with pytest.raises(DomainError, match=r"platform\.delta_h"):
            optimize(table, sigma_l, 1e6)
        # payoff and curve stay defined on such a market
        payoff(table, sigma_l)
        assert payoff_curve(table, grid[:5],
                            table.participation_ub(math.inf)).sigma.size

    def test_backorder_below_platform_holding_names_the_seller(self):
        sellers = SELLERS[:3] + (Seller(h=1.0, b=2.0, f=20.0),)
        model = DemandModel(MU, TransferPoly([5.0]))
        with pytest.raises(DomainError, match=r"sellers\[4\].*b = 2 < H = 2\.5"):
            optimize(market_table(seller_columns(sellers), COSTS, MU),
                     sigma_lower_bound(model, 4), 500.0)

    def test_zero_storage_rent_accepts_any_fractile(self):
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                              delta_h=0.0, r=100.0)
        sellers = SELLERS[:3] + (Seller(h=1.0, b=2.0, f=20.0),)
        model = DemandModel(MU, TransferPoly([5.0]))
        sol = optimize(market_table(seller_columns(sellers), costs, MU),
                       sigma_lower_bound(model, 4), 500.0)
        assert sol.sigma_star == pytest.approx(sol.sigma_lower)

    def test_cli_exit_code(self, tmp_path, capsys):
        doc = SCENARIO.read_text().replace('"delta_h": 2.0', '"delta_h": -1.0')
        path = tmp_path / "negative-rent.scenario"
        path.write_text(doc)
        assert main(["optimize", "--scenario", str(path)]) == EXIT_INPUT
        assert "platform.delta_h" in capsys.readouterr().err
