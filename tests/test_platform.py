"""Platform-side design: exit breakpoints, the piecewise-linear payoff,
the candidate-point optimizer, and curve export."""
import io
import warnings

import numpy as np
import pytest

import demandalloc.platform as platform
from demandalloc import (
    DemandModel,
    EmptyFeasibleSet,
    PlatformCosts,
    SellerParams,
    TransferPoly,
    export_curve,
    market_table,
    optimize,
    payoff,
    payoff_curve,
    sigma_lower_bound,
    solution_document,
)
from test_seller import COSTS, MU, N, SELLERS, TABLE

MODEL = DemandModel(MU, TransferPoly([5.0]))
SIGMA_CAP = 500.0
SIGMA_L = sigma_lower_bound(MODEL, N)

# reference exit thresholds, in increasing order
REFERENCE_BREAKPOINTS = {
    10: 1.7373, 9: 5.0706, 8: 6.9000, 1: 8.8678, 3: 9.6606,
    2: 11.3538, 5: 11.4732, 4: 12.9909, 6: 14.1359, 7: 16.7024,
}
# one-sided payoff limits at four of the thresholds (left, right)
REFERENCE_CURVE_PAIRS = {
    1.7373: (315.49, 306.38),
    5.0706: (358.91, 342.88),
    6.9000: (368.09, 349.05),
    8.8678: (372.45, 349.70),
}


class TestBreakpoints:
    def test_reference_values_and_order(self):
        bps = TABLE.breakpoints()
        assert [seller for _, seller in bps] == [10, 9, 8, 1, 3, 2, 5, 4, 6, 7]
        for sigma, seller_idx in bps:
            assert sigma == pytest.approx(
                REFERENCE_BREAKPOINTS[seller_idx], abs=1e-3)

    def test_no_breakpoint_when_holding_advantage_vanishes(self):
        # H = h makes the two modes' inventory coefficients equal, so the
        # adoption margin never crosses zero in sigma
        s = SellerParams(h=2.5, b=10.0, f=20.0)
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                              delta_h=2.0, r=100.0)
        assert market_table([s], costs, MU).breakpoints() == []


class TestPayoff:
    def test_reference_levels(self):
        assert payoff(TABLE, 0.5).total == pytest.approx(293.78, abs=0.05)
        assert payoff(TABLE, 8.867803761159964).total == \
            pytest.approx(372.45, abs=0.05)

    def test_breakdown_identity(self):
        for sigma in (0.5, 3.0, 8.0, 12.0):
            res = payoff(TABLE, sigma)
            assert res.total == pytest.approx(
                res.intermediation + res.fulfillment_share + res.storage_rent,
                rel=1e-12)
            assert res.intermediation == COSTS.rho * MU
            assert res.fulfillment_share == pytest.approx(
                COSTS.delta_f * (MU / N) * res.n_adopters, rel=1e-12)

    def test_flat_when_platform_margins_vanish(self):
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=0.0,
                              delta_h=0.0, r=100.0)
        table = market_table(SELLERS, costs, MU)
        for s in (0.5, 2.0, 7.0, 12.0):
            assert payoff(table, s).total == pytest.approx(
                15.0 * MU, rel=1e-12)

    def test_safety_stock_totals(self):
        res = payoff(TABLE, 0.5)
        assert res.gamma_fbp == pytest.approx(4.39, abs=0.01)
        assert res.gamma_fbm == 0.0
        res = payoff(TABLE, 8.867803761159964)
        assert res.gamma_fbp == pytest.approx(52.73, abs=0.05)
        assert res.gamma_fbm == pytest.approx(28.12, abs=0.05)
        res = payoff(TABLE, 0.0)
        assert (res.gamma_fbp, res.gamma_fbm) == (0.0, 0.0)


class TestOptimize:
    def setup_method(self):
        self.solution = optimize(TABLE, SIGMA_L, SIGMA_CAP)

    def test_reference_solution(self):
        sol = self.solution
        assert sol.sigma_star == pytest.approx(8.8678, abs=1e-3)
        assert sol.payoff_star == pytest.approx(372.45, abs=0.05)
        assert sol.adopters == frozenset(range(1, 8))
        assert sol.gamma_fbp == pytest.approx(52.73, abs=0.05)
        assert sol.gamma_fbm == pytest.approx(28.12, abs=0.05)
        assert sol.sigma_lower == pytest.approx(0.5)
        assert sol.sigma_upper == pytest.approx(33.9568, abs=1e-3)

    def test_optimum_is_a_candidate_point(self):
        sol = self.solution
        candidates = {sol.sigma_lower, sol.sigma_upper}
        candidates.update(s for s, _ in sol.breakpoints)
        assert any(abs(sol.sigma_star - c) < 1e-12 for c in candidates)

    def test_breakdown_at_optimum(self):
        bd = self.solution.payoff_breakdown
        assert bd["intermediation"] == pytest.approx(225.0)
        assert bd["fulfillment_share"] == pytest.approx(21.0)
        assert bd["storage_rent"] == pytest.approx(126.45, abs=0.05)

    def test_beats_dense_grid(self):
        grid = np.linspace(self.solution.sigma_lower,
                           self.solution.sigma_upper, 20_000)
        best = max(payoff(TABLE, float(s)).total for s in grid)
        assert self.solution.payoff_star >= best - 1e-9 * abs(best)

    def test_two_seller_market(self):
        sellers = (SellerParams(0.6, 12.0, 24.5), SellerParams(2.0, 12.0, 12.5))
        model = DemandModel(10.0, TransferPoly([4.0]))
        table = market_table(sellers, COSTS, 10.0)
        sol = optimize(table, sigma_lower_bound(model, 2), 10_000.0)
        grid = np.linspace(sol.sigma_lower, sol.sigma_upper, 20_000)
        best = max(payoff(table, float(s)).total for s in grid)
        assert sol.payoff_star >= best - 1e-9 * abs(best)

    def test_zero_storage_rent_prefers_the_floor(self):
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                              delta_h=0.0, r=100.0)
        sol = optimize(market_table(SELLERS, costs, MU), SIGMA_L, SIGMA_CAP)
        assert sol.sigma_star == pytest.approx(sol.sigma_lower)

    def test_empty_feasible_set(self):
        with pytest.warns(UserWarning, match="cap"):
            with pytest.raises(EmptyFeasibleSet):
                optimize(TABLE, SIGMA_L, sigma_cap=0.3)
        assert issubclass(EmptyFeasibleSet, ValueError)


def cumulative_utility(sigma):
    """Sum over sellers of the chosen mode's operating payoff."""
    return float(TABLE.utilities(sigma)[1].sum())


class TestCumulativeUtility:
    def test_reference_values(self):
        assert cumulative_utility(0.5) == pytest.approx(1107.14, abs=0.1)
        assert cumulative_utility(8.867803761159964) == pytest.approx(
            814.47, abs=0.1)

    def test_decreasing_in_sigma(self):
        values = [cumulative_utility(s) for s in np.linspace(0.5, 16.0, 25)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestPayoffCurve:
    def setup_method(self):
        grid = np.linspace(0.0, 1.1 * 33.95678202429589, 300)
        self.points = payoff_curve(TABLE, grid, TABLE.participation_ub(SIGMA_CAP))

    def test_sorted_and_sided(self):
        sigmas = [p.sigma for p in self.points]
        assert sigmas == sorted(sigmas)
        assert {p.side for p in self.points} == {"left", "right", "interior"}

    def test_one_sided_reference_pairs(self):
        for sigma_ref, (left_ref, right_ref) in REFERENCE_CURVE_PAIRS.items():
            left = [p for p in self.points
                    if p.side == "left" and abs(p.sigma - sigma_ref) < 1e-3]
            right = [p for p in self.points
                     if p.side == "right" and abs(p.sigma - sigma_ref) < 1e-3]
            assert len(left) == 1 and len(right) == 1
            assert left[0].payoff == pytest.approx(left_ref, abs=0.01)
            assert right[0].payoff == pytest.approx(right_ref, abs=0.01)

    def test_every_breakpoint_jumps_down(self):
        bps = {s for s, _ in TABLE.breakpoints()}
        for sigma in bps:
            left = next(p for p in self.points
                        if p.side == "left" and abs(p.sigma - sigma) < 1e-12)
            right = next(p for p in self.points
                         if p.side == "right" and abs(p.sigma - sigma) < 1e-12)
            assert right.payoff < left.payoff
            assert right.n_adopters == left.n_adopters - 1

    def test_interior_points_collinear_within_segments(self):
        # group interior points between consecutive discontinuities and
        # check each triple against the segment chord
        segments = []
        current = []
        for p in self.points:
            if p.side == "left":
                current.append(p)
                segments.append(current)
                current = []
            elif p.side == "right":
                current = [p]
            else:
                current.append(p)
        segments.append(current)
        checked = 0
        for seg in segments:
            if len(seg) < 3:
                continue
            a, b = seg[0], seg[-1]
            span = b.sigma - a.sigma
            for q in seg[1:-1]:
                fitted = a.payoff + (b.payoff - a.payoff) * (q.sigma - a.sigma) / span
                assert abs(q.payoff - fitted) <= 1e-9 * max(1.0, abs(fitted))
                checked += 1
        assert checked > 50

    def test_zero_payoff_past_participation_bound(self):
        beyond = [p for p in self.points if p.sigma > 33.96]
        assert beyond
        assert all(p.payoff == 0.0 and p.n_adopters == 0 for p in beyond)

    def test_adopter_count_at_ten(self):
        at_ten = [p for p in self.points if abs(p.sigma - 10.0) < 0.15]
        assert at_ten
        assert all(p.n_adopters == 5 for p in at_ten)

    def test_export_header(self):
        buf = io.StringIO()
        export_curve(self.points, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "sigma,payoff,n_adopters,gamma_fbp,gamma_fbm,side"
        assert len(lines) == len(self.points) + 1


class TestSolutionDocument:
    def test_headline_table(self):
        doc = solution_document(optimize(TABLE, SIGMA_L, SIGMA_CAP), TABLE)
        assert doc["sigma_star"] == pytest.approx(8.8678, abs=1e-3)
        assert doc["payoff_star"] == pytest.approx(372.45, abs=0.05)
        assert doc["adopters"] == [1, 2, 3, 4, 5, 6, 7]
        assert doc["cumulative_utility"] == pytest.approx(814.47, abs=0.1)
        floor = doc["at_sigma_lower"]
        assert floor["payoff"] == pytest.approx(293.78, abs=0.05)
        assert floor["adopters"] == list(range(1, 11))
        assert floor["gamma_fbp"] == pytest.approx(4.39, abs=0.01)
        assert floor["cumulative_utility"] == pytest.approx(1107.14, abs=0.1)
        assert len(doc["breakpoints"]) == 10
