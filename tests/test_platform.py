"""Platform-side design: switching points, the piecewise-linear payoff,
the optimizer with its one-sided limits and winner pick, and curve
export."""
import io
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from demandalloc.cli import EXIT_OK, load_scenario, main
from oracles import curve_points, ref_first_best, seller_columns
from test_seller import COSTS, MU, N, SELLERS, TABLE

DATA = Path(__file__).resolve().parent / "data"
ENTRY_JUMP = DATA / "entry_jump.scenario"

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
        s = SellerParams(h=[2.5], b=[10.0], f=[20.0])
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                              delta_h=2.0, r=100.0)
        assert market_table(s, costs, MU).breakpoints() == []


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
                COSTS.delta_f * (MU / N) * len(res.adopters), rel=1e-12)

    def test_flat_when_platform_margins_vanish(self):
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=0.0,
                              delta_h=0.0, r=100.0)
        table = market_table(seller_columns(SELLERS), costs, MU)
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
        assert sol.star.total == pytest.approx(372.45, abs=0.05)
        assert sol.star.adopters == frozenset(range(1, 8))
        assert sol.star.gamma_fbp == pytest.approx(52.73, abs=0.05)
        assert sol.star.gamma_fbm == pytest.approx(28.12, abs=0.05)
        assert sol.sigma_lower == pytest.approx(0.5)
        assert sol.sigma_upper == pytest.approx(33.9568, abs=1e-3)

    def test_optimum_is_a_candidate_point(self):
        sol = self.solution
        candidates = {sol.sigma_lower, sol.sigma_upper}
        candidates.update(s for s, _ in sol.breakpoints)
        assert any(abs(sol.sigma_star - c) < 1e-12 for c in candidates)

    def test_breakdown_at_optimum(self):
        star = self.solution.star
        assert star.intermediation == pytest.approx(225.0)
        assert star.fulfillment_share == pytest.approx(21.0)
        assert star.storage_rent == pytest.approx(126.45, abs=0.05)

    def test_beats_dense_grid(self):
        grid = np.linspace(self.solution.sigma_lower,
                           self.solution.sigma_upper, 20_000)
        best = max(payoff(TABLE, float(s)).total for s in grid)
        assert self.solution.star.total >= best - 1e-9 * abs(best)

    def test_two_seller_market(self):
        sellers = SellerParams(h=[0.6, 2.0], b=[12.0, 12.0], f=[24.5, 12.5])
        model = DemandModel(10.0, TransferPoly([4.0]))
        table = market_table(sellers, COSTS, 10.0)
        sol = optimize(table, sigma_lower_bound(model, 2), 10_000.0)
        grid = np.linspace(sol.sigma_lower, sol.sigma_upper, 20_000)
        best = max(payoff(table, float(s)).total for s in grid)
        assert sol.star.total >= best - 1e-9 * abs(best)

    def test_zero_storage_rent_prefers_the_floor(self):
        costs = PlatformCosts(rho=15.0, F=10.0, H=2.5, delta_f=2.0,
                              delta_h=0.0, r=100.0)
        sol = optimize(market_table(seller_columns(SELLERS), costs, MU), SIGMA_L,
                       SIGMA_CAP)
        assert sol.sigma_star == pytest.approx(sol.sigma_lower)

    def test_empty_feasible_set(self):
        with pytest.warns(UserWarning, match="cap"):
            with pytest.raises(EmptyFeasibleSet):
                optimize(TABLE, SIGMA_L, sigma_cap=0.3)
        assert issubclass(EmptyFeasibleSet, ValueError)


class TestEntryJump:
    """Seller 1 of entry_jump.scenario enters (h > H and f < F) at
    sigma_e = 7.418922...; with delta_f = -20 the payoff drops there, so its
    supremum is the limit from below sigma_e, which no sigma attains.  The
    exits-only candidate rule returned sigma_L = 2.5 and -155.79."""

    def setup_method(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scenario = load_scenario(str(ENTRY_JUMP))
            table = market_table(scenario.sellers, scenario.costs,
                                 scenario.model.mu)
            self.solution = optimize(table, sigma_lower_bound(scenario.model, 2),
                                     scenario.sigma_cap)
            sigma_u = table.participation_ub(scenario.sigma_cap)
        # the rows of `curve --grid 400`
        grid = np.linspace(0.0, min(scenario.sigma_cap, 1.1 * sigma_u), 400)
        self.curve = payoff_curve(table, grid, sigma_u)

    def test_supremum_is_the_left_limit_at_the_entry(self):
        sol = self.solution
        assert sol.breakpoints[0][1] == 1
        assert sol.sigma_star == sol.breakpoints[0][0] == \
            pytest.approx(7.418922, abs=1e-6)
        assert sol.side == "left"
        assert sol.star.total == pytest.approx(-147.512, abs=1e-3)
        assert sol.star.adopters == {2}

    def test_beats_or_ties_every_curve_row(self):
        sol, curve = self.solution, self.curve
        inside = (sol.sigma_lower <= curve.sigma) & (curve.sigma <= sol.sigma_upper)
        inside &= ~((curve.side == 0) & (curve.sigma == sol.sigma_lower))
        inside &= ~((curve.side == 2) & (curve.sigma == sol.sigma_upper))
        assert sol.star.total >= curve.payoff[inside].max()
        assert sol.star.total > curve.payoff[inside & (curve.side == 1)].max()

    def test_document_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        with pytest.warns(UserWarning) as caught:
            assert main(["optimize", "--scenario", str(ENTRY_JUMP),
                         "--out", str(out)]) == EXIT_OK
        assert [str(w.message) for w in caught] == [
            "seller 1: platform fulfillment cost F=5 exceeds own cost f=4",
            "seller 1: platform holding cost H=1 below own cost h=3",
            "participation bound exceeds sigma_cap=50; cap binds"]
        assert out.read_bytes() == (DATA / "optimize_entry_jump.json").read_bytes()


_TOL = platform._PAYOFF_TIE_TOL
# totals a few multiples of 0.6 tie tolerances apart, so that each of many
# neighbours ties with some and not with others
_CHAINS = st.builds(
    lambda base, steps: (base + np.cumsum(steps) * (0.6 * _TOL)
                         * max(1.0, abs(base))).tolist(),
    st.floats(-1e3, 1e3), st.lists(st.integers(-2, 3), min_size=1, max_size=40))


@given(st.one_of(_CHAINS, st.lists(st.floats(), min_size=1, max_size=40)))
@example([1.0, 1.0 + 0.6 * _TOL, 1.0 + 1.2 * _TOL])
@example([float("nan"), 1.0, 2.0])
@example([-float("inf"), 1.0])
@settings(max_examples=300, deadline=None)
def test_winner_pick_matches_the_loop(totals):
    assert platform._first_best(np.array(totals)) == ref_first_best(totals)


def test_winner_pick_follows_the_chain():
    # 1 + 1.2 tol beats 1 by more than tol; 1 + 0.6 tol never took over
    assert platform._first_best(np.array([1.0, 1.0 + 0.6 * _TOL,
                                          1.0 + 1.2 * _TOL])) == 2


def cumulative_utility(sigma):
    """Sum over sellers of the chosen mode's operating payoff."""
    return payoff(TABLE, sigma).cumulative_utility


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
        self.curve = payoff_curve(TABLE, grid, TABLE.participation_ub(SIGMA_CAP))
        self.points = curve_points(self.curve)

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
        export_curve(self.curve, buf)
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
