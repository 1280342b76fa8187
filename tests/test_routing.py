"""Online order routing: policy-derived offsets, the greedy rule's one-unit
tracking guarantee, and path-level exports."""
import io
import os
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from demandalloc import (
    AllocationPolicy,
    DemandModel,
    TransferPoly,
    benchmark_offsets,
    export_assignment_log,
    integerize_demand,
    neutral_policy,
    route_orders,
    route_path,
    simulate,
    uniform_policy,
)
from demandalloc.cli import load_scenario, main
from demandalloc.csvtext import BLOCK_CELLS
from demandalloc.routing import _replay, _TIE_TOL

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (benchmark_targets, greedy_replay_ok,  # noqa: E402
                     lagged_variant, ref_merge, ref_route_orders)

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
MU = 15.0
SIGMA_L = 0.5


def design(N, sigma, sigma_l=SIGMA_L, mu=MU):
    """Demand model with floor sigma_l for N sellers and its neutral design
    at sigma, so alpha = sigma / sigma_l."""
    model = DemandModel(mu, TransferPoly([N * sigma_l]))
    return model, neutral_policy(model, N, sigma)


def period_offsets(N, sigma, d_prev, d_prev2, sigma_l=SIGMA_L):
    """Offsets of the neutral design for a period whose last two demands
    were d_prev and d_prev2."""
    model, pol = design(N, sigma, sigma_l)
    return benchmark_offsets(pol, model, [d_prev2, d_prev, MU])[-1]


def path_of(demands):
    return np.asarray(demands, dtype=float)


def relabelled_policy(policy, perm):
    """policy with its roles relabelled: seller s takes the transfer at
    place perm.index(s), for perm a rearrangement of 1..N."""
    perm = [int(p) for p in perm]
    return AllocationPolicy(policy.transfers[
        [perm.index(s) for s in range(1, policy.n_sellers + 1)]])


def replayed(res, block=BLOCK_CELLS // 4):
    """(log, taken) of a routing, replayed in the log writer's blocks of
    about block orders: the 1-based seller of every routed order, period by
    period in assignment sequence, and its count for that seller after it."""
    blocks = list(_replay(res, block)) or [[np.zeros(0, dtype=np.int64)] * 4]
    return tuple(np.concatenate([b[i] for b in blocks]) for i in (2, 3))


def period_logs(res):
    """The flat routing log cut into each period's orders."""
    return np.split(replayed(res)[0], np.cumsum(res.counts.sum(axis=1))[:-1])


def seed_ranks(seed, T, N):
    """The per-period tie ranking that route_orders draws from seed."""
    return np.random.default_rng(seed).random((T, N)).argsort(axis=1)


class TestComputeOffsets:
    def test_centered_history_is_neutral(self):
        np.testing.assert_allclose(period_offsets(4, 1.0, MU, MU), np.zeros(4))

    def test_two_sellers(self):
        np.testing.assert_allclose(period_offsets(2, 1.0, MU + 1.0, MU), [-1.0, 1.0])

    def test_three_sellers_two_lags(self):
        np.testing.assert_allclose(period_offsets(3, 1.5, MU + 1.0, MU - 1.0),
                                   [0.0, 1.0, -1.0])

    def test_single_seller_has_no_offset(self):
        np.testing.assert_array_equal(
            period_offsets(1, SIGMA_L, MU + 7.0, MU - 3.0), [0.0])

    def test_offsets_sum_to_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            N = int(rng.integers(1, 11))
            sigma = SIGMA_L * rng.uniform(1.0, 8.0)
            d1 = MU + rng.normal(0, 5)
            d2 = MU + rng.normal(0, 5)
            if N == 1:
                sigma = SIGMA_L  # one seller has only the floor design
            assert abs(period_offsets(N, sigma, d1, d2).sum()) < 1e-9

    def test_rejects_bad_dispersion(self):
        with pytest.raises(ValueError):
            period_offsets(2, 0.2, MU, MU)
        with pytest.raises(ValueError):
            period_offsets(2, 1.0, MU, MU, sigma_l=0.0)

    def test_uniform_design_has_exact_zeros(self):
        # read from the lag coefficients, not as allocation minus D_t/N, so
        # the log never prints -0.000000 for the uniform split
        model = DemandModel(MU, TransferPoly([5.0]))
        b = benchmark_offsets(uniform_policy(4), model, [3.0, 29.0, 17.0])
        assert b.shape == (3, 4)
        assert np.all(b == 0.0) and not np.any(np.signbit(b))

    def test_lags_before_the_path_sit_at_the_mean(self):
        model = DemandModel(MU, TransferPoly([1.0]))
        pol = lagged_variant(model, 2, 1.0, 3)  # T_n = 1 -+ 2 z^3
        b = benchmark_offsets(pol, model, [MU + 4.0, MU, MU, MU, MU - 2.0])
        np.testing.assert_array_equal(b[:3], np.zeros((3, 2)))
        np.testing.assert_allclose(b[3], [-4.0, 4.0])
        np.testing.assert_allclose(b[4], [0.0, 0.0])


class TestRouteOrders:
    def test_uniform_split(self):
        res = route_orders(np.zeros((1, 4)), [8], seed=3)
        np.testing.assert_array_equal(res.counts[0], [2, 2, 2, 2])
        assert res.max_discrepancy == 0.0

    @pytest.mark.parametrize("count", [2.7, -0.5, float("nan"), float("inf"), 1e19])
    def test_counts_must_be_whole(self, count):
        # a cast would route 2 of 2.7 orders, or wrap 1e19 to -2**63
        with pytest.raises(ValueError, match=r"period 1 is .*, not a whole order"):
            route_orders(np.zeros((2, 2)), [4, count], seed=0)

    def test_integral_float_counts_are_accepted(self):
        res = route_orders(np.zeros((2, 2)), [4.0, 3.0], seed=0)
        assert res.counts.sum(axis=1).tolist() == [4, 3]

    def test_two_seller_offsets_exact(self):
        # offsets (-1, +1): the alternating walk lands on the targets for
        # any tie resolution
        off = period_offsets(2, 1.0, MU + 1.0, MU)
        for seed in range(8):
            res = route_orders(off[None], [10], seed=seed)
            np.testing.assert_array_equal(res.counts[0], [4, 6])
            assert res.max_discrepancy == 0.0

    def test_conservation_and_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            N = int(rng.integers(2, 9))
            D = int(rng.integers(0, 60))
            b = rng.normal(0, D / (3.0 * N) + 0.1, size=N)
            b -= b.mean()
            lo = float((D / N + b).min())
            if lo < 0:
                b -= lo  # shift inside the feasible region
                b -= b.mean()
                if float((D / N + b).min()) < 0:
                    continue
            res = route_orders(b[None], [D], seed=int(rng.integers(1 << 30)))
            assert int(res.counts[0].sum()) == D
            assert res.max_discrepancy <= 1.0 + 1e-9

    def test_step_invariant_along_the_walk(self):
        # mid-period, the most overshot seller is never more than one order
        # above the least (or above level, before anyone overshoots)
        rng = np.random.default_rng(23)
        for _ in range(200):
            N = int(rng.integers(2, 7))
            D = int(rng.integers(1, 50))
            b = rng.normal(0, 2.0, size=N)
            b -= b.mean()
            targets = D / N + b
            if targets.min() < 0:
                continue
            res = route_orders(b[None], [D], seed=int(rng.integers(1 << 30)))
            counts = np.zeros(N)
            for chosen in replayed(res)[0]:
                counts[chosen - 1] += 1
                delta = counts - targets
                assert delta.max() <= max(0.0, delta.min() + 1.0) + 1e-9

    def test_replay_confirms_greedy_choices(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            N = int(rng.integers(2, 7))
            D = int(rng.integers(1, 40))
            b = rng.normal(0, 1.0, size=N)
            b -= b.mean()
            if (D / N + b).min() < 0:
                continue
            res = route_orders(b[None], [D], seed=int(rng.integers(1 << 30)))
            assert greedy_replay_ok(b, replayed(res)[0])

    def test_deterministic_per_seed(self):
        off = period_offsets(5, 2.0, MU + 2.0, MU - 1.0)
        a = route_orders(off[None], [30], seed=12)
        b = route_orders(off[None], [30], seed=12)
        np.testing.assert_array_equal(replayed(a)[0], replayed(b)[0])

    def test_seeds_break_ties_differently(self):
        # all-zero offsets tie constantly; some pair of seeds must disagree
        off = np.zeros((1, 4))
        logs = {tuple(replayed(route_orders(off, [12], seed=s))[0])
                for s in range(6)}
        assert len(logs) > 1

    def test_ties_follow_the_seeds_ranking(self):
        # all four sellers tie before each round, so each round is the
        # period's ranking, lowest rank first
        for seed in range(12):
            res = route_orders(np.zeros((1, 4)), [8], seed=seed)
            ranked = np.argsort(seed_ranks(seed, 1, 4)[0]) + 1
            np.testing.assert_array_equal(replayed(res)[0], np.tile(ranked, 2))

    def test_infeasible_targets_name_sellers(self):
        # alpha = 8: one order above the mean in period 16 gives period 17
        # offsets (-8, +8), and with 6 orders seller 1's target is negative
        model, pol = design(2, 4.0)
        demands = [MU] * 16 + [MU + 2.0, 6.0]
        res = route_path(pol, model, path_of(demands), seed=0)
        assert res.infeasible_periods == [17] and not res.counts[17].any()
        assert (np.flatnonzero(res.targets[17] < 0) + 1).tolist() == [1]
        res = route_orders([[-8.0, 8.0]], [6], seed=0)
        assert res.infeasible_periods == [0] and not res.counts[0].any()
        assert (np.flatnonzero(res.targets[0] < 0) + 1).tolist() == [1]

    def test_offsets_must_sum_to_zero(self):
        with pytest.raises(ValueError, match="sum to zero"):
            route_orders([[1.0, 0.5]], [4], seed=0)

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            route_orders(np.zeros((1, 2)), [-1], seed=0)

    OFFSETS_FAULT = "offsets must be a finite (T x N) array with N >= 1"

    @pytest.mark.parametrize("offsets, demand, message", [
        (np.zeros((3, 0)), [1, 2, 3], OFFSETS_FAULT),
        (np.zeros(3), [3], OFFSETS_FAULT),
        (np.zeros(()), [3], OFFSETS_FAULT),
        ([[np.nan, 0.0]], [4], OFFSETS_FAULT),
        ([[np.inf, -np.inf]], [4], OFFSETS_FAULT),
        ([[0.0, 0.0], [np.inf, 0.0]], [4, 4], OFFSETS_FAULT),
        (np.zeros((2, 2)), [4, 4, 4], "demand must hold T = 2 order counts, "
                                      "got shape (3,)"),
        (np.zeros((2, 2)), [4], "demand must hold T = 2 order counts, got shape (1,)"),
        (np.zeros((1, 2)), 4, "demand must hold T = 1 order counts, got shape ()"),
        (np.zeros((1, 2)), [[4]], "demand must hold T = 1 order counts, "
                                  "got shape (1, 1)"),
    ], ids=["no-sellers", "1-d", "0-d", "nan", "inf", "inf-later", "long-demand",
            "short-demand", "scalar-demand", "2-d-demand"])
    def test_malformed_inputs_are_named(self, offsets, demand, message):
        # the check comes before any arithmetic, so no numpy warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc_info:
                route_orders(offsets, demand, seed=0)
        assert str(exc_info.value) == message


class TestRoutePath:
    def setup_method(self):
        self.model = DemandModel(MU, TransferPoly([5.0]))
        self.path = simulate(self.model, 400, 2)
        # high mean relative to swing keeps every period's targets feasible
        self.calm_model = DemandModel(50.0, TransferPoly([5.0]))
        self.calm_path = simulate(self.calm_model, 400, 2)

    def test_tracks_everywhere_when_feasible(self):
        pol = neutral_policy(self.calm_model, 4, 5.0 / 4)
        res = route_path(pol, self.calm_model, self.calm_path, seed=5)
        assert res.infeasible_periods == []
        assert res.max_discrepancy <= 1.0 + 1e-9
        total = integerize_demand(self.calm_path).sum()
        assert int(res.counts.sum()) == int(total)
        np.testing.assert_allclose(res.cumulative_shares.sum(), 1.0, atol=1e-12)

    def test_single_seller_takes_everything(self):
        pol = neutral_policy(self.model, 1, 5.0)
        res = route_path(pol, self.model, self.path, seed=5)
        assert int(res.counts.sum(axis=0)[0]) == int(integerize_demand(self.path).sum())

    def test_skip_mode_records_infeasible_periods(self):
        # at sigma = 6 sigma_L the offsets regularly push targets negative
        pol = neutral_policy(self.model, 10, 3.0)
        res = route_path(pol, self.model, self.path, seed=5)
        skipped = res.infeasible_periods
        assert len(skipped) > 0
        assert skipped == np.flatnonzero(~res.routed).tolist()
        assert not res.counts[skipped].any()
        demand = integerize_demand(self.path)
        np.testing.assert_array_equal(res.counts.sum(axis=1),
                                      np.where(res.routed, demand, 0))
        assert replayed(res)[0].size == int(demand[res.routed].sum())
        assert res.max_discrepancy <= 1.0 + 1e-9

    def test_deterministic_per_seed(self):
        pol = neutral_policy(self.calm_model, 3, 2.0)
        a = route_path(pol, self.calm_model, self.calm_path, seed=11)
        b = route_path(pol, self.calm_model, self.calm_path, seed=11)
        np.testing.assert_array_equal(a.counts.sum(axis=0), b.counts.sum(axis=0))

    def test_integerize_demand_is_nonnegative(self):
        tight = DemandModel(4.0, TransferPoly([4.0]))
        with pytest.warns(UserWarning):
            path = simulate(tight, 2000, 0)
        ints = integerize_demand(path)
        assert ints.min() >= 0
        assert ints.dtype == np.int64

    @pytest.mark.parametrize("demand", [1e19, 2.0 ** 63, 1e300, float("inf")])
    def test_integerize_demand_refuses_int64_overflow(self, demand):
        path = np.array([3.0, -1e300, demand])
        with pytest.raises(ValueError, match=r"period 2 is .*below 2\*\*63"):
            integerize_demand(path)
        ok = np.array([3.0, -1e300, 2.0 ** 63 - 1024])
        assert integerize_demand(ok).tolist() == [3, 0, 2 ** 63 - 1024]


def exported(res):
    buf = io.StringIO(newline="")
    export_assignment_log(res, buf)
    return buf.getvalue()


class TestExport:
    def test_header_and_row_count(self):
        model = DemandModel(MU, TransferPoly([5.0]))
        path = simulate(model, 50, 6)
        design_model, pol = design(3, 1.0)
        res = route_path(pol, design_model, path, seed=9)
        lines = exported(res).strip().splitlines()
        assert lines[0] == "period,order,seller,adj"
        assert not res.routed.all() and not res.counts[~res.routed].any()
        assert replayed(res)[0].size == int(res.counts.sum())
        assert len(lines) == res.counts.sum() + 1
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_snapshot_reconstructs_final_counts(self):
        # the last adj of each (period, seller) is counts - b; sellers
        # without an order in a period have no row and a zero count
        model = DemandModel(MU, TransferPoly([5.0]))
        path = simulate(model, 20, 6)
        design_model, pol = design(2, 1.0)
        res = route_path(pol, design_model, path, seed=9)
        lines = exported(res).strip().splitlines()[1:]
        # orders within a period are logged in assignment sequence
        last = {}
        for line in lines:
            t, _, seller, adj = line.split(",")
            last[int(t), int(seller)] = float(adj)
        assert sorted({t for t, _ in last}) == np.flatnonzero(
            res.routed & (res.counts.sum(axis=1) > 0)).tolist()
        for t in range(res.counts.shape[0]):
            counts, targets = res.counts[t], res.targets[t]
            b = targets - float(counts.sum()) / counts.size
            for n in range(1, counts.size + 1):
                if (t, n) in last:
                    assert last[t, n] == pytest.approx(counts[n - 1] - b[n - 1],
                                                       abs=5e-6)
                else:
                    assert counts[n - 1] == 0

    def test_unrouted_paths_write_the_header_alone(self):
        # every period skips: seller 2's target is -5 in each
        skipped = route_orders(np.tile([5.0, -5.0], (6, 1)), np.zeros(6), seed=1)
        assert not skipped.routed.any()
        assert exported(skipped) == "period,order,seller,adj\r\n"
        # zero demand under the uniform split: every period routes no order
        zero = route_path(uniform_policy(3), DemandModel(MU, TransferPoly([5.0])),
                          np.zeros(8), seed=1)
        assert zero.routed.all() and replayed(zero)[0].size == 0
        assert exported(zero) == "period,order,seller,adj\r\n"

    def test_log_size_is_linear_in_orders(self, tmp_path, capsys):
        # an N-column snapshot took about 100 B a row at N = 10 and 10 kB at
        # N = 1000; one adjusted count per row keeps both near 20 B
        bytes_per_row = []
        for scenario in (ROOT / "scenarios" / "illustrative.scenario",
                         DATA / "wide_n1000.scenario"):
            out = tmp_path / "route.csv"
            assert main(["route", "--scenario", str(scenario), "--sigma", "1",
                         "--periods", "5", "--seed", "4", "--out", str(out)]) == 0
            capsys.readouterr()
            data = out.read_bytes()
            rows = data.count(b"\n") - 1
            assert rows > 0
            bytes_per_row.append(len(data) / rows)
        narrow, wide = bytes_per_row
        assert wide <= 1.5 * narrow

    @pytest.mark.parametrize("golden, mu, psi, N, sigma, periods", [
        # the reference scenario's market; most periods at sigma 3 skip
        ("route_reference_sigma3_T300_seed4.csv", 15.0, [5.0], 10, 3.0, 300),
        # odd N under MA(2) demand: two-lag offsets, no exact zero offsets
        ("route_ma2_n11_sigma0.7_T60_seed4.csv", 40.0, [5.0, 2.0, 1.0],
         11, 0.7, 60),
    ])
    def test_log_matches_golden(self, golden, mu, psi, N, sigma, periods):
        model = DemandModel(mu, TransferPoly(psi))
        path = simulate(model, periods, 4)
        res = route_path(neutral_policy(model, N, sigma), model, path, 4)
        assert exported(res).encode() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("golden, scenario, sigma, periods", [
        ("route_reference_sigma3_T300_seed4.csv",
         ROOT / "scenarios" / "illustrative.scenario", "3", "300"),
        ("route_ma2_n11_sigma0.7_T60_seed4.csv", DATA / "ma2_n11.scenario",
         "0.7", "60"),
    ])
    def test_route_command_writes_golden(self, golden, scenario, sigma, periods,
                                         tmp_path, capsys):
        out = tmp_path / "route.csv"
        assert main(["route", "--scenario", str(scenario), "--sigma", sigma,
                     "--periods", periods, "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / golden).read_bytes()


@st.composite
def routed_designs(draw):
    """(policy, model) over the neutral even and odd designs, lagged variants
    with k in {1, 2, 3}, permuted neutral designs and a custom policy
    with up to three lags."""
    kind = draw(st.sampled_from(["neutral", "lagged", "permuted", "custom"]))
    mu = draw(st.floats(5.0, 40.0))
    model = DemandModel(mu, TransferPoly([draw(st.floats(0.5, 10.0))]))
    if kind == "lagged":
        N = draw(st.sampled_from([2, 4, 6]))
    else:
        N = draw(st.integers(2, 7))
    sigma = abs(float(model.psi.coeffs[0])) / N * draw(st.floats(1.0, 4.0))
    if kind == "neutral":
        return neutral_policy(model, N, sigma), model
    if kind == "lagged":
        return lagged_variant(model, N, sigma, draw(st.integers(1, 3))), model
    if kind == "permuted":
        perm = draw(st.permutations(range(1, N + 1)))
        return relabelled_policy(neutral_policy(model, N, sigma), perm), model
    lags = draw(st.integers(1, 3))
    coeff = st.floats(-3.0, 3.0)
    rows = [[1.0] + [draw(coeff) for _ in range(lags)] for _ in range(N - 1)]
    rows.append([1.0] + [-sum(r[k] for r in rows) for k in range(1, lags + 1)])
    return AllocationPolicy(rows), model


class TestPolicyTracking:
    @given(routed_designs(), st.lists(st.integers(0, 80), min_size=1, max_size=25),
           st.integers(0, 2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_routes_track_the_policy_targets(self, pol_model, demand, seed):
        pol, model = pol_model
        res = route_path(pol, model, path_of(demand), seed)
        targets = benchmark_targets(pol.transfers.tolist(), model.mu,
                                    [float(d) for d in demand])
        logs = period_logs(res)
        for t, row in enumerate(targets):
            tol = 1e-12 * max(1.0, max(abs(x) for x in row))
            negative = any(x < -tol for x in row)
            assert (t in res.infeasible_periods) == negative
            assert bool(res.routed[t]) != negative
            if negative:
                assert not res.counts[t].any() and logs[t].size == 0
                continue
            assert int(res.counts[t].sum()) == demand[t]
            assert logs[t].size == demand[t]
            assert max(abs(c - x) for c, x in zip(res.counts[t], row)) <= 1.0 + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(routed_designs(), st.lists(st.integers(0, 80), min_size=1, max_size=25),
           st.integers(0, 2 ** 32))
    def test_log_shows_the_greedy(self, pol_model, demand, seed):
        # adj - 1 is the key the greedy took, and the greedy takes keys in
        # order, so within a period adj never falls below an earlier adj by
        # more than the log's rounding
        pol, model = pol_model
        res = route_path(pol, model, path_of(demand), seed)
        top = {}
        for line in exported(res).split("\r\n")[1:-1]:
            t, _, _, adj = line.split(",")
            adj = float(adj)
            assert adj >= top.get(t, -np.inf) - 1e-6
            top[t] = max(top.get(t, -np.inf), adj)


@st.composite
def one_routed_period(draw, N):
    """(offsets, D_t) of one period with N sellers and nonnegative targets.
    Offsets are random, all zero, near-tied or chain-tied: pairs +-c with
    2c an integer, so keys of different sellers meet exactly, each moved by
    a few ulps (near-tied) or by a few steps of 0.6e-12 (chain-tied), so
    that keys a tie apart can chain past the tie reach of the smallest."""
    kind = draw(st.sampled_from(["random", "near-ties", "chains", "zero"]))
    if kind == "zero":
        b = np.zeros(N)
    elif kind == "random":
        b = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=N, max_size=N)))
        b -= b.mean()
    else:
        halves = draw(st.lists(st.integers(0, 8), min_size=N // 2, max_size=N // 2))
        b = np.array([h / 2 for h in halves] + [-h / 2 for h in halves]
                     + [0.0] * (N % 2))
        b = b[draw(st.permutations(range(N)))]
        steps = np.array(draw(st.lists(st.integers(-4, 4), min_size=N, max_size=N)))
        if kind == "near-ties":
            b = b + steps * np.spacing(np.maximum(1.0, np.abs(b)))
        else:
            b = b + steps * 0.6e-12
    floor = int(np.ceil(N * max(0.0, -float(b.min()))))
    D = floor + draw(st.integers(0, 40))
    targets = D / N + b
    assume(not np.any(targets < -1e-12 * max(1.0, float(np.abs(targets).max()))))
    return b, D


@st.composite
def routed_periods(draw):
    """(offsets, demand) of 1 to 6 periods for one N, each period drawn by
    one_routed_period, so the merge meets every kind of offsets on both
    sides of a period boundary."""
    N = draw(st.integers(1, 8))
    periods = draw(st.lists(one_routed_period(N), min_size=1, max_size=6))
    return (np.array([b for b, _ in periods]),
            np.array([D for _, D in periods]))


# Keys in sorted order a, b, c: b is a tie above a, c a tie above b but
# more than a tie above a.  The greedy's tie set follows the smallest key
# still unassigned.
CHAIN = [-0.3333333333336667, -0.33333333333266674, 0.6666666666663332]


def long_path(seed):
    """70,000 periods of 3 orders over two sellers with offsets +-b, b a
    seeded draw of whole and half units, so keys tie across sellers; every
    100th period has b = 2, a target of -0.5, and is skipped."""
    b = np.random.default_rng(seed).choice(
        [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5], 70000)
    b[::100] = 2.0
    return np.column_stack([b, -b]), np.full(70000, 3)


@st.composite
def merge_paths(draw):
    """(offsets, demand) of a path whose keys tie across sellers: a neutral
    design with N >= 3, whose sellers of one sign share an offset column,
    so their keys meet exactly; periods of the CHAIN near-ties; or a
    long_path, whose 69,300 routed periods need a second 16-bit radix
    digit of the period index."""
    kind = draw(st.sampled_from(["neutral", "chain", "long"]))
    if kind == "neutral":
        N = draw(st.integers(3, 8))
        model = DemandModel(draw(st.floats(5.0, 40.0)),
                            TransferPoly([draw(st.floats(0.5, 10.0))]))
        sigma = abs(float(model.psi.coeffs[0])) / N * draw(st.floats(1.0, 4.0))
        demand = np.array(draw(st.lists(st.integers(0, 80), min_size=1,
                                        max_size=30)))
        pol = neutral_policy(model, N, sigma)
        return benchmark_offsets(pol, model, demand.astype(float)), demand
    if kind == "chain":
        periods = draw(st.lists(st.tuples(st.permutations(range(3)),
                                          st.integers(1, 40)),
                                min_size=1, max_size=12))
        return (np.array(CHAIN)[[list(perm) for perm, _ in periods]],
                np.array([D for _, D in periods]))
    return long_path(draw(st.integers(0, 2 ** 32)))


class TestMergeAgainstOracle:
    @given(routed_periods(), st.integers(0, 2 ** 32))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_order_greedy(self, periods, seed):
        b, D = periods
        res = route_orders(b, D, seed)
        assert res.routed.all()
        ranks = seed_ranks(seed, *b.shape)
        for t, period_log in enumerate(period_logs(res)):
            log, counts = ref_route_orders(b[t], int(D[t]), ranks[t])
            assert period_log.tolist() == log
            assert res.counts[t].tolist() == counts

    @pytest.mark.parametrize("perm, D, expected", [
        ((0, 1, 2), 2, [3, 1]), ((1, 2, 0), 3, [2, 1, 2]),
        ((1, 2, 0), 4, [2, 1, 2, 3])])
    def test_chained_ties_do_not_outrank_the_smallest_key(self, perm, D, expected):
        # expected is worked out by hand for ties ranked by seller index;
        # the seeds' rankings cover all six orders of the three sellers
        b = np.array(CHAIN)[list(perm)]
        assert ref_route_orders(b, D, range(3))[0] == expected
        rankings = set()
        for seed in range(20):
            rank = seed_ranks(seed, 1, 3)[0]
            rankings.add(tuple(rank))
            res = route_orders(b[None], [D], seed)
            log, counts = ref_route_orders(b, D, rank)
            assert replayed(res)[0].tolist() == log
            assert res.counts[0].tolist() == counts
            assert greedy_replay_ok(b, log)
        assert len(rankings) == 6

    @given(merge_paths(), st.integers(0, 2 ** 32))
    @example(long_path(0), 4)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_lexsort_merge(self, path, seed):
        b, D = path
        res = route_orders(b, D, seed)
        routed = res.routed
        counts, log, taken = ref_merge(b[routed], res.targets[routed], D[routed],
                                       seed_ranks(seed, *b.shape)[routed])
        np.testing.assert_array_equal(res.counts[routed], counts)
        replay_log, replay_taken = replayed(res)
        np.testing.assert_array_equal(replay_log, log)
        np.testing.assert_array_equal(replay_taken, taken)

    @given(routed_periods(), st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None)
    def test_random_ties_follow_the_greedy(self, periods, seed):
        b, D = periods
        res = route_orders(b, D, seed)
        assert res.routed.all()
        for t, period_log in enumerate(period_logs(res)):
            assert greedy_replay_ok(b[t], period_log)
            assert int(res.counts[t].sum()) == D[t]
            assert np.all(np.abs(res.counts[t] - (D[t] / b.shape[1] + b[t]))
                          <= 1.0 + 1e-9)


@st.composite
def slack_paths(draw):
    """(offsets, demand) of 1 to 8 periods over one N whose cut is hard to
    call from the counts: targets within a few tie slacks of whole numbers
    (so a key floor(x) - 1 - b or floor(x) + 1 - b may tie with another
    seller's next key), offsets a fraction of a tie apart (a wide tie group
    at the cut), or no orders at all."""
    N = draw(st.integers(1, 7))
    offsets, demand = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["slack", "wide", "zero"]))
        whole = np.array(draw(st.lists(st.integers(0, 9), min_size=N, max_size=N)),
                         dtype=float)
        whole += np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]),
                                        min_size=N, max_size=N)))
        steps = np.array(draw(st.lists(st.integers(-3, 3), min_size=N, max_size=N)))
        D = int(round(whole.sum()))
        if kind == "wide":
            whole = np.full(N, D / N) + np.arange(N) * 0.6 * _TIE_TOL * max(1.0, D / N)
        elif kind == "slack":
            whole = whole + steps * 0.4 * _TIE_TOL * np.maximum(1.0, whole)
        b = whole - D / N
        b -= b.mean()
        assume(not np.any(D / N + b < -_TIE_TOL * max(1.0, float(np.abs(D / N + b).max()))))
        offsets.append(b)
        demand.append(0 if kind == "zero" else D)
    return np.array(offsets), np.array(demand)


class TestCountsAndReplay:
    @given(slack_paths(), st.integers(0, 2 ** 32), st.sampled_from([1, 7, None]))
    @settings(max_examples=400, deadline=None)
    def test_match_the_lexsort_merge(self, path, seed, block):
        # the counts, and the log and taken counts the writer replays in
        # blocks of 1, 7 or all orders, are the old merge's
        b, D = path
        res = route_orders(b, D, seed)
        routed = res.routed
        counts, log, taken = ref_merge(b[routed], res.targets[routed], D[routed],
                                       seed_ranks(seed, *b.shape)[routed])
        np.testing.assert_array_equal(res.counts[routed], counts)
        assert not res.counts[~routed].any()
        block = block or max(1, int(D.sum()))
        replay_log, replay_taken = replayed(res, block)
        np.testing.assert_array_equal(replay_log, log)
        np.testing.assert_array_equal(replay_taken, taken)

    @given(slack_paths(), st.integers(0, 2 ** 32), st.sampled_from([1, 7]))
    @settings(max_examples=100, deadline=None)
    def test_blocks_hold_whole_periods(self, path, seed, block):
        # a block ends where a period ends, and holds more than block
        # orders only as one period
        res = route_orders(*path, seed)
        seen = []
        for period, order, _, _ in _replay(res, block):
            starts = np.flatnonzero(order == 0)
            assert starts.size and starts[0] == 0
            assert period.size <= block or np.all(period == period[0])
            seen += period[starts].tolist()
        sizes = res.counts.sum(axis=1)
        assert seen == np.flatnonzero(sizes).tolist()

    def test_a_period_larger_than_a_block_is_one_block(self):
        b = np.array([[0.25, -0.25], [0.0, 0.0], [-1.5, 1.5]])
        res = route_orders(b, [3, 40, 5], 8)
        sizes = [period.size for period, _, _, _ in _replay(res, 7)]
        assert sizes == [3, 40, 5]


def traced_route_peak(mu):
    """tracemalloc peak, in bytes, of routing 50 periods of the reference
    market at sigma 0.5 with mean demand mu and writing the log."""
    model = DemandModel(mu, TransferPoly([5.0]))
    pol = neutral_policy(model, 10, 0.5)
    path = simulate(model, 50, 4)
    with open(os.devnull, "w", newline="") as sink:
        tracemalloc.start()
        try:
            export_assignment_log(route_path(pol, model, path, 4), sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_route_memory_does_not_grow_with_the_orders():
    # about 1.0M orders against 750: the counts are (T x N) and the log is
    # replayed in blocks, so no array grows with the order count
    assert traced_route_peak(2e4) - traced_route_peak(15.0) <= 10 * 2 ** 20


class TestNondiscrimination:
    # Each routed period adds count - target, in (-1, 1), to a seller's sum,
    # and a seeded ranking gives no seller a systematic sign, so the sums
    # stay within a few sqrt(P) over P routed periods.  Ranking ties by
    # seller index drove them to 22.7-32.9 sqrt(P) on these paths.
    @pytest.mark.parametrize("scenario, sigma", [
        (ROOT / "scenarios" / "illustrative.scenario", 0.6),
        (ROOT / "scenarios" / "illustrative.scenario", 1.0),
        (ROOT / "scenarios" / "illustrative.scenario", 3.0),
        (DATA / "ma2_n11.scenario", 0.7),
        (DATA / "ma2_n11.scenario", 1.0),
        (DATA / "ma2_n11.scenario", 2.0),
    ])
    def test_no_seller_drifts_from_its_targets(self, scenario, sigma):
        loaded = load_scenario(str(scenario))
        model = loaded.model
        pol = neutral_policy(model, len(loaded.sellers), sigma)
        res = route_path(pol, model, simulate(model, 20000, 4), 4)
        P = int(res.routed.sum())
        assert P >= 1000
        drift = (res.counts - res.targets)[res.routed].sum(axis=0)
        assert np.abs(drift).max() <= 4.0 * np.sqrt(P)
