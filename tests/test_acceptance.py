"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS line with the quantities it pinned, so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.  Criteria
1-5 reproduce the reference market's headline numbers from the shipped
scenario; criterion 6 is a self-contained randomized property suite;
criterion 7 closes the loop with a Monte Carlo consistency run, and
criterion 8 checks that a seller who forecasts from its own sales alone
cannot beat the design volatility.
"""
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import demandalloc.platform as platform
from demandalloc import (
    DemandModel,
    FBM,
    FBP,
    PlatformCosts,
    TransferPoly,
    benchmark_offsets,
    inner_outer_factor,
    is_invertible,
    leadtime_msfe,
    market_table,
    neutral_policy,
    optimize,
    payoff,
    payoff_curve,
    root_msfe,
    route_orders,
    sigma_lower_bound,
    simulate,
    solution_document,
    variance,
)
from demandalloc.cli import load_scenario
from demandalloc.forecast import predict_streams, simulate_inventory
from oracles import (Seller, curve_points, lagged_variant, ref_filter_msfe,
                     ref_innovations_recursion, ref_mode_economics, ref_payoff,
                     seller_columns, seller_records, ses_msfe_closed_form)
from test_policy import filters_by_seller
from test_routing import relabelled_policy

SCENARIO = str(Path(__file__).resolve().parents[1]
               / "scenarios" / "illustrative.scenario")
MA2_SCENARIO = str(Path(__file__).resolve().parent / "data" / "ma2_n11.scenario")

# reference per-seller inventory coefficients (K under own-storage mode,
# K under platform-storage mode) for the reference market
REFERENCE_K = {
    1: (1.250, 3.703), 2: (1.479, 3.382), 3: (1.757, 3.791),
    4: (1.830, 3.250), 5: (2.115, 3.606), 6: (2.438, 3.500),
    7: (2.591, 3.382), 8: (3.159, 3.703), 9: (3.229, 3.791),
    10: (3.191, 3.606),
}

# reference exit thresholds, ascending, with the seller that exits at each
REFERENCE_BREAKPOINTS = (
    (1.7373, 10), (5.0706, 9), (6.9000, 8), (8.8678, 1), (9.6606, 3),
    (11.3538, 2), (11.4732, 5), (12.9909, 4), (14.1359, 6), (16.7024, 7),
)

# reference two-seller factorization cases: coefficients, variance, squared MSFE
REFERENCE_CASES = (
    ((0.5, -0.2, -0.48), 0.5204, 0.36),
    ((0.5, 1.0, 0.48), 1.4804, 0.36),
    ((0.2, 0.85), 0.7625, 0.7225),
    ((0.8, -0.35), 0.7625, 0.64),
)


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(SCENARIO)


def test_criterion_1_headline_solution(scenario):
    model = scenario.model
    start = time.perf_counter()
    table = market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    sol = optimize(table, sigma_lower_bound(model, len(scenario.sellers)),
                   scenario.sigma_cap)
    elapsed = time.perf_counter() - start
    doc = solution_document(sol, table)

    assert sol.sigma_star == pytest.approx(8.8678, abs=1e-3)
    assert sol.star.total == pytest.approx(372.45, abs=0.05)
    assert sorted(sol.star.adopters) == [1, 2, 3, 4, 5, 6, 7]
    assert sol.star.gamma_fbp == pytest.approx(52.73, abs=0.05)
    assert sol.star.gamma_fbm == pytest.approx(28.12, abs=0.05)
    assert doc["cumulative_utility"] == pytest.approx(814.47, abs=0.1)
    floor = doc["at_sigma_lower"]
    assert doc["sigma_lower"] == pytest.approx(0.5)
    assert floor["payoff"] == pytest.approx(293.78, abs=0.05)
    assert floor["gamma_fbp"] == pytest.approx(4.39, abs=0.01)
    assert floor["cumulative_utility"] == pytest.approx(1107.14, abs=0.1)
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: sigma*={sol.sigma_star:.4f}, "
          f"V*={sol.star.total:.2f}, adopters 1..7, floor/star safety "
          f"stocks and utilities within tolerance, optimize {elapsed: .3f}s")


def test_criterion_2_inventory_coefficient_table(scenario):
    worst = 0.0
    table = market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    for idx, params in enumerate(seller_records(scenario.sellers), start=1):
        ref_own, ref_platform = REFERENCE_K[idx]
        k_own = float(table.k_fbm[idx - 1])
        k_platform = float(table.k_fbp[idx - 1])
        assert k_own == ref_mode_economics(params, scenario.costs, FBM)[1]
        assert k_platform == ref_mode_economics(params, scenario.costs, FBP)[1]
        assert k_own == pytest.approx(ref_own, abs=0.005)
        assert k_platform == pytest.approx(ref_platform, abs=0.005)
        worst = max(worst, abs(k_own - ref_own), abs(k_platform - ref_platform))
    print(f"\ncriterion 2 PASS: all 20 inventory coefficients within 0.005 "
          f"(worst deviation {worst:.4f})")


def test_criterion_3_breakpoints_and_participation_bound(scenario):
    table = market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    sigma_u = table.participation_ub(scenario.sigma_cap)
    assert sigma_u == pytest.approx(33.957, abs=0.01)
    bps = table.breakpoints()
    assert len(bps) == len(REFERENCE_BREAKPOINTS)
    for (got_sigma, got_seller), (ref_sigma, ref_seller) in zip(
            bps, REFERENCE_BREAKPOINTS):
        assert got_seller == ref_seller
        assert got_sigma == pytest.approx(ref_sigma, abs=1e-3)
    print(f"\ncriterion 3 PASS: sigma_U={sigma_u:.3f}, all 10 exit "
          f"thresholds within 0.001")


def test_criterion_4_reference_factorization_cases():
    for coeffs, ref_var, ref_msfe_sq in REFERENCE_CASES:
        p = TransferPoly(coeffs)
        assert variance(p) == pytest.approx(ref_var, abs=1e-4)
        assert root_msfe(p) ** 2 == pytest.approx(ref_msfe_sq, abs=1e-4)
    print("\ncriterion 4 PASS: all six reference variance/MSFE values "
          "reproduced to 1e-4")


def test_criterion_5_smoothing_perception(scenario):
    model = scenario.model
    N = len(scenario.sellers)
    table = market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    sol = optimize(table, sigma_lower_bound(model, N), scenario.sigma_cap)
    psi0 = abs(scenario.model.psi.coeffs[0])
    a = N * sol.sigma_star / psi0

    # the perceived error is minimized with no smoothing, both parities
    lam_grid = np.linspace(0.0, 0.99, 100)
    for alpha in (a, -a):
        values = [ses_msfe_closed_form(psi0, N, alpha, lam)
                  for lam in lam_grid]
        assert int(np.argmin(values)) == 0

    sigma_tilde = ses_msfe_closed_form(psi0, N, a, 0.0)
    assert sigma_tilde == pytest.approx(8.88, abs=0.01)

    adopters = payoff(table, sigma_tilde).adopters
    assert adopters == set(range(2, 8))
    realized = ref_payoff(sol.sigma_star, seller_records(scenario.sellers),
                          scenario.costs, N, model.mu, adopters=adopters)
    g_fbp = realized.gamma_fbp
    assert g_fbp == pytest.approx(44.35, abs=0.05)
    assert realized.total == pytest.approx(349.70, abs=0.05)
    print(f"\ncriterion 5 PASS: lambda*=0, perceived sigma={sigma_tilde:.4f},"
          f" adopters 2..7, Gamma_FBP={g_fbp:.2f}, V={realized.total:.2f}")


def _random_invertible_model(rng, max_degree=4):
    mu = float(rng.uniform(5.0, 40.0))
    c0 = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1.0, 1.0]))
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = np.array([c0])
    for _ in range(degree):
        root = float(rng.uniform(1.1, 5.0)) * float(rng.choice([-1.0, 1.0]))
        coeffs = np.convolve(coeffs, [1.0, -1.0 / root])
    return DemandModel(mu, TransferPoly(coeffs))


def _random_ma_poly(rng, max_degree=6):
    """Random MA polynomial with real roots kept away from the circle."""
    c0 = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = np.array([c0])
    for _ in range(degree):
        modulus = (float(rng.uniform(0.2, 0.8)) if rng.random() < 0.5
                   else float(rng.uniform(1.25, 5.0)))
        root = modulus * float(rng.choice([-1.0, 1.0]))
        coeffs = np.convolve(coeffs, [1.0, -1.0 / root])
    return TransferPoly(coeffs)


def _grid_payoff_oracle(sellers, costs, mu, sigma_grid):
    """Vectorized payoff evaluation, independent of the optimizer and of
    the payoff assembler: adoption by utility comparison, participation by
    best-mode utility, payoff summed directly from the margins."""
    N = len(sellers)
    mu_share = mu / N
    k_fbp = np.array([ref_mode_economics(p, costs, FBP)[1] for p in sellers])
    k_fbm = np.array([ref_mode_economics(p, costs, FBM)[1] for p in sellers])
    zeta_fbp = np.array([ref_mode_economics(p, costs, FBP)[0] for p in sellers])
    margin_fbp = (costs.r - costs.rho - costs.F) * mu_share
    margin_fbm = np.array([(costs.r - costs.rho - p.f) * mu_share
                           for p in sellers])
    s = sigma_grid[None, :]
    u_fbp = margin_fbp - k_fbp[:, None] * s
    u_fbm = margin_fbm[:, None] - k_fbm[:, None] * s
    adopt = u_fbp >= u_fbm
    participate = np.maximum(u_fbp, u_fbm).min(axis=0) >= 0.0
    per_seller = (costs.delta_f * mu_share
                  + costs.delta_h * (mu_share + s * zeta_fbp[:, None]))
    v = costs.rho * mu + np.sum(np.where(adopt, per_seller, 0.0), axis=0)
    return np.where(participate, v, 0.0)


def test_criterion_6_property_suite(scenario):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    counts = {}

    # (a)-(d): admissibility, target attainment, sum bound, non-invertibility
    # on randomized neutral designs, including lagged and relabeled ones
    sum_bound_checked = 0
    for trial in range(500):
        model = _random_invertible_model(rng)
        N = int(rng.integers(2, 10))
        factor = float(rng.uniform(1.05, 8.0))
        sigma_l = abs(float(model.psi.coeffs[0])) / N
        sigma = factor * sigma_l
        style = trial % 5
        if style == 0 and N % 2 == 0:
            pol = lagged_variant(model, N, sigma, k=int(rng.integers(1, 4)))
        elif style == 1:
            perm = list(rng.permutation(N) + 1)
            pol = relabelled_policy(neutral_policy(model, N, sigma), perm)
        else:
            pol = neutral_policy(model, N, sigma)
        filters = filters_by_seller(pol, model)
        width = max(f.coeffs.size for f in filters)
        total = np.zeros(width)
        for f in filters:
            total[:f.coeffs.size] += f.coeffs
        psi_padded = np.zeros(width)
        psi_padded[:model.psi.coeffs.size] = model.psi.coeffs
        np.testing.assert_allclose(total, psi_padded, atol=1e-9)  # (a)
        sigmas = [root_msfe(f) for f in filters]
        for s_n in sigmas:
            assert abs(s_n - sigma) < 1e-9  # (b)
        assert sum(sigmas) >= abs(float(model.psi.coeffs[0])) - 1e-9  # (c)
        sum_bound_checked += 1
        for f in filters:
            assert not is_invertible(f)  # (d): strictly above the floor
    counts["policies"] = 500

    # (e): routing tracks the benchmark within one unit on feasible instances
    feasible = 0
    attempts = 0
    while feasible < 10_000:
        attempts += 1
        assert attempts < 40_000, "feasible routing instances too rare"
        N = int(rng.integers(2, 9))
        mu = N * float(rng.uniform(3.0, 10.0))
        sigma_l = float(rng.uniform(0.2, 2.0))
        sigma = sigma_l * float(rng.uniform(1.0, 3.0))
        d_prev = mu * float(rng.uniform(0.7, 1.3))
        d_prev2 = mu * float(rng.uniform(0.7, 1.3))
        rng.integers(0, 1000)  # unused draw (a period label) keeps the instances fixed
        model = DemandModel(mu, [N * sigma_l])
        offs = benchmark_offsets(neutral_policy(model, N, sigma), model,
                                 [d_prev2, d_prev, mu])[-1]
        D = int(rng.integers(max(1, int(0.6 * mu)), int(1.4 * mu) + 2))
        res = route_orders(offs[None], [D], int(rng.integers(0, 2 ** 62)))
        if not res.routed[0]:
            continue
        feasible += 1
        assert int(res.counts[0].sum()) == D
        assert res.max_discrepancy <= 1.0 + 1e-9
    counts["routing"] = feasible

    # (f): the innovations recursion of the predictor, on autocovariances
    # alone, settles to the root-based MSFE
    for _ in range(200):
        p = _random_ma_poly(rng)
        horizon = max(10 * p.degree, 200)
        _, v = ref_innovations_recursion(p.coeffs, horizon)
        assert v.size <= horizon, "innovations recursion did not settle"
        via_innovations = float(np.sqrt(v[-1]))
        via_roots = root_msfe(p)
        assert abs(via_innovations - via_roots) <= 0.005 * via_roots
    counts["msfe cross-checks"] = 200

    # (g): the payoff curve is collinear between consecutive one-sided points
    table = market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    sigma_u = table.participation_ub(scenario.sigma_cap)
    points = curve_points(payoff_curve(
        table, np.linspace(0.0, 1.05 * sigma_u, 400), sigma_u))
    worst_residual = 0.0
    segment = []
    for pt in points + [None]:
        if pt is not None and pt.side != "left":
            if pt.side == "right":
                segment = []
            segment.append(pt)
            continue
        if pt is not None:
            segment.append(pt)
        if len(segment) >= 3:
            a, b = segment[0], segment[-1]
            span = b.sigma - a.sigma
            if span > 0:
                scale = max(1.0, abs(a.payoff), abs(b.payoff))
                for q in segment[1:-1]:
                    fit = a.payoff + (b.payoff - a.payoff) \
                        * (q.sigma - a.sigma) / span
                    worst_residual = max(worst_residual,
                                         abs(q.payoff - fit) / scale)
        segment = []
    assert worst_residual <= 1e-9
    counts["curve points"] = len(points)

    # (h): the candidate-point optimizer beats a dense grid search
    for _ in range(50):
        N = int(rng.integers(3, 9))
        F = float(rng.uniform(5.0, 15.0))
        hs = rng.uniform(0.5, 2.5, size=N)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sellers = tuple(
                Seller(h=float(h), b=float(rng.uniform(5.0, 15.0)),
                       f=F + float(rng.uniform(0.5, 15.0)))
                for h in hs)
            costs = PlatformCosts(
                rho=float(rng.uniform(5.0, 20.0)), F=F,
                H=float(hs.max() + rng.uniform(0.1, 2.0)),
                delta_f=float(rng.uniform(0.0, 3.0)),
                delta_h=float(rng.uniform(0.0, 3.0)),
                r=float(F + rng.uniform(35.0, 80.0)))
            mu = N * float(rng.uniform(3.0, 10.0))
            model = DemandModel(mu, TransferPoly([float(rng.uniform(0.5, 3.0))]))
            table = market_table(seller_columns(sellers), costs, mu)
            sol = optimize(table, sigma_lower_bound(model, N), sigma_cap=1e6)
            hi = table.participation_ub(1e6)
        grid = np.linspace(abs(float(model.psi.coeffs[0])) / N, hi, 10_000)
        best_grid = float(_grid_payoff_oracle(sellers, costs, mu, grid).max())
        assert sol.star.total >= best_grid - 1e-9 * max(1.0, abs(best_grid))
    counts["grid scenarios"] = 50

    # (i): no unbiased linear filter beats the factorization floor
    for _ in range(200):
        p = _random_ma_poly(rng)
        w = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 8)))
        w[0] += 1.0 - w.sum()
        assert ref_filter_msfe(p, TransferPoly(w)) \
            >= root_msfe(p) - 1e-9
    counts["filter floors"] = 200

    # (j): zero lead time reduces to the one-step root MSFE
    for _ in range(100):
        p = _random_ma_poly(rng)
        outer = inner_outer_factor(p).outer
        at_zero = leadtime_msfe(outer, 0)
        assert at_zero == abs(float(outer.coeffs[0]))
        assert at_zero == pytest.approx(root_msfe(p), rel=1e-12)
    counts["lead-time reductions"] = 100

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    summary = ", ".join(f"{v} {k}" for k, v in counts.items())
    print(f"\ncriterion 6 PASS: {summary}; suite ran in {elapsed:.1f}s")


def test_criterion_7_monte_carlo_consistency(scenario):
    model = DemandModel(20.0, TransferPoly([5.0]))
    pol = neutral_policy(model, 2, 5.0)
    path = simulate(model, 100_000, seed=7)
    # the first two sellers of the reference market hold the two streams
    table = market_table(seller_columns(seller_records(scenario.sellers)[:2]),
                         scenario.costs, model.mu)
    run = simulate_inventory(table, pol, model, path, 5.0)
    shares = run.allocations
    demands = path[run.start_period:]

    conservation = float(np.max(np.abs(shares.sum(axis=0) - demands)))
    assert conservation <= 1e-9

    errors = []
    for n in (1, 2):
        filt = filters_by_seller(pol, model)[n - 1]
        pred = predict_streams([filt], shares[n - 1][None], mean=model.mu / 2)[0]
        rmse = float(np.sqrt(np.mean((shares[n - 1] - pred) ** 2)))
        assert rmse == pytest.approx(5.0, rel=0.02)
        errors.append(rmse)
    print(f"\ncriterion 7 PASS: empirical one-step errors "
          f"{errors[0]:.4f}/{errors[1]:.4f} vs design 5.0, allocation "
          f"conservation {conservation:.1e}")


def _levinson_durbin(gamma, order):
    """AR(order) coefficients phi_1..phi_order solving the Yule-Walker
    equations on the autocovariances gamma[0..order]."""
    phi, v = np.zeros(0), gamma[0]
    for k in range(1, order + 1):
        kappa = (gamma[k] - phi @ gamma[k - 1:0:-1]) / v
        phi = np.append(phi - kappa * phi[::-1], kappa)
        v *= 1.0 - kappa * kappa
    return phi


def _ar_forecast_rmse(stream, order):
    """Out-of-sample root MSFE on the second half of stream of the AR(order)
    predictor fitted to the sample autocovariances of the first half."""
    half = stream.size // 2
    fit = stream[:half] - stream[:half].mean()
    gamma = np.array([fit[:half - h] @ fit[h:] for h in range(order + 1)]) / half
    phi = _levinson_durbin(gamma, order)
    x = stream - stream[:half].mean()
    lags = np.lib.stride_tricks.sliding_window_view(x[half - order:-1], order)
    return float(np.sqrt(np.mean((x[half:] - lags @ phi[::-1]) ** 2)))


def test_criterion_8_own_sales_cannot_beat_sigma():
    # the information claim: a seller who sees only its allocation stream
    # D_t/N + b_t forecasts it no better than the design volatility sigma.
    # The AR(30) fit knows neither psi nor the design; its out-of-sample
    # root MSFE over 10,000 periods lies within 5 standard errors of sigma
    periods, order = 20_000, 30
    tol = 5.0 / np.sqrt(2 * (periods // 2))
    ratios = []
    for path, sigmas in ((SCENARIO, (0.5, 1.0, 3.0)), (MA2_SCENARIO, (0.7, 2.0))):
        scenario = load_scenario(path)
        model, N = scenario.model, len(scenario.sellers)
        demand = simulate(model, periods, seed=scenario.seed)
        for sigma in sigmas:
            pol = neutral_policy(model, N, sigma)
            _, first = np.unique(pol.transfers, axis=0, return_index=True)
            offsets = benchmark_offsets(pol, model, demand)
            for n in first.tolist():
                rmse = _ar_forecast_rmse(demand / N + offsets[:, n], order)
                assert abs(rmse / sigma - 1.0) <= tol, (path, sigma, n + 1)
                ratios.append(rmse / sigma)
    print(f"\ncriterion 8 PASS: {len(ratios)} allocation streams, AR({order}) "
          f"root MSFE / sigma in [{min(ratios):.4f}, {max(ratios):.4f}], "
          f"tolerance {tol:.4f}")
