"""Independent oracles used to freeze expected values and cross-check the
package's numerics.  Root finding goes through mpmath at 50 digits, the
innovations recursion is restated from the textbook autocovariance form, the
perceived root MSFE of untruncated exponential smoothing on the one-lag
designs has its closed form (ses_msfe_closed_form, which the truncated SES
filter of `msfe --ses` must match), the routing replay re-derives greedy
choices from scratch, the reference router assigns one order at a time by
the greedy rule, and the routing targets are summed from the transfer
coefficients period by period; none of these imports from demandalloc.

The one-series predictor reference is the scalar loop over t and j that
the package replaced with a pass over all sellers at once.  It takes its
innovations rows (with their settle rule) and row cap from
demandalloc.forecast, so it checks the batching (padding, row reuse,
summation order) and nothing else.

The scalar seller/platform reference at the end is the per-seller loop form
of mode economics, utilities, adoption, breakpoints, participation, payoff,
the optimizer and the payoff curve that the package replaced with its
array-backed market table.  It takes K and zeta from demandalloc's scalar
inventory_coefficient (memoized) and its result types from
demandalloc.platform, so both paths classify sellers with the same
coefficients; nothing else is shared.

The reference CSV writers at the end are the %-formatting writers of the
`simulate` CSV and the `route` assignment log that the package replaced with
its exact block formatter (demandalloc.csvtext).  They read the same run and
routing result arrays and format every cell with Python's "%d" and "%.6f".

Run as a script to print the frozen constants embedded in the test files.
"""
from __future__ import annotations

import csv
import functools
import math

import mpmath as mp
import numpy as np

from demandalloc.forecast import PREDICT_ROW_CAP, _innovations_rows
from demandalloc.platform import CurvePoint, PayoffResult, PlatformSolution
from demandalloc.seller import inventory_coefficient


def mp_roots(coeffs, dps: int = 50):
    """All roots of c_0 + c_1 z + ... (low order first) at high precision,
    sorted by (real, imag)."""
    with mp.workdps(dps):
        # mpmath wants the high-order-first convention.
        rs = mp.polyroots([mp.mpf(repr(float(c))) for c in reversed(coeffs)],
                          maxsteps=200, extraprec=120)
        return sorted((complex(r) for r in rs), key=lambda z: (z.real, z.imag))


def mp_root_msfe(coeffs, dps: int = 50) -> float:
    """|c_q| times the product of root moduli on or outside the unit circle."""
    with mp.workdps(dps):
        rs = mp.polyroots([mp.mpf(repr(float(c))) for c in reversed(coeffs)],
                          maxsteps=200, extraprec=120)
        acc = mp.mpf(abs(float(coeffs[-1])))
        for r in rs:
            m = abs(r)
            if m >= 1:
                acc *= m
        return float(acc)


def mp_quantile(p, dps: int = 50) -> float:
    """Inverse standard normal cdf via the inverse error function.

    p enters at its exact value: the binary value of a float (near p = 1/2
    its shortest repr can be off by enough to move the quantile by percents)
    or an mpf computed at high precision.
    """
    with mp.workdps(dps):
        return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


def mp_cdf(x, dps: int = 50) -> float:
    """Standard normal cdf at high precision."""
    with mp.workdps(dps):
        return float(mp.ncdf(mp.mpf(float(x))))


def mp_inventory_k(h_bar, b, dps: int = 50):
    """(zeta, K) for the newsvendor fractile b/(h_bar+b) at high precision."""
    with mp.workdps(dps):
        h_bar = mp.mpf(repr(float(h_bar)))
        b = mp.mpf(repr(float(b)))
        zeta = mp.sqrt(2) * mp.erfinv(2 * (b / (h_bar + b)) - 1)
        loss = mp.npdf(zeta) - zeta * mp.ncdf(-zeta)
        return float(zeta), float(h_bar * zeta + (h_bar + b) * loss)


def innovations_msfe_oracle(coeffs, steps: int = 150) -> float:
    """One-step root MSFE of an MA(q) via the plain innovations recursion.

    Written directly from the autocovariance definition with dense theta
    storage; shares no code with the package.
    """
    q = len(coeffs) - 1
    gamma = [sum(coeffs[i] * coeffs[i + h] for i in range(q + 1 - h))
             for h in range(q + 1)]

    def acov(h):
        return gamma[h] if h <= q else 0.0

    v = [gamma[0]]
    thetas = []  # thetas[t-1][j-1] = theta_{t,j}, j = 1..t
    for t in range(1, steps + 1):
        row = [0.0] * t
        for k in range(t):
            acc = acov(t - k)
            for j in range(k):
                acc -= thetas[k - 1][k - 1 - j] * row[t - 1 - j] * v[j]
            row[t - 1 - k] = acc / v[k]
        v.append(gamma[0] - sum(row[t - 1 - j] ** 2 * v[j] for j in range(t)))
        thetas.append(row)
    return float(v[-1]) ** 0.5


def ses_msfe_closed_form(psi0_abs: float, N: int, alpha: float, lam: float) -> float:
    """Perceived root MSFE under untruncated exponential smoothing, for the
    one-lag designs on serially independent market demand.

    alpha carries the seller's sign; lam = 0 recovers the optimal-forecast
    value sqrt(sigma_L^2 + sigma^2).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("closed form needs lambda in [0, 1)")
    base = (psi0_abs / N) ** 2
    mse = base * (1.0 + (alpha - lam) ** 2
                  + (lam / (2.0 - lam)) * (1.0 - lam + alpha) ** 2)
    return float(math.sqrt(mse))


def greedy_replay_ok(offsets, assignment_log, tie_tol: float = 1e-12) -> bool:
    """Check a routing log is consistent with smallest-adjusted-count greedy.

    Replays the assignment sequence and verifies every chosen seller was
    within tie tolerance of the minimum at its turn.
    """
    n = len(offsets)
    counts = [0] * n
    for seller in assignment_log:
        i = int(seller) - 1
        adjusted = [counts[j] - offsets[j] for j in range(n)]
        m = min(adjusted)
        if adjusted[i] > m + tie_tol * max(1.0, abs(m)):
            return False
        counts[i] += 1
    return True


def ref_route_orders(offsets, D_t: int, tie_tol: float = 1e-12):
    """The greedy router one order at a time: each order goes to the lowest
    index whose count - offset is within tie_tol (relative) of the smallest.
    Returns the 1-based assignment log and the final counts, as lists."""
    offsets = [float(b) for b in offsets]
    n = len(offsets)
    counts = [0] * n
    log = []
    for _ in range(D_t):
        adjusted = [counts[j] - offsets[j] for j in range(n)]
        m = min(adjusted)
        chosen = next(j for j in range(n)
                      if adjusted[j] <= m + tie_tol * max(1.0, abs(m)))
        counts[chosen] += 1
        log.append(chosen + 1)
    return log, counts


def benchmark_targets(transfers, mu, demand):
    """Routing targets D_t/N + (1/N) sum_{k>=1} T_nk (D_{t-k} - mu) for every
    period t and seller n, as a list of rows; demand before the path is at
    the mean.  transfers holds each seller's coefficients, low order first."""
    n = len(transfers)
    targets = []
    for t in range(len(demand)):
        row = []
        for coeffs in transfers:
            lagged = 0.0
            for k in range(1, len(coeffs)):
                past = demand[t - k] if t >= k else mu
                lagged += coeffs[k] * (past - mu)
            row.append(demand[t] / n + lagged / n)
        targets.append(row)
    return targets


def ref_innovations_predict(coeffs, series, mean: float = 0.0):
    """One-step predictions of one series, one scalar step per (t, j): row
    min(t, last) of the filter's innovations rows weights the innovation j
    steps back, j = 1..min(t, q).  coeffs must carry no trailing zeros."""
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(series, dtype=float) - mean
    T = x.size
    q = coeffs.size - 1
    if q == 0:
        return np.full(T, mean)
    theta, _ = _innovations_rows(coeffs, min(T, PREDICT_ROW_CAP))
    last = theta.shape[0] - 1
    xhat = np.zeros(T)
    for t in range(T):
        row = theta[min(t, last)]
        acc = 0.0
        for j in range(1, min(t, q) + 1):
            acc += row[j] * (x[t - j] - xhat[t - j])
        xhat[t] = acc
    return xhat + mean


# Scalar seller/platform reference.  Mirrors the package's constants.
_BOUNDARY_SLACK = 1e-9
_PAYOFF_TIE_TOL = 1e-9


@functools.lru_cache(maxsize=4096)
def _coefficient(h_bar, b):
    return inventory_coefficient(h_bar, b)


def ref_mode_economics(params, costs, mode):
    """Fractile and K (.zeta, .K) of one seller under mode "FBP", on the
    platform's holding cost H, or "FBM", on the seller's own h."""
    if mode not in ("FBP", "FBM"):
        raise ValueError(f"unknown mode {mode!r}")
    return _coefficient(costs.H if mode == "FBP" else params.h, params.b)


def ref_seller_utility(params, costs, mode, mu_share, sigma):
    """Per-period payoff under mode: margin (r - rho - f) on the mean share,
    with f = F under FBP, minus K sigma."""
    f_eff = costs.F if mode == "FBP" else params.f
    return ((costs.r - costs.rho - f_eff) * mu_share
            - ref_mode_economics(params, costs, mode).K * sigma)


def _margin_and_scale(params, costs, N, mu, sigma):
    fixed = (mu / N) * (params.f - costs.F)
    dK = (ref_mode_economics(params, costs, "FBP").K
          - ref_mode_economics(params, costs, "FBM").K)
    margin = fixed - sigma * dK
    return margin, max(1.0, abs(fixed), abs(margin - fixed))


def ref_mode_choice(params, costs, N, mu, sigma):
    margin, scale = _margin_and_scale(params, costs, N, mu, sigma)
    return "FBP" if margin >= -_BOUNDARY_SLACK * scale else "FBM"


def ref_adoption_set(sellers, costs, N, mu, sigma, boundary="inclusive"):
    out = set()
    for idx, params in enumerate(sellers, start=1):
        margin, scale = _margin_and_scale(params, costs, N, mu, sigma)
        slack = _BOUNDARY_SLACK * scale
        if (margin >= -slack) if boundary == "inclusive" else (margin > slack):
            out.add(idx)
    return out


def ref_sigma_participation_ub(sellers, costs, N, mu, sigma_cap):
    mu_share = mu / N
    bound = math.inf
    for params in sellers:
        k_fbm = ref_mode_economics(params, costs, "FBM").K
        k_fbp = ref_mode_economics(params, costs, "FBP").K
        t = max((costs.r - costs.rho - params.f) * mu_share / k_fbm,
                (costs.r - costs.rho - costs.F) * mu_share / k_fbp)
        bound = min(bound, t)
    if bound < 0:
        return 0.0
    return sigma_cap if bound > sigma_cap else float(bound)


def ref_breakpoints(sellers, costs, N, mu):
    out = []
    for idx, params in enumerate(sellers, start=1):
        dF = params.f - costs.F
        dK = (ref_mode_economics(params, costs, "FBP").K
          - ref_mode_economics(params, costs, "FBM").K)
        if dK > 0:
            out.append((mu * dF / (N * dK), idx))
    out.sort()
    return out


def ref_safety_stock_totals(sigma, sellers, costs, N, mu, adopters=None):
    if adopters is None:
        adopters = ref_adoption_set(sellers, costs, N, mu, sigma)
    g_fbp = g_fbm = 0.0
    for idx, params in enumerate(sellers, start=1):
        if idx in adopters:
            g_fbp += sigma * ref_mode_economics(params, costs, "FBP").zeta
        else:
            g_fbm += sigma * ref_mode_economics(params, costs, "FBM").zeta
    return g_fbp, g_fbm


def ref_payoff(sigma, sellers, costs, N, mu, adopters=None):
    if adopters is None:
        adopters = ref_adoption_set(sellers, costs, N, mu, sigma)
    adopters = frozenset(adopters)
    n_adopt = len(adopters)
    zeta_sum = sum(ref_mode_economics(sellers[i - 1], costs, "FBP").zeta
                   for i in adopters)
    mu_share = mu / N
    intermediation = costs.rho * mu
    fulfillment = costs.delta_f * mu_share * n_adopt
    storage = costs.delta_h * (mu_share * n_adopt + sigma * zeta_sum)
    g_fbp, g_fbm = ref_safety_stock_totals(sigma, sellers, costs, N, mu, adopters)
    return PayoffResult(total=intermediation + fulfillment + storage,
                        intermediation=intermediation,
                        fulfillment_share=fulfillment, storage_rent=storage,
                        adopters=adopters, n_adopters=n_adopt,
                        gamma_fbp=g_fbp, gamma_fbm=g_fbm)


def ref_cumulative_utility(sellers, costs, N, mu, sigma):
    total = 0.0
    for params in sellers:
        mode = ref_mode_choice(params, costs, N, mu, sigma)
        total += ref_seller_utility(params, costs, mode, mu / N, sigma)
    return total


def ref_optimize(sellers, costs, sigma_l, N, mu, sigma_cap):
    """Candidate-point optimizer without the domain check: floor, every exit
    threshold in range and the cap, ties to the smallest sigma."""
    sigma_u = ref_sigma_participation_ub(sellers, costs, N, mu, sigma_cap)
    bps = ref_breakpoints(sellers, costs, N, mu)
    candidates = sorted({sigma_l, sigma_u,
                         *(s for s, _ in bps if sigma_l <= s <= sigma_u)})
    best_sigma = best = None
    for s in candidates:
        res = ref_payoff(s, sellers, costs, N, mu)
        if best is None or res.total > best.total + _PAYOFF_TIE_TOL * max(1.0, abs(best.total)):
            best, best_sigma = res, s
    g_fbp, g_fbm = ref_safety_stock_totals(best_sigma, sellers, costs, N, mu,
                                           adopters=best.adopters)
    return PlatformSolution(sigma_star=best_sigma, payoff_star=best.total,
                            adopters=best.adopters, gamma_fbp=g_fbp,
                            gamma_fbm=g_fbm, payoff_breakdown=best.breakdown,
                            breakpoints=tuple(bps), sigma_lower=sigma_l,
                            sigma_upper=sigma_u)


def ref_payoff_curve(sellers, costs, N, mu, sigma_grid, sigma_cap=math.inf):
    def point(sigma, side, adopters=None):
        res = ref_payoff(sigma, sellers, costs, N, mu, adopters=adopters)
        g_fbp, g_fbm = ref_safety_stock_totals(sigma, sellers, costs, N, mu,
                                               adopters=res.adopters)
        return CurvePoint(sigma=sigma, payoff=res.total, n_adopters=res.n_adopters,
                          gamma_fbp=g_fbp, gamma_fbm=g_fbm, side=side)

    def zero(sigma, side):
        return CurvePoint(sigma=sigma, payoff=0.0, n_adopters=0,
                          gamma_fbp=0.0, gamma_fbm=0.0, side=side)

    grid = sorted(float(s) for s in sigma_grid)
    if not grid:
        return []
    sigma_u = ref_sigma_participation_ub(sellers, costs, N, mu, sigma_cap)
    lo, hi = grid[0], grid[-1]
    points = [zero(s, "interior") if s > sigma_u else point(s, "interior")
              for s in grid]
    for s, _ in ref_breakpoints(sellers, costs, N, mu):
        if lo <= s <= min(hi, sigma_u):
            points.append(point(s, "left"))
            strict = ref_adoption_set(sellers, costs, N, mu, s, boundary="exclusive")
            points.append(point(s, "right", adopters=strict))
    if lo <= sigma_u <= hi:
        points += [point(sigma_u, "left"), zero(sigma_u, "right")]
    side_rank = {"left": 0, "interior": 1, "right": 2}
    points.sort(key=lambda p: (p.sigma, side_rank[p.side]))
    return points


# Reference CSV writers: the %-line writers of `simulate` and `route` that the
# package replaced with its exact block formatter.
_REF_BLOCK_CELLS = 1 << 14


def ref_export_simulation(run, fileobj) -> None:
    """CSV: period, demand, then alloc, forecast, stock and cost for each
    seller.  Rows are %-formatted and written in blocks of about
    _REF_BLOCK_CELLS cells, each interleaved from slices of the run's arrays."""
    n, periods = run.allocations.shape
    writer = csv.writer(fileobj)
    writer.writerow(["period", "demand"] + [f"{col}_{i}" for i in range(1, n + 1)
                                            for col in ("alloc", "forecast", "stock", "cost")])
    width = 4 * n + 2
    line = "%d" + ",%.6f" * (width - 1) + writer.dialect.lineterminator
    block = max(1, _REF_BLOCK_CELLS // width)
    columns = (run.allocations, run.forecasts, run.stocks, run.costs)
    for lo in range(0, periods, block):
        hi = min(lo + block, periods)
        rows = np.empty((hi - lo, width))
        rows[:, 0] = np.arange(run.start_period + lo, run.start_period + hi)
        rows[:, 1] = run.demands[lo:hi]
        for k, col in enumerate(columns):
            rows[:, 2 + k::4] = col[:, lo:hi].T
        fileobj.write((line * (hi - lo)) % tuple(rows.ravel().tolist()))


def ref_export_assignment_log(path_result, fileobj) -> None:
    """CSV log: period, order index, chosen seller, then counts minus offsets
    of every seller right after the order, %-formatted in blocks of rows."""
    counts, log = path_result.counts, path_result.log
    n = counts.shape[1]
    writer = csv.writer(fileobj)
    writer.writerow(["period", "order", "seller"] + [f"adj_{i}" for i in range(1, n + 1)])
    sizes = counts.sum(axis=1)
    offs = path_result.targets - (sizes / n)[:, None]
    before = np.cumsum(counts, axis=0) - counts
    row_period = np.repeat(np.arange(sizes.size), sizes)
    order = np.arange(log.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    line = "%d,%d,%d" + ",%.6f" * n + writer.dialect.lineterminator
    block = max(1, _REF_BLOCK_CELLS // (n + 3))
    running = np.zeros(n, dtype=np.int64)
    for lo in range(0, log.size, block):
        sellers = log[lo:lo + block]
        p = row_period[lo:lo + block]
        onehot = np.zeros((sellers.size, n), dtype=np.int64)
        onehot[np.arange(sellers.size), sellers - 1] = 1
        cumulative = running + np.cumsum(onehot, axis=0)
        running = cumulative[-1]
        rows = np.empty((sellers.size, n + 3))
        rows[:, 0] = p
        rows[:, 1] = order[lo:lo + block]
        rows[:, 2] = sellers
        rows[:, 3:] = (cumulative - before[p]) - offs[p]
        fileobj.write((line * sellers.size) % tuple(rows.ravel().tolist()))


def _print_frozen():
    cases = {
        "p_case1_a": [0.5, -0.2, -0.48],
        "p_case1_b": [0.5, 1.0, 0.48],
        "p_case2_a": [0.2, 0.85],
        "p_case2_b": [0.8, -0.35],
        "p_deg5": [1.2, -0.3, 0.4, 0.15, -0.22, 0.31],
        "p_complex": [1.0, -0.6, 0.58],
    }
    for name, coeffs in cases.items():
        roots = mp_roots(coeffs)
        print(f"{name}: coeffs={coeffs}")
        print(f"  roots={[(round(r.real, 12), round(r.imag, 12)) for r in roots]}")
        print(f"  root_msfe={mp_root_msfe(coeffs):.12f}")
        print(f"  innovations={innovations_msfe_oracle(coeffs):.12f}")
    for h, b in [(0.6, 12.0), (2.5, 12.0), (2.5, 9.0)]:
        zeta, K = mp_inventory_k(h, b)
        print(f"K(h_bar={h}, b={b}): zeta={zeta:.12f} K={K:.12f}")
    print(f"quantile(12/12.6)={mp_quantile(12 / 12.6):.12f}")
    print(f"quantile(0.975)={mp_quantile(0.975):.12f}")


if __name__ == "__main__":
    _print_frozen()
