"""Independent oracles used to freeze expected values and cross-check the
package's numerics.  Root finding goes through mpmath at 50 digits, the
innovations recursion is restated from the textbook autocovariance form, the
perceived root MSFE of untruncated exponential smoothing on the one-lag
designs has its closed form (ses_msfe_closed_form, which the exact SES error
of `msfe --ses` must match), the routing replay re-derives greedy
choices from scratch, the reference router assigns one order at a time by
the greedy rule, and the routing targets are summed from the transfer
coefficients period by period; none of these imports from demandalloc.

ref_merge is the path merge of the router with its sort by (period, key)
as one stable np.lexsort, which the package replaced with a quicksort of
the keys and stable radix passes over the period index.  It takes the tie
reach and the wide-group replay from demandalloc.routing, so a comparison
checks the sort and nothing else.

jensen_root_msfe reads a root MSFE from an FFT of the coefficients alone,
with no root at all.

The one-series predictor reference is the scalar loop over t and j that
the package's predictor must equal bit for bit.  It owns its innovations
rows: ref_innovations_recursion is the banded recursion over numpy scalars
(with its settle rule and row cap, REF_SETTLE_RTOL and REF_ROW_CAP) that the
package replaced with one over Python floats, so a byte comparison of
predictions checks the rows as well as the recursion over time (row reuse,
summation order, zero signs).  Those rows have their own oracle,
ref_innovations_rows, which reads them from a Cholesky factor of the
autocovariance matrix and shares no code with either recursion.

The smoothing references check forecast.ses_msfe three ways: the
truncated, renormalized SES weights (ref_ses_truncated_weights, at most
REF_SES_MAX_ORDER of them, so lam >= REF_SES_MIN_LAMBDA) run through the
generic unbiased linear-filter MSFE (ref_filter_msfe), which the package
replaced with one exact recursion; the squared norm of the error filter
psi (1 - z) / (1 - rho z) as a double geometric sum in mpmath
(mp_ses_msfe_double_sum); and the package's recursion restated in mpmath
(mp_ses_msfe_recursion).  The first two take TransferPoly, as_poly and
TRIM_TOL from demandalloc.polyalg.

lagged_variant is the even-N design with its memory pushed k lags back,
which left the package because no command builds it; it takes the target
checks of demandalloc.policy, so it fails as neutral_policy does.

The per-seller design references (ref_policy_transfers, ref_seller_filter,
ref_benchmark_offsets) are the one-TransferPoly-per-seller form of a design
that the package replaced with one transfer matrix: each row built and
checked as a TransferPoly, each seller's filter one convolution, each
row's lags copied one at a time.  They take TransferPoly from
demandalloc.polyalg and the admissibility tolerance from demandalloc.policy,
so they check the matrix path and nothing else.

The scalar seller/platform reference at the end is the per-seller loop form
of mode economics, utilities, adoption, breakpoints, participation, payoff,
the optimizer (with its winner loop, ref_first_best) and the payoff curve
that the package replaced with its array-backed market table.  It takes K
and zeta from demandalloc's scalar inventory_coefficient (memoized) and its
result types and side names from demandalloc.platform, so both paths
classify sellers with the same coefficients; nothing else is shared.  The reference curve is a list of
CurvePoint records, and curve_points turns the package's column Curve
into the same records.

The reference CSV writers at the end are the %-formatting writers of the
`simulate` CSV and the `route` assignment log, and the per-row writer of the
`curve` CSV, that the package replaced with its exact block formatter
(demandalloc.csvtext).  They read the same run, routing result and curve
arrays and format every cell with Python's "%d" and "%.6f".  The route
log's reference tallies each seller's count one order at a time.
ref_export_snapshot_log is the N-column log (every seller's adjusted count
after every order) that the package wrote before its log became O(orders),
and snapshot_log_from rebuilds it from the new log's text and the routing
targets alone, which shows the new log lost nothing.

The reference inventory coefficient (ref_inventory_coefficient) is the
method-call form of K and zeta that the package replaced with one scalar
helper: NormalDist's quantile and pdf and the erfc cdf, as a (zeta, K)
pair.  The package's helper must equal it bit for bit.

The seller references take one Seller record per seller; the package takes
a market's sellers as one SellerParams of columns (seller_columns builds it
from records, seller_records reads it back).  ref_sellers is the per-record
scenario path that cli._sellers replaced: each record checked by cli's
field and number checks, then the cost rule of the per-seller object it
built.  ref_check_cost_assumptions is the per-seller loop of
seller.check_cost_assumptions, and ref_fractile_fault the one-seller-at-a-
time scan that named a critical fractile rounding to 0 or 1.

The reference command-line parser (build_parser) is the eager form that
adds every subcommand's flags on every call; the package builds only the
parsed subcommand's.  It takes the flag types and command functions from
demandalloc.cli, so a comparison checks the parser and nothing else.

Run as a script to print the frozen constants embedded in the test files.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
from statistics import NormalDist
from typing import NamedTuple

import mpmath as mp
import numpy as np

from demandalloc import cli
from demandalloc.platform import SIDES, PayoffResult, PlatformSolution
from demandalloc.policy import (ADMISSIBILITY_TOL, AllocationPolicy, _check_target,
                                uniform_policy)
from demandalloc.polyalg import (DEFAULT_BOUNDARY_TOL, TRIM_TOL, TransferPoly,
                                 as_poly)
from demandalloc.routing import _order_wide_groups, _tie_reach
from demandalloc.seller import DomainError, SellerParams, inventory_coefficient


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


def jensen_root_msfe(coeffs) -> float:
    """Root MSFE by Jensen's formula (Kolmogorov-Szego): the geometric mean
    of |p| over the unit circle, from a 16,384-point FFT and no root.  With
    every root 1e-2 or more off the circle, log|p| is analytic on an annulus
    and the mean is exact to rounding."""
    return float(np.exp(np.mean(np.log(np.abs(np.fft.fft(coeffs, 16384))))))


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


REF_SES_TAIL_TOL = 1e-12
# Most weights the truncated smoothing filter takes: about
# -log(REF_SES_TAIL_TOL) / lam, so this sets the smallest lam it accepts.
REF_SES_MAX_ORDER = 100_000
REF_SES_MIN_LAMBDA = -math.expm1(math.log(REF_SES_TAIL_TOL) / REF_SES_MAX_ORDER)


def ref_ses_truncated_weights(lam: float) -> TransferPoly:
    """Exponential-smoothing weights lam (1-lam)^k, truncated and renormalized.

    The order is chosen so the dropped geometric tail is below
    REF_SES_TAIL_TOL, which takes at most REF_SES_MAX_ORDER weights for lam
    in [REF_SES_MIN_LAMBDA, 1].  Weights below polyalg.TRIM_TOL, which
    TransferPoly would trim, are dropped after normalizing and the rest
    renormalized, so the weights kept sum to 1.  lam = 1 is the naive
    last-value forecast.
    """
    if not REF_SES_MIN_LAMBDA <= lam <= 1.0:
        raise ValueError(f"smoothing constant lam must lie in "
                         f"[{REF_SES_MIN_LAMBDA:.6g}, 1], got {lam!r}")
    if lam == 1.0:
        return TransferPoly([1.0])
    order = max(1, math.ceil(math.log(REF_SES_TAIL_TOL) / math.log1p(-lam)))
    w = (1.0 - lam) ** np.arange(order)
    w /= w.sum()
    w = w[w >= TRIM_TOL]
    w /= w.sum()
    w[0] += 1.0 - w.sum()  # absorb the last few ulps so the sum is exactly 1
    return TransferPoly(w)


@np.errstate(over="ignore")
def ref_filter_msfe(psi_n, weights) -> float:
    """Root MSFE on the stream psi_n of the linear one-step forecaster
    sum_k w_k X_{t-k} with weights w(z).

    The weights must sum to 1 so the forecast is unbiased for any mean
    level (ValueError otherwise).  The forecast error passes the shocks
    through (1 - w(z) z) psi_n(z); with unit-variance shocks the MSE is the
    sum of squared coefficients of that error filter.  Inf when that sum
    overflows.
    """
    w = as_poly(weights).coeffs
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"forecaster weights sum to {total:.12g}, need 1")
    err = np.convolve(np.concatenate(([1.0], -w)), as_poly(psi_n).coeffs)
    return float(np.sqrt(np.dot(err, err)))


def mp_ses_msfe_double_sum(psi, lam: float, dps: int = 50) -> float:
    """SES root MSFE as sqrt(sum_ij c_i c_j rho^|i-j| / (lam (2 - lam))),
    c = psi (1 - z) and rho = 1 - lam, at dps digits: the squared norm of
    c(z) / (1 - rho z) summed over each pair of coefficients of c.  psi and
    lam enter at their exact binary values."""
    with mp.workdps(dps):
        lam = mp.mpf(float(lam))
        rho = 1 - lam
        psi = [mp.mpf(float(x)) for x in psi]
        c = [a - b for a, b in zip(psi + [0], [0] + psi)]
        total = mp.fsum(ci * cj * rho ** abs(i - j)
                        for i, ci in enumerate(c) for j, cj in enumerate(c))
        return float(mp.sqrt(total / (lam * (2 - lam))))


def mp_ses_msfe_recursion(psi, lam: float, dps: int = 50) -> float:
    """forecast.ses_msfe's recursion at dps digits: e_k = psi_k - lam u_{k-1},
    u_k = rho u_{k-1} + psi_k, plus the tail lam u_q^2 / (2 - lam)."""
    with mp.workdps(dps):
        lam = mp.mpf(float(lam))
        rho, u, mse = 1 - lam, mp.mpf(0), mp.mpf(0)
        for x in psi:
            x = mp.mpf(float(x))
            mse += (x - lam * u) ** 2
            u = rho * u + x
        return float(mp.sqrt(mse + lam * u ** 2 / (2 - lam)))


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


def ref_route_orders(offsets, D_t: int, rank, tie_tol: float = 1e-12):
    """The greedy router one order at a time: each order goes to the seller
    of lowest rank[j] among those whose count - offset is within tie_tol
    (relative) of the smallest.  Returns the 1-based assignment log and the
    final counts, as lists."""
    offsets = [float(b) for b in offsets]
    n = len(offsets)
    counts = [0] * n
    log = []
    for _ in range(D_t):
        adjusted = [counts[j] - offsets[j] for j in range(n)]
        m = min(adjusted)
        chosen = min((j for j in range(n)
                      if adjusted[j] <= m + tie_tol * max(1.0, abs(m))),
                     key=lambda j: rank[j])
        counts[chosen] += 1
        log.append(chosen + 1)
    return log, counts


def ref_merge(offsets, targets, demand, rank):
    """The path merge the router used before it took its counts from the
    largest remainders: every key k - b_n, k = 0..floor(x_n)+1, sorted by
    (period, key) with one np.lexsort, stable, so equal keys keep their
    seller order, and the first demand[p] of each period taken: the (P x N)
    counts, the 1-based sellers of every period's orders in assignment
    sequence, and each order's count for its seller."""
    P, N = offsets.shape
    n_keys = (np.floor(np.maximum(targets, 0.0)) + 2.0).astype(np.int64).ravel()
    cell = np.repeat(np.arange(P * N), n_keys)
    first = np.cumsum(n_keys) - n_keys
    k = np.arange(cell.size) - np.repeat(first, n_keys)
    keys = k - offsets.ravel()[cell]
    order = np.lexsort((keys, cell // N))
    keys, period = keys[order], cell[order] // N
    new_group = np.ones(cell.size, dtype=bool)
    new_group[1:] = ((period[1:] != period[:-1])
                     | (keys[1:] > _tie_reach(keys[:-1])))
    within = rank.ravel()[cell[order]]
    _order_wide_groups(keys, new_group, within)
    group = np.cumsum(new_group)
    order = order[np.argsort(group * N + within, kind="stable")]
    position = np.arange(cell.size) - first[::N][period]
    order = order[position < demand[period]]
    counts = np.bincount(cell[order], minlength=P * N).reshape(P, N)
    return counts, cell[order] % N + 1, k[order] + 1


def ref_log(path_result):
    """(log, taken) of a RoutePathResult from ref_merge over its routed
    periods: the 1-based seller of every routed order and its count for
    that seller after it."""
    routed = path_result.routed
    _, log, taken = ref_merge(path_result.offsets[routed], path_result.targets[routed],
                              path_result.counts[routed].sum(axis=1),
                              path_result.rank[routed])
    return log, taken


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


def ref_innovations_rows(coeffs, rows: int):
    """Innovations weights and variances of the first `rows` indices of an
    MA(q) process, read from the LDL^T factors of its banded Toeplitz
    autocovariance matrix (Brockwell and Davis, Prop. 5.2.2): with Cholesky
    factor L of [gamma(s - t)], v[t] = L[t, t]^2 and the weight of the
    innovation j steps back at index t is L[t, t - j] / L[t - j, t - j].
    Returns (theta, v), theta of shape (rows, q) for j = 1..q (zero where
    t < j)."""
    c = np.asarray(coeffs, dtype=float)
    q = c.size - 1
    # gamma(h) = sum_k c_k c_{k+h}, h = -q..q
    gamma = np.convolve(c, c[::-1])[q:]
    lag = np.abs(np.subtract.outer(np.arange(rows), np.arange(rows)))
    cov = np.where(lag <= q, gamma[np.minimum(lag, q)], 0.0)
    L = np.linalg.cholesky(cov)
    d = np.diag(L)
    theta = np.zeros((rows, q))
    for t in range(rows):
        for j in range(1, min(t, q) + 1):
            theta[t, j - 1] = L[t, t - j] / d[t - j]
    return theta, d * d


REF_ROW_CAP = 5000
REF_SETTLE_RTOL = 1e-14


def ref_innovations_recursion(coeffs, steps: int):
    """Banded innovations recursion for an MA(q) process over numpy scalars.

    Returns (theta, v) where theta[t, j] predicts with the innovation j
    steps back (j = 1..q) at time t, and v[t] is the one-step innovation
    variance of the autocovariances gamma(0..q) (unit shocks).  The
    recursion stops early once v moves less than REF_SETTLE_RTOL
    (relative), returning the rows computed so far.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    q = coeffs.size - 1
    gamma = np.array([float(np.dot(coeffs[:coeffs.size - h], coeffs[h:]))
                      for h in range(q + 1)])
    v = np.empty(steps + 1)
    theta = np.zeros((steps + 1, q + 1))
    v[0] = gamma[0]
    for t in range(1, steps + 1):
        lo = max(0, t - q)
        for k in range(lo, t):
            h = t - k
            acc = gamma[h] if h <= q else 0.0
            for j in range(lo, k):
                acc -= theta[k, k - j] * theta[t, t - j] * v[j]
            theta[t, h] = acc / v[k]
        v[t] = gamma[0] - sum(theta[t, t - j] ** 2 * v[j] for j in range(lo, t))
        if t > q and abs(v[t] - v[t - 1]) <= REF_SETTLE_RTOL * abs(v[t]):
            return theta[:t + 1], v[:t + 1]
    return theta, v


def ref_innovations_predict(coeffs, series, mean: float = 0.0):
    """One-step predictions of one series, one scalar step per (t, j): row
    min(t, last) of the filter's innovations rows (ref_innovations_recursion,
    at most REF_ROW_CAP of them) weights the innovation j steps back,
    j = 1..min(t, q).  coeffs must carry no trailing zeros."""
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(series, dtype=float) - mean
    T = x.size
    q = coeffs.size - 1
    if q == 0:
        return np.full(T, mean)
    theta, _ = ref_innovations_recursion(coeffs, min(T, REF_ROW_CAP))
    last = theta.shape[0] - 1
    xhat = np.zeros(T)
    for t in range(T):
        row = theta[min(t, last)]
        acc = 0.0
        for j in range(1, min(t, q) + 1):
            acc += row[j] * (x[t - j] - xhat[t - j])
        xhat[t] = acc
    return xhat + mean


def lagged_variant(model, N: int, sigma_target: float, k: int) -> AllocationPolicy:
    """Even-N design with the memory pushed k periods back: T_n = 1 + (-1)^n a
    z^k, with a and the target checks of policy.neutral_policy.  No command
    builds it; the tests use it as a design with a longer memory."""
    if N % 2 != 0:
        raise ValueError("lagged variant requires an even number of sellers")
    if k < 1:
        raise ValueError("lag k must be at least 1")
    sigma_l, alpha = _check_target(model, N, sigma_target)
    if sigma_target == sigma_l:
        return uniform_policy(N)
    transfers = np.zeros((N, k + 1))
    transfers[:, 0] = 1.0
    transfers[:, k] = alpha
    transfers[::2, k] = -alpha
    return AllocationPolicy(transfers)


def ref_policy_transfers(rows) -> tuple:
    """Each row of a design as a TransferPoly, checked one seller at a time:
    T_n(0) = 1, then the rows summed seller by seller to N at lag 0 and to
    0 elsewhere.  ValueError with the package's texts on a fault."""
    transfers = tuple(TransferPoly(r) for r in rows)
    for t in transfers:
        if abs(t.coeffs[0] - 1.0) > ADMISSIBILITY_TOL:
            raise ValueError("each transfer must have T_n(0) = 1")
    excess = np.zeros(max(t.coeffs.size for t in transfers))
    for t in transfers:
        excess[:t.coeffs.size] += t.coeffs
    excess[0] -= len(transfers)
    if np.max(np.abs(excess)) > ADMISSIBILITY_TOL:
        raise ValueError("transfers must sum to N coefficient-wise (admissibility)")
    return transfers


def ref_seller_filter(transfers, psi, n: int) -> TransferPoly:
    """Seller n's demand filter (psi * T_n) / N of ref_policy_transfers'
    transfers; n is 1-based."""
    product = np.convolve(psi.coeffs, transfers[n - 1].coeffs)
    return TransferPoly(product / len(transfers))


def ref_benchmark_offsets(transfers, mu, demands) -> np.ndarray:
    """policy.benchmark_offsets with each transfer's lags copied in turn."""
    dev = np.asarray(demands, dtype=float) - mu
    N = len(transfers)
    max_lag = max(t.degree for t in transfers)
    lags = np.zeros((N, max_lag + 1))
    for i, t_poly in enumerate(transfers):
        lags[i, :t_poly.coeffs.size] = t_poly.coeffs / N
    offsets = np.zeros((dev.size, N))
    for k in range(1, min(max_lag, dev.size - 1) + 1):
        offsets[k:] += dev[:-k, None] * lags[:, k]
    return offsets


# Scalar seller/platform reference.  Mirrors the package's constants.
_BOUNDARY_SLACK = 1e-9
_PAYOFF_TIE_TOL = 1e-9


class Seller(NamedTuple):
    """One seller's per-unit costs: holding h, backorder b, fulfillment f."""

    h: float
    b: float
    f: float


def seller_columns(records) -> SellerParams:
    """The package's column record of Seller records."""
    return SellerParams(*zip(*records))


def seller_records(params: SellerParams) -> tuple:
    """The Seller records of the package's column record."""
    return tuple(map(Seller, params.h.tolist(), params.b.tolist(),
                     params.f.tolist()))


def ref_sellers(records, source: str) -> tuple:
    """Seller records of the scenario's seller array, one record at a time:
    fields and numbers by cli's checks, then h > 0 and b > 0 before f >= 0;
    the first fault raises cli.ScenarioError naming source.sellers[n]."""
    out = []
    for n, entry in enumerate(records, start=1):
        path = f"{source}.sellers[{n}]"
        cli._check_fields(entry, path, required=Seller._fields)
        h, b, f = (cli._finite(entry[name], f"{path}.{name}")
                   for name in Seller._fields)
        if not (h > 0 and b > 0):
            raise cli.ScenarioError(
                f"{path}: holding and backorder costs must be positive")
        if not f >= 0:
            raise cli.ScenarioError(f"{path}: fulfillment cost must be nonnegative")
        out.append(Seller(h, b, f))
    return tuple(out)


def ref_check_cost_assumptions(sellers, costs) -> list:
    """The messages of seller.check_cost_assumptions, seller by seller, the
    fulfillment message before the holding one."""
    messages = []
    for idx, params in enumerate(sellers, start=1):
        if costs.F > params.f:
            messages.append(f"seller {idx}: platform fulfillment cost F={costs.F:g} "
                            f"exceeds own cost f={params.f:g}")
        if costs.H < params.h:
            messages.append(f"seller {idx}: platform holding cost H={costs.H:g} "
                            f"below own cost h={params.h:g}")
    return messages


def ref_fractile_fault(sellers, costs):
    """The DomainError text of market_table for a critical fractile that
    rounds to 0 or 1, or None: every seller's FBM coefficient is tried in
    turn, then every FBP coefficient, and the first that raises is named."""
    for h_name in ("h", "H"):
        for n, params in enumerate(sellers, start=1):
            x, y = (params.h if h_name == "h" else costs.H), params.b
            try:
                ref_inventory_coefficient(x, y)
            except DomainError:
                field = "platform.H" if h_name == "H" and x < y else f"sellers[{n}]"
                return (f"{field}: the critical fractile b/({h_name} + b) at "
                        f"{h_name} = {x:g}, b = {y:g} rounds to {int(y > x)}, "
                        "which has no normal quantile")
    return None


@functools.lru_cache(maxsize=4096)
def _coefficient(h_bar, b):
    return inventory_coefficient(h_bar, b)


def ref_mode_economics(params, costs, mode):
    """(zeta, K) of one seller under mode "FBP", on the platform's holding
    cost H, or "FBM", on the seller's own h."""
    if mode not in ("FBP", "FBM"):
        raise ValueError(f"unknown mode {mode!r}")
    return _coefficient(costs.H if mode == "FBP" else params.h, params.b)


def ref_seller_utility(params, costs, mode, mu_share, sigma):
    """Per-period payoff under mode: margin (r - rho - f) on the mean share,
    with f = F under FBP, minus K sigma."""
    f_eff = costs.F if mode == "FBP" else params.f
    return ((costs.r - costs.rho - f_eff) * mu_share
            - ref_mode_economics(params, costs, mode)[1] * sigma)


def _dK(params, costs):
    return (ref_mode_economics(params, costs, "FBP")[1]
            - ref_mode_economics(params, costs, "FBM")[1])


def _margin_and_scale(params, costs, N, mu, sigma):
    fixed = (mu / N) * (params.f - costs.F)
    margin = fixed - sigma * _dK(params, costs)
    return margin, max(1.0, abs(fixed), abs(margin - fixed))


def ref_mode_choice(params, costs, N, mu, sigma):
    margin, scale = _margin_and_scale(params, costs, N, mu, sigma)
    return "FBP" if margin >= -_BOUNDARY_SLACK * scale else "FBM"


def ref_adoption_set(sellers, costs, N, mu, sigma, exclusive=False, side=None):
    """1-based adopters at sigma.  exclusive=True drops every seller within
    the boundary slack of its switching point; side "left" drops only the
    sellers that enter (dK < 0) there and side "right" only the ones that
    exit (dK > 0), which gives the one-sided limits of the payoff."""
    out = set()
    for idx, params in enumerate(sellers, start=1):
        margin, scale = _margin_and_scale(params, costs, N, mu, sigma)
        slack = _BOUNDARY_SLACK * scale
        if side is not None:
            dK = _dK(params, costs)
            exclusive = dK < 0 if side == "left" else dK > 0
        if (margin > slack) if exclusive else (margin >= -slack):
            out.add(idx)
    return out


def ref_sigma_participation_ub(sellers, costs, N, mu, sigma_cap):
    mu_share = mu / N
    bound = math.inf
    for params in sellers:
        k_fbm = ref_mode_economics(params, costs, "FBM")[1]
        k_fbp = ref_mode_economics(params, costs, "FBP")[1]
        t = max((costs.r - costs.rho - params.f) * mu_share / k_fbm,
                (costs.r - costs.rho - costs.F) * mu_share / k_fbp)
        bound = min(bound, t)
    if bound < 0:
        return 0.0
    return sigma_cap if bound > sigma_cap else float(bound)


def ref_breakpoints(sellers, costs, N, mu):
    """(sigma, seller) where a seller exits (dK > 0) or enters (dK < 0 and
    f < F), ascending."""
    out = []
    for idx, params in enumerate(sellers, start=1):
        dF = params.f - costs.F
        dK = _dK(params, costs)
        if dK > 0 or (dK < 0 and dF < 0):
            out.append((mu * dF / (N * dK), idx))
    out.sort()
    return out


def ref_safety_stock_totals(sigma, sellers, costs, N, mu, adopters=None):
    if adopters is None:
        adopters = ref_adoption_set(sellers, costs, N, mu, sigma)
    g_fbp = g_fbm = 0.0
    for idx, params in enumerate(sellers, start=1):
        if idx in adopters:
            g_fbp += sigma * ref_mode_economics(params, costs, "FBP")[0]
        else:
            g_fbm += sigma * ref_mode_economics(params, costs, "FBM")[0]
    return g_fbp, g_fbm


def ref_payoff(sigma, sellers, costs, N, mu, adopters=None):
    if adopters is None:
        adopters = ref_adoption_set(sellers, costs, N, mu, sigma)
    adopters = frozenset(adopters)
    n_adopt = len(adopters)
    zeta_sum = sum(ref_mode_economics(sellers[i - 1], costs, "FBP")[0]
                   for i in adopters)
    mu_share = mu / N
    intermediation = costs.rho * mu
    fulfillment = costs.delta_f * mu_share * n_adopt
    storage = costs.delta_h * (mu_share * n_adopt + sigma * zeta_sum)
    g_fbp, g_fbm = ref_safety_stock_totals(sigma, sellers, costs, N, mu, adopters)
    utility = sum(ref_seller_utility(params, costs,
                                     "FBP" if idx in adopters else "FBM",
                                     mu_share, sigma)
                  for idx, params in enumerate(sellers, start=1))
    return PayoffResult(total=intermediation + fulfillment + storage,
                        intermediation=intermediation,
                        fulfillment_share=fulfillment, storage_rent=storage,
                        adopters=adopters, gamma_fbp=g_fbp, gamma_fbm=g_fbm,
                        cumulative_utility=utility)


def ref_cumulative_utility(sellers, costs, N, mu, sigma):
    total = 0.0
    for params in sellers:
        mode = ref_mode_choice(params, costs, N, mu, sigma)
        total += ref_seller_utility(params, costs, mode, mu / N, sigma)
    return total


def ref_first_best(totals) -> int:
    """The winner loop the package replaced with platform._first_best: a
    later total takes over only by beating the best by more than
    _PAYOFF_TIE_TOL relative."""
    best = 0
    for i, total in enumerate(totals):
        if total > totals[best] + _PAYOFF_TIE_TOL * max(1.0, abs(totals[best])):
            best = i
    return best


def ref_optimize(sellers, costs, sigma_l, N, mu, sigma_cap):
    """Supremum over the floor, every switching point in range and the cap:
    the values attained there, then the one-sided limits from inside the
    range, point by point with left before right, picked by
    ref_first_best."""
    sigma_u = ref_sigma_participation_ub(sellers, costs, N, mu, sigma_cap)
    bps = ref_breakpoints(sellers, costs, N, mu)
    points = sorted({sigma_l, sigma_u,
                     *(s for s, _ in bps if sigma_l <= s <= sigma_u)})
    candidates = [(s, "interior", None) for s in points]
    for j, s in enumerate(points):
        sides = ["left"] * (j > 0) + ["right"] * (j < len(points) - 1)
        candidates += [(s, side, ref_adoption_set(sellers, costs, N, mu, s,
                                                  side=side)) for side in sides]
    results = [ref_payoff(s, sellers, costs, N, mu, adopters)
               for s, _, adopters in candidates]
    best = ref_first_best([res.total for res in results])
    return PlatformSolution(sigma_star=candidates[best][0], star=results[best],
                            breakpoints=tuple(bps), sigma_lower=sigma_l,
                            sigma_upper=sigma_u, side=candidates[best][1])


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    """One payoff curve sample of the reference curve."""

    sigma: float
    payoff: float
    n_adopters: int
    gamma_fbp: float
    gamma_fbm: float
    side: str


def curve_points(curve):
    """The rows of a demandalloc.platform.Curve as CurvePoint records."""
    *columns, side = (c.tolist() for c in curve)
    return [CurvePoint(*row, side=SIDES[k]) for *row, k in zip(*columns, side)]


def ref_payoff_curve(sellers, costs, N, mu, sigma_grid, sigma_cap=math.inf):
    def point(sigma, side, adopters=None):
        res = ref_payoff(sigma, sellers, costs, N, mu, adopters=adopters)
        return CurvePoint(sigma=sigma, payoff=res.total,
                          n_adopters=len(res.adopters), gamma_fbp=res.gamma_fbp,
                          gamma_fbm=res.gamma_fbm, side=side)

    def limit(sigma, side):
        return point(sigma, side, ref_adoption_set(sellers, costs, N, mu, sigma,
                                                   side=side))

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
            points += [limit(s, "left"), limit(s, "right")]
    if lo <= sigma_u <= hi:
        points += [limit(sigma_u, "left"), zero(sigma_u, "right")]
    side_rank = {"left": 0, "interior": 1, "right": 2}
    points.sort(key=lambda p: (p.sigma, side_rank[p.side]))
    return points


# Reference CSV writers: the %-line writers of `simulate` and `route`, and
# the per-row writer of `curve`, that the package replaced with its exact
# block formatter.
_REF_BLOCK_CELLS = 1 << 14


def ref_export_curve(curve, fileobj) -> None:
    """CSV: sigma, payoff, n_adopters, gamma_fbp, gamma_fbm, side, one
    csv.writer row per curve point with f-string cells."""
    writer = csv.writer(fileobj)
    writer.writerow(["sigma", "payoff", "n_adopters", "gamma_fbp", "gamma_fbm", "side"])
    for p in curve_points(curve):
        writer.writerow([f"{p.sigma:.6f}", f"{p.payoff:.6f}", p.n_adopters,
                         f"{p.gamma_fbp:.6f}", f"{p.gamma_fbm:.6f}", p.side])


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


def ref_export_snapshot_log(path_result, fileobj) -> None:
    """The N-column log the package wrote before its log became O(orders):
    period, order index, chosen seller, then counts minus offsets of every
    seller right after the order, %-formatted in blocks of rows."""
    counts, log = path_result.counts, ref_log(path_result)[0]
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


def ref_export_assignment_log(path_result, fileobj) -> None:
    """CSV log: period, order index, chosen seller, then that seller's count
    minus its offset right after the order, counted one order at a time and
    %-formatted."""
    counts, log = path_result.counts, ref_log(path_result)[0]
    n = counts.shape[1]
    writer = csv.writer(fileobj)
    writer.writerow(["period", "order", "seller", "adj"])
    sizes = counts.sum(axis=1)
    offs = path_result.targets - (sizes / n)[:, None]
    line = "%d,%d,%d,%.6f" + writer.dialect.lineterminator
    rows, start = [], 0
    for t, size in enumerate(sizes.tolist()):
        tally = [0] * n
        for k, seller in enumerate(log[start:start + size].tolist()):
            tally[seller - 1] += 1
            rows.append(line % (t, k, seller, tally[seller - 1] - offs[t, seller - 1]))
        start += size
    fileobj.write("".join(rows))


def snapshot_log_from(text: str, targets) -> str:
    """The N-column log of ref_export_snapshot_log, rebuilt from the text of
    an O(orders) log and the (T x N) targets alone: a period's offsets are
    its targets minus its row count over N, and each seller's count after an
    order is tallied from the seller column."""
    targets = np.asarray(targets)
    n = targets.shape[1]
    rows = [[int(x) for x in line.split(",")[:3]]
            for line in text.split("\r\n")[1:-1]]
    sizes = [0] * targets.shape[0]
    for t, _, _ in rows:
        sizes[t] += 1
    line = "%d,%d,%d" + ",%.6f" * n + "\r\n"
    out, tally = [], None
    for t, k, seller in rows:
        if k == 0:
            tally = [0] * n
        tally[seller - 1] += 1
        offs = targets[t] - sizes[t] / n
        out.append(line % (t, k, seller, *(c - b for c, b in zip(tally, offs.tolist()))))
    header = ",".join(["period", "order", "seller"]
                      + [f"adj_{i}" for i in range(1, n + 1)])
    return header + "\r\n" + "".join(out)


_STD_NORMAL = NormalDist()


def ref_inventory_coefficient(h_bar, b) -> tuple:
    """(zeta, K) through NormalDist's methods."""
    if not (h_bar > 0 and b > 0):
        raise DomainError("inventory coefficient needs positive h_bar and b")

    def quantile(p):
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile defined on open interval (0, 1), got {p}")
        return _STD_NORMAL.inv_cdf(p)

    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def loss(z):
        return max(_STD_NORMAL.pdf(z) - z * cdf(-z), 0.0)

    zeta = (quantile(b / (h_bar + b)) if b <= h_bar
            else -quantile(h_bar / (h_bar + b)))
    K = (h_bar * zeta + (h_bar + b) * loss(zeta) if zeta >= 0
         else (h_bar + b) * loss(-zeta) - b * zeta)
    return zeta, K


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand with all of its flags, built on each call."""
    parser = argparse.ArgumentParser(
        prog="demandalloc",
        description="Demand-allocation policy design and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p, sigma_required=False):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        if sigma_required:
            p.add_argument("--sigma", type=cli._positive_float, required=True,
                           help="per-seller root MSFE target")
            p.add_argument("--periods", type=cli._count, default=None,
                           help="periods to simulate (default: scenario horizon)")
            p.add_argument("--seed", type=cli._nonnegative_int, default=None,
                           help="RNG seed (default: scenario seed)")
        p.add_argument("--out", default=None, help="write primary output here")

    p_opt = sub.add_parser("optimize", help="solve the platform's sigma design problem")
    add_scenario_flags(p_opt)
    p_opt.set_defaults(func=cli.cmd_optimize)

    p_sim = sub.add_parser("simulate", help="simulate demand, allocate, and cost out inventory")
    add_scenario_flags(p_sim, sigma_required=True)
    p_sim.set_defaults(func=cli.cmd_simulate)

    p_route = sub.add_parser("route", help="route integer orders with offset tracking")
    add_scenario_flags(p_route, sigma_required=True)
    p_route.set_defaults(func=cli.cmd_route)

    p_factor = sub.add_parser("factor", help="inner-outer factorization report")
    p_factor.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p_factor.add_argument("--boundary-tol", type=cli._boundary_tol,
                          default=DEFAULT_BOUNDARY_TOL,
                          help="roots of modulus below 1 - tol count as inside")
    p_factor.set_defaults(func=cli.cmd_factor)

    p_msfe = sub.add_parser("msfe", help="root MSFE, optionally lead-time or SES variants")
    p_msfe.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p_msfe.add_argument("--lead", type=cli._nonnegative_int, default=None,
                        help="replenishment lead time in periods")
    p_msfe.add_argument("--ses", type=cli._smoothing, default=None,
                        help="SES smoothing constant")
    p_msfe.set_defaults(func=cli.cmd_msfe)

    p_curve = sub.add_parser("curve", help="export the payoff curve as CSV")
    add_scenario_flags(p_curve)
    p_curve.add_argument("--grid", type=cli._count, default=200, help="grid points")
    p_curve.add_argument("--check-linearity", action="store_true",
                         help="verify the curve is linear between breakpoints")
    p_curve.set_defaults(func=cli.cmd_curve)

    return parser


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
