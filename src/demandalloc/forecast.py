"""Forecast-error machinery beyond the one-step optimal predictor.

Three strands: the optimal one-step predictor (predict_streams, the
innovations recursion on a filter's autocovariances); mean squared errors
of suboptimal linear filters such as truncated exponential smoothing; and
lead-time demand uncertainty from partial sums of the coefficients of a
seller filter's outer factor (polyalg.inner_outer_factor, any admissible
design).  The model of the `simulate` command (simulate_inventory)
allocates the path through policy.benchmark_offsets (the one replay of a
design along a path, which routing tracks too), predicts every seller's
stream in one pass of predict_streams, costs out stocks as (N, T) arrays and
raises NumericalInstability on a non-finite summary, with its CSV written by
the exact block formatter of csvtext (export_simulation).  Every per-seller
economic quantity comes from a seller.MarketTable built once by the caller.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .csvtext import BLOCK_CELLS, _format_rows
from .demand import DemandModel, DemandPath
from .policy import (AllocationPolicy, InsufficientHistory, benchmark_offsets,
                     seller_filter)
from .polyalg import TRIM_TOL, NumericalInstability, TransferPoly, as_poly
from .seller import FBM, FBP, MarketTable, base_stock

SES_TAIL_TOL = 1e-12
# Most weights a default smoothing filter may take: about -log(SES_TAIL_TOL)
# / lam, so this sets the smallest lam it accepts, SES_MIN_LAMBDA.
SES_MAX_ORDER = 100_000
SES_MIN_LAMBDA = -math.expm1(math.log(SES_TAIL_TOL) / SES_MAX_ORDER)
_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FilterForecaster:
    """Linear one-step forecaster: prediction = sum_k w_k X_{t-k}.

    Weights must sum to 1 so the forecast is unbiased for any mean level.
    """

    weights: TransferPoly

    def __post_init__(self):
        total = float(np.sum(self.weights.coeffs))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"forecaster weights sum to {total:.12g}, need 1")


PREDICT_ROW_CAP = 5000
"""Most innovations rows a predictor computes.  A row is reused for every
later index once the innovation variance settles (PREDICT_SETTLE_RTOL); past
this many rows the last computed row is reused even if it has not settled,
which happens for filters with a root near the unit circle."""
PREDICT_SETTLE_RTOL = 1e-14


def _innovations_rows(coeffs: np.ndarray, steps: int):
    """Banded innovations recursion for an MA(q) process.

    Returns (theta, v) where theta[t, j] predicts with the innovation j
    steps back (j = 1..q) at time t, and v[t] is the one-step innovation
    variance of the autocovariances gamma(0..q) (unit shocks).  The
    recursion stops early once v moves less than PREDICT_SETTLE_RTOL
    (relative), returning the rows computed so far.
    """
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
        if t > q and abs(v[t] - v[t - 1]) <= PREDICT_SETTLE_RTOL * abs(v[t]):
            return theta[:t + 1], v[:t + 1]
    return theta, v


def predict_streams(filters, series, mean: float = 0.0) -> np.ndarray:
    """One-step-ahead predictions of N series at once, shape (N, T).

    Series n (row n of `series`, which must be (N, T)) is predicted with the
    innovations recursion of filters[n], from its observations before t
    alone.  The rows are built once per distinct filter (same coefficient
    bytes), padded with zeros to the largest degree q and repeated past their
    own settle point, so once every filter has settled the (q, N) weights are
    one fixed array.  Each period is then three numpy calls into preallocated
    arrays (weights times the q past innovations, a sum over the lags into
    the prediction, the new innovation), and every element sees the same
    float operations, in the same order j = 1..q, as a one-series scalar
    loop: the results are bit for bit those of that loop.  Degree-0 filters
    predict the mean.  ValueError unless `series` is (N, T) with one filter
    per series.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError(f"series must be (N, T), got shape {series.shape}")
    N, T = series.shape
    filters = [as_poly(f) for f in filters]
    if len(filters) != N:
        raise ValueError(f"{len(filters)} filters for {N} series")
    distinct = {f.coeffs.tobytes(): f for f in filters}
    rows = {key: _innovations_rows(f.coeffs, min(T, PREDICT_ROW_CAP))[0][:, 1:]
            for key, f in distinct.items()}
    q = max((f.degree for f in filters), default=0)
    # A lone series gets a zero partner: with two or more columns the series
    # axis is numpy's inner loop, so the sum over lags adds row by row,
    # j = 1..q (one column would be summed pairwise).
    W = max(N, 2)
    # theta[r, j - 1, n]: weight of the innovation j steps back at row r
    theta = np.zeros((max((r.shape[0] for r in rows.values()), default=1), q, W))
    for n, f in enumerate(filters):
        r = rows[f.coeffs.tobytes()]
        theta[:r.shape[0], :r.shape[1], n] = r
        theta[r.shape[0]:, :r.shape[1], n] = r[-1]
    # innovations time-reversed: buf[T - 1 - t] is the one at index t, and
    # the q rows past T stay zero, so the lags j = 1..q at index t are the
    # forward slice buf[T - t:T - t + q].  Row T - 1 - t holds the centred
    # observation until period t turns it into its innovation.
    buf = np.zeros((T + q, W))
    np.subtract(series.T, mean, out=buf[:T][::-1, :N])
    xhat = np.empty((T, W))
    # windows[t]: the (q, W) lags of index t; buf[::-1][q + t]: its row
    windows = np.lib.stride_tricks.sliding_window_view(
        buf, q, axis=0).transpose(0, 2, 1)[::-1]
    prod = np.empty((q, W))
    # the ufuncs are bound once and take their outputs positionally: at a few
    # dozen elements per call, attribute and keyword lookups cost about as
    # much as the arithmetic
    multiply, lag_sum, subtract = np.multiply, np.add.reduce, np.subtract
    for w, pred, lags, innov in zip(chain(theta, repeat(theta[-1])), xhat,
                                    windows, buf[::-1][q:]):
        multiply(w, lags, prod)
        lag_sum(prod, axis=0, out=pred, initial=0.0)
        subtract(innov, pred, innov)
    # C order: a reduction along a row then sums in the order it would for
    # that series alone
    return np.add(xhat[:, :N].T, mean, order="C")


def ses_truncated_weights(lam: float) -> FilterForecaster:
    """Exponential-smoothing weights lam (1-lam)^k, truncated and renormalized.

    The order is chosen so the dropped geometric tail is below SES_TAIL_TOL,
    which takes at most SES_MAX_ORDER weights for lam in [SES_MIN_LAMBDA, 1].
    Weights below polyalg.TRIM_TOL, which TransferPoly would trim, are
    dropped after normalizing and the rest renormalized, so the weights kept
    sum to 1.  lam = 1 is the naive last-value forecast.
    """
    if not SES_MIN_LAMBDA <= lam <= 1.0:
        raise ValueError(f"smoothing constant lam must lie in "
                         f"[{SES_MIN_LAMBDA:.6g}, 1], got {lam!r}")
    if lam == 1.0:
        return FilterForecaster(TransferPoly([1.0]))
    order = max(1, math.ceil(math.log(SES_TAIL_TOL) / math.log1p(-lam)))
    w = (1.0 - lam) ** np.arange(order)
    w /= w.sum()
    w = w[w >= TRIM_TOL]
    w /= w.sum()
    w[0] += 1.0 - w.sum()  # absorb the last few ulps so the sum is exactly 1
    return FilterForecaster(TransferPoly(w))


@np.errstate(over="ignore")
def filter_msfe(psi_n: TransferPoly, forecaster: FilterForecaster) -> float:
    """Root MSFE of a linear filter forecaster on the stream psi_n.

    The forecast error passes the shocks through (1 - what(z) z) psi_n(z);
    with unit-variance shocks the MSE is the sum of squared coefficients of
    that error filter.  Never beats the optimal predictor's root MSFE.
    Inf when that sum overflows.
    """
    one_minus = np.concatenate(([1.0], -forecaster.weights.coeffs))
    err = np.convolve(one_minus, as_poly(psi_n).coeffs)
    return float(np.sqrt(np.dot(err, err)))


def leadtime_msfe(outer_coeffs: TransferPoly, L: int) -> float:
    """Root MSFE of cumulative demand over a replenishment delay of L periods.

    Equals sqrt(sum over lags 0..L of squared partial sums of the outer
    factor's coefficients); L = 0 reduces to the one-step root MSFE
    |theta_0|.  Past the factor's degree q every partial sum is the full
    sum, so the first min(L + 1, q) terms are summed and the rest counted:
    time and memory are O(q) whatever L.  Inf when the sum or L overflows.
    """
    if L < 0:
        raise ValueError("lead time must be nonnegative")
    theta = as_poly(outer_coeffs).coeffs
    if L == 0:
        return abs(float(theta[0]))
    partial = np.cumsum(theta[:L + 1])
    head = partial[:min(L + 1, theta.size - 1)]
    last = float(partial[-1])
    try:
        tail = (L + 1 - head.size) * (last * last)
    except OverflowError:  # a count of periods too large for a float
        tail = math.inf if last else 0.0
    return float(np.sqrt(np.dot(head, head) + tail))


@dataclass(frozen=True)
class InventoryRun:
    """A design replayed along a demand path, from its first period with
    full lag history (start_period).

    Arrays with a seller axis have shape (N, periods): the ex-post
    allocation, its one-step forecast, the base stock forecast + zeta sigma
    and the realized overage/underage cost.  The per-seller summary numbers
    are the empirical root MSFE, the mean realized cost and K sigma.
    """

    start_period: int
    demands: np.ndarray
    allocations: np.ndarray
    forecasts: np.ndarray
    stocks: np.ndarray
    costs: np.ndarray
    modes: tuple
    empirical_msfe: np.ndarray
    mean_cost: np.ndarray
    k_sigma: np.ndarray


# an overflowing sigma makes infs and nans on the way; the finite check
# names the failure instead of numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def simulate_inventory(table: MarketTable, alloc_policy: AllocationPolicy,
                       model: DemandModel, path: DemandPath,
                       sigma: float) -> InventoryRun:
    """Allocate a realized path by the policy, let every seller of the
    market table forecast its stream with the optimal one-step predictor and
    stock forecast + zeta sigma in the mode it picks at sigma, and cost out
    each period.  Seller n gets mu/N + (D_t - mu)/N + b[t, n-1], with b
    from policy.benchmark_offsets, from period start_period = max_lag on
    (InsufficientHistory on a shorter path).  Raises NumericalInstability
    naming sigma when a summary number is not finite, as when sigma
    overflows the predictor.  ValueError when the table and the policy
    count different sellers."""
    if alloc_policy.n_sellers != table.N:
        raise ValueError(f"policy has {alloc_policy.n_sellers} sellers, "
                         f"market table {table.N}")
    start = alloc_policy.max_lag
    demands = np.asarray(path.demands, dtype=float)
    if demands.size <= start:
        raise InsufficientHistory(
            f"path length {demands.size} does not cover the policy's "
            f"{start}-period memory; it needs at least {start + 1} periods")
    N = alloc_policy.n_sellers
    share = model.mu / N + (demands[start:] - model.mu) / N
    # (N, T) intermediates stay unnamed, so a long path holds only the
    # arrays the run keeps (and a few temporaries) at once
    alloc = np.ascontiguousarray(
        (share[:, None] + benchmark_offsets(alloc_policy, model, demands)[start:]).T)
    fbp = table.adopts(sigma)
    filters = [seller_filter(alloc_policy, model, n)
               for n in range(1, N + 1)]
    pred = predict_streams(filters, alloc, mean=model.mu / table.N)
    zeta = np.where(fbp, table.zeta_fbp, table.zeta_fbm)[:, None]
    stock = base_stock(pred, sigma, zeta)
    h_bar = np.where(fbp, table.costs.H, table.h)[:, None]
    cost = (h_bar * np.maximum(stock - alloc, 0.0)
            + table.b[:, None] * np.maximum(alloc - stock, 0.0))
    run = InventoryRun(
        start_period=start, demands=path.demands[start:],
        allocations=alloc, forecasts=pred, stocks=stock, costs=cost,
        modes=tuple(np.where(fbp, FBP, FBM).tolist()),
        empirical_msfe=np.sqrt(np.mean((alloc - pred) ** 2, axis=1)),
        mean_cost=np.mean(cost, axis=1),
        k_sigma=np.where(fbp, table.k_fbp, table.k_fbm) * sigma)
    if not all(np.isfinite(a).all() for a in (run.empirical_msfe, run.mean_cost,
                                              run.k_sigma)):
        raise NumericalInstability(f"simulation at sigma = {sigma:g} overflows: a "
                                   "forecast, stock, cost or summary is not finite")
    return run


def export_simulation(run: InventoryRun, fileobj) -> None:
    """CSV: period, demand, then alloc, forecast, stock and cost for each
    seller.  Rows are interleaved from slices of the run's arrays and written
    in blocks of about csvtext.BLOCK_CELLS cells by the exact formatter."""
    n, periods = run.allocations.shape
    csv.writer(fileobj).writerow(
        ["period", "demand"] + [f"{col}_{i}" for i in range(1, n + 1)
                                for col in ("alloc", "forecast", "stock", "cost")])
    width = 4 * n + 2
    block = max(1, BLOCK_CELLS // width)
    columns = (run.allocations, run.forecasts, run.stocks, run.costs)
    for lo in range(0, periods, block):
        hi = min(lo + block, periods)
        rows = np.empty((hi - lo, width))
        rows[:, 0] = np.arange(run.start_period + lo, run.start_period + hi)
        rows[:, 1] = run.demands[lo:hi]
        for k, col in enumerate(columns):
            rows[:, 2 + k::4] = col[:, lo:hi].T
        fileobj.write(_format_rows(rows, 1))
