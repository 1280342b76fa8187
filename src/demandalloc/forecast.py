"""Forecast-error machinery beyond the one-step optimal predictor.

Three strands: the optimal one-step predictor (predict_streams, the
innovations algorithm of Brockwell and Davis, section 5.2, run as one scalar
recursion per series, generated once per filter degree); the exact mean
squared error of simple exponential smoothing (ses_msfe, O(q) for any
smoothing constant in (0, 1]); and lead-time demand uncertainty from
partial sums of the coefficients of a seller filter's outer factor
(polyalg.inner_outer_factor, any admissible design).  The model of the
`simulate` command (simulate_inventory) allocates the path through
policy.benchmark_offsets (the one replay of a design along a path, which
routing tracks too), predicts one stream per distinct transfer row
(policy.seller_filters) in one call of predict_streams and gathers the
forecasts to the sellers by index, costs out stocks as (N, T) arrays and
raises NumericalInstability on a non-finite filter or summary, with its CSV
written by the exact block formatter of csvtext (export_simulation).  Every
per-seller economic quantity comes from a seller.MarketTable built once by
the caller.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .csvtext import BLOCK_CELLS, _format_rows
from .demand import DemandModel
from .policy import (AllocationPolicy, InsufficientHistory, benchmark_offsets,
                     seller_filters)
from .polyalg import NumericalInstability, TransferPoly, as_poly
from .seller import FBM, FBP, MarketTable, base_stock


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


def _recursion(q: int):
    """The one-step predictor of a degree-q filter, q >= 1, as a generator
    function over (rows, xs): rows[t] (repeated past the last) weights the
    innovations 1..q steps back at index t, xs are the centred observations,
    and each prediction is yielded before its observation turns into the next
    innovation.  The source comes from q alone, as dataclasses builds
    __init__; the lag sum is q flat statements, so any degree compiles."""
    e = [f"e{j}" for j in range(1, q + 1)]
    lines = ["def predict(rows, xs):",
             f" {' = '.join(e)} = 0.0",
             f" for ({', '.join(f'w{j}' for j in range(1, q + 1))},), x in "
             "zip(chain(rows, repeat(rows[-1])), xs):",
             "  p = 0.0",
             *(f"  p += w{j} * e{j}" for j in range(1, q + 1)),
             "  yield p",
             f"  {', '.join(e)} = {', '.join(['x - p', *e[:-1]])}"]
    namespace = {"chain": chain, "repeat": repeat}
    exec("\n".join(lines), namespace)
    return namespace["predict"]


def predict_streams(filters, index, series, mean: float = 0.0) -> np.ndarray:
    """One-step-ahead predictions of N series at once, shape (N, T), C order.

    Series n (row n of `series`, which must be (N, T)) is predicted with the
    innovations recursion of filters[index[n]], from its observations before
    t alone.  A degree-0 filter's series predicts the mean.  Otherwise the
    innovations rows are built once per filter, and each series runs one
    scalar recursion over Python floats, generated once per degree in the
    call (_recursion): the prediction is 0.0 plus the weighted innovations
    j = 1..q in that order, and the innovation is the centred observation
    minus it, so the results are bit for bit those of a one-series scalar
    loop.  ValueError unless `series` is (N, T) with one index into
    `filters` per series.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError(f"series must be (N, T), got shape {series.shape}")
    N, T = series.shape
    filters = [as_poly(f) for f in filters]
    index = np.asarray(index, dtype=np.intp)
    if index.shape != (N,) or not np.all((index >= 0) & (index < len(filters))):
        raise ValueError(f"need one index into the {len(filters)} filters for "
                         f"each of {N} series, got {index.size}")
    rows = [_innovations_rows(f.coeffs, min(T, PREDICT_ROW_CAP))[0][:, 1:].tolist()
            if f.degree else None for f in filters]
    recursions = {q: _recursion(q) for q in {f.degree for f in filters} if q}
    out = np.zeros((N, T))
    for n, i in enumerate(index.tolist()):
        if filters[i].degree:
            predict = recursions[filters[i].degree]
            out[n] = np.fromiter(predict(rows[i], (series[n] - mean).tolist()),
                                 float, T)
    # the mean is added once, to every row; a degree-0 row holds 0.0
    return np.add(out, mean, out=out)


def ses_msfe(psi_n: TransferPoly, lam: float) -> float:
    """Root MSFE on the stream psi_n of simple exponential smoothing, the
    one-step forecast lam sum_k (1 - lam)^k X_{t-k}; lam = 1 is the naive
    last-value forecast.

    The error filter is psi_n(z) (1 - z) / (1 - rho z), rho = 1 - lam
    (Muth 1960).  With u_k = rho u_{k-1} + psi_k and u_{-1} = 0 its
    coefficients are psi_k - lam u_{k-1} up to the degree q of psi_n, and
    past it a geometric tail whose squares sum to lam u_q^2 / (2 - lam).
    Exact in O(q) for any lam in (0, 1] (ValueError otherwise): nothing is
    divided by lam and nothing cancels as lam goes to 0.  Never beats the
    optimal predictor's root MSFE.  Inf when the sum overflows.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"smoothing constant lam must lie in (0, 1], got {lam!r}")
    rho, u, mse = 1.0 - lam, 0.0, 0.0
    # Python floats: an overflow is inf, with no numpy warning
    for c in as_poly(psi_n).coeffs.tolist():
        e = c - lam * u
        mse += e * e
        u = rho * u + c
    return math.sqrt(mse + lam * u * u / (2.0 - lam))


@np.errstate(over="ignore")
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
                       model: DemandModel, demands,
                       sigma: float) -> InventoryRun:
    """Allocate a realized path by the policy, let every seller of the
    market table forecast its stream with the optimal one-step predictor and
    stock forecast + zeta sigma in the mode it picks at sigma, and cost out
    each period.  Seller n gets mu/N + (D_t - mu)/N + b[t, n-1], with b
    from policy.benchmark_offsets, from period start_period = max_lag on
    (InsufficientHistory on a shorter path).  Raises NumericalInstability
    naming sigma when a seller filter or a summary number is not finite, as
    when sigma overflows the predictor.  ValueError when the table and the
    policy count different sellers."""
    if alloc_policy.n_sellers != table.N:
        raise ValueError(f"policy has {alloc_policy.n_sellers} sellers, "
                         f"market table {table.N}")
    start = alloc_policy.max_lag
    demands = np.asarray(demands, dtype=float)
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
    try:
        filters, index = seller_filters(alloc_policy, model)
    except NumericalInstability as exc:
        raise NumericalInstability(
            f"simulation at sigma = {sigma:g} overflows: {exc}") from exc
    # sellers of one transfer row get bit-identical allocation rows: predict
    # the first seller's of each and gather
    first = np.unique(index, return_index=True)[1]
    pred = predict_streams(filters, np.arange(len(filters)), alloc[first],
                           mean=model.mu / table.N)[index]
    zeta = np.where(fbp, table.zeta_fbp, table.zeta_fbm)[:, None]
    stock = base_stock(pred, sigma, zeta)
    h_bar = np.where(fbp, table.costs.H, table.h)[:, None]
    cost = (h_bar * np.maximum(stock - alloc, 0.0)
            + table.b[:, None] * np.maximum(alloc - stock, 0.0))
    run = InventoryRun(
        start_period=start, demands=demands[start:],
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
