"""Forecast-error machinery beyond the one-step optimal predictor.

Three strands: the optimal one-step predictor (predict_streams, the
innovations algorithm of Brockwell and Davis, section 5.2, run as one scalar
recursion per series in the two phases below); the exact mean squared
error of simple exponential smoothing (ses_msfe, O(q) for any smoothing
constant in (0, 1]); and lead-time demand uncertainty from partial sums of
the coefficients of a seller filter's outer factor
(polyalg.inner_outer_factor, any admissible design).  The model of the
`simulate` command (simulate_inventory) allocates the path through
policy.benchmark_offsets (the one replay of a design along a path, which
routing tracks too), predicts one stream per distinct transfer row
(policy.seller_filters) in one call of predict_streams and gathers the
forecasts to the sellers, costs out stocks as (N, T) arrays and raises
NumericalInstability on a non-finite filter or summary, with its CSV written
by the exact block formatter of csvtext (export_simulation).  Every
per-seller economic quantity comes from a seller.MarketTable built once by
the caller.

The predictor runs in two phases over Python floats, in the float order of
a one-series scalar loop.  The generic loop of _innovations_rows builds the
head, rows t <= q.  A generator compiled from q on first use (_recursion)
walks it, then builds and predicts with each later row in turn, up to the
settled row or PREDICT_ROW_CAP, storing none, and keeps the last weights as
locals.  Its compile time grows as q^2 (1 ms at q = 12, 34 ms at q = 60), so
above degree PREDICT_STEP_MAX_DEGREE the generic loop builds every row.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .csvtext import BLOCK_CELLS, _format_columns
from .demand import DemandModel
from .policy import (AllocationPolicy, InsufficientHistory, benchmark_offsets,
                     seller_filters)
from .polyalg import NumericalInstability, TransferPoly, as_poly
from .seller import FBM, FBP, MarketTable, base_stock


PREDICT_ROW_CAP = 5000
"""Most innovations rows a predictor computes.  The last row is reused for
every later index once the innovation variance settles (PREDICT_SETTLE_RTOL),
and past the cap even unsettled, as for a root near the unit circle."""
PREDICT_SETTLE_RTOL = 1e-14
PREDICT_STEP_MAX_DEGREE = 12
"""Highest degree whose predictor builds the rows past the head itself."""
_UNDERFLOW = "an innovation variance of a degree-{} filter underflows to 0"


def _autocovariances(coeffs: np.ndarray) -> list:
    """gamma(0..q) of the filter under unit shocks, as Python floats."""
    return [float(np.dot(coeffs[:coeffs.size - h], coeffs[h:])) for h in range(coeffs.size)]


def _innovations_rows(coeffs: np.ndarray, steps: int, v: list | None = None) -> list:
    """Banded innovations recursion for an MA(q) process over Python floats:
    rows t = 0..steps, each the weights of the innovations 1..q steps back
    at time t (0.0 where t < j), from the autocovariances gamma(0..q) and
    the one-step variances v[t], which are appended to `v` when it is given;
    stops once v moves less than PREDICT_SETTLE_RTOL (relative).
    NumericalInstability if v underflows."""
    q = coeffs.size - 1
    gamma = _autocovariances(coeffs)
    rows, v = [[0.0] * q], [] if v is None else v
    v.append(gamma[0])
    try:
        for t in range(1, steps + 1):
            lo = max(0, t - q)
            row = [0.0] * q
            # v[t] sums its terms from 0 in order of j, as sum() would
            s = 0.0
            for k in range(lo, t):
                prev, acc = rows[k], gamma[t - k]
                for j in range(lo, k):
                    acc -= prev[k - j - 1] * row[t - j - 1] * v[j]
                w = row[t - k - 1] = acc / v[k]
                s += w ** 2 * v[k]
            rows.append(row)
            v.append(gamma[0] - s)
            if t > q and abs(v[t] - v[t - 1]) <= PREDICT_SETTLE_RTOL * abs(v[t]):
                break
    except ZeroDivisionError as exc:
        raise NumericalInstability(_UNDERFLOW.format(q)) from exc
    return rows


@functools.cache
def _recursion(q: int):
    """The one-step predictor of a degree-q filter, q >= 1, as a generator
    function over (rows, xs, gamma, v, last) that yields 0.0 + w1 * e1 + ...
    + wq * eq (left to right, row t's weights) before the centred xs[t] turns
    into the next innovation.  It walks rows; up to PREDICT_STEP_MAX_DEGREE,
    given the head and its variances v, it then builds rows q + 1..last (or
    to the settled one) in the generic loop's float order, row `last` too, so
    it must be read to its end, and keeps the last weights as locals.  Source
    from q alone, once, as dataclasses builds __init__."""
    w = f"({', '.join(f'w{j}' for j in range(1, q + 1))},)"

    def body(pad):
        return [pad + "p = 0.0" + "".join(f" + w{j} * e{j}" for j in range(1, q + 1)),
                pad + "yield p",
                # shift from the oldest, so each name is read before it is rebound
                *(f"{pad}e{j} = e{j - 1}" for j in range(q, 1, -1)),
                pad + "e1 = x - p"]

    lines = ["def predict(rows, xs, gamma, v, last):",
             f" {' = '.join(f'e{j}' for j in range(1, q + 1))} = 0.0",
             " xs = iter(xs)",
             f" for {w}, x in zip(rows, xs):", *body("  "),
             f" {w} = rows[-1]"]
    if q <= PREDICT_STEP_MAX_DEGREE:
        # V{i}: variances of the last q rows; r{i}_{l}: weights the next reads
        V = [f"V{i}" for i in range(q)]
        r = [f"r{i}_{l}" for i in range(1, q) for l in range(1, i + 1)]
        lines += [" if len(rows) <= last:",
                  f"  ({', '.join(f'g{h}' for h in range(q + 1))},) = gamma",
                  f"  ({', '.join(V)},) = v[-{q}:]",
                  *(f"  ({', '.join(f'r{i}_{l}' for l in range(1, i + 1))},) = "
                    f"rows[{i - q}][:{i}]" for i in range(1, q)),
                  "  for _ in range(len(rows), last + 1):"]
        # w{q - i} at k = t - q + i: gamma minus the products for j ascending,
        # over the variance; vt sums from 0.0 with k ascending
        lines += [f"   w{q - i} = (g{q - i}" + "".join(
            f" - r{i}_{i - m} * w{q - m} * V{m}" for m in range(i)) + f") / V{i}"
            for i in range(q)]
        # shift in ascending order, so each name is read before it is rebound
        shifted = [f"r{i + 1}_{l}" for i in range(1, q - 1) for l in range(1, i + 1)]
        lines += ["   vt = g0 - (0.0" + "".join(f" + w{q - i} ** 2 * V{i}"
                                              for i in range(q)) + ")",
                  f"   if abs(vt - V{q - 1}) <= {PREDICT_SETTLE_RTOL!r} * abs(vt):",
                  "    break",
                  *(f"   {a} = {b}" for a, b in zip(
                      [*V, *r], [*V[1:], "vt", *shifted, *(f"w{l}" for l in range(1, q))])),
                  "   for x in xs:", *body("    "), "    break"]
    lines += [" for x in xs:", *body("  ")]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["predict"]


def predict_streams(filters, series, mean: float = 0.0) -> np.ndarray:
    """One-step-ahead predictions of N series at once, shape (N, T), C order.

    Series n (row n of `series`, which must be (N, T)) is predicted with the
    innovations recursion of filters[n], from its observations before t
    alone.  A degree-0 filter's series predicts the mean.  Otherwise each
    series builds its filter's head rows and runs the predictor of its
    degree (_recursion): the prediction is 0.0 plus the weighted
    innovations j = 1..q in that order, and the innovation is the centred
    observation minus it, bit for bit as in a one-series scalar loop.
    ValueError unless `series` is (N, T) with one filter per series;
    NumericalInstability when an innovation variance underflows to 0.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError(f"series must be (N, T), got shape {series.shape}")
    N, T = series.shape
    filters = [as_poly(f) for f in filters]
    if len(filters) != N:
        raise ValueError(f"need one filter for each of {N} series, got {len(filters)}")
    out = np.zeros((N, T))
    last = min(T, PREDICT_ROW_CAP)
    for n, f in enumerate(filters):
        q, v = f.degree, []
        if q:
            # up to PREDICT_STEP_MAX_DEGREE the head alone; _recursion builds the rest
            rows = _innovations_rows(
                f.coeffs, min(q, last) if q <= PREDICT_STEP_MAX_DEGREE else last, v)
            try:  # read to the end: an underflow in row `last` raises too
                out[n] = np.fromiter(_recursion(q)(
                    rows, (series[n] - mean).tolist(), _autocovariances(f.coeffs),
                    v, last), float)
            except ZeroDivisionError as exc:
                raise NumericalInstability(_UNDERFLOW.format(q)) from exc
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


class InventoryRun(NamedTuple):
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
    when sigma overflows the predictor, or when the predictor raises it.
    ValueError when the table and the policy count different sellers."""
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
    # the sellers of a transfer row have identical allocation rows
    first = np.unique(index, return_index=True)[1]
    try:
        pred = predict_streams(filters, alloc[first], mean=model.mu / N)[index]
    except NumericalInstability as exc:
        raise NumericalInstability(f"simulation at sigma = {sigma:g}: {exc}") from exc
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
    fileobj.write(",".join(["period", "demand"] + [
        f"{col}_{i}" for i in range(1, n + 1)
        for col in ("alloc", "forecast", "stock", "cost")]) + "\r\n")
    block = max(1, BLOCK_CELLS // (4 * n + 2))
    columns = (run.allocations, run.forecasts, run.stocks, run.costs)
    for lo in range(0, periods, block):
        hi = min(lo + block, periods)
        rows = np.empty((hi - lo, 4 * n + 1))
        rows[:, 0] = run.demands[lo:hi]
        for k, col in enumerate(columns):
            rows[:, 1 + k::4] = col[:, lo:hi].T
        fileobj.write(_format_columns(
            [np.arange(run.start_period + lo, run.start_period + hi), rows]))
