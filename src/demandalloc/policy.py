"""Construction and verification of demand-allocation policies.

A policy hands seller n the filtered stream psi_n = (psi/N) * T_n, where the
per-seller transfers T_n keep the contemporaneous share uniform (T_n(0) = 1)
and sum to N so the sellers' streams add back to market demand.  Neutral
policies give every seller the same mean share and the same root MSFE; the
designs here hit any target sigma at or above the lower bound |psi(0)|/N
using one or two lags of memory, and have one distinct transfer row at the
bound, two for even N, three at N = 3 and four for odd N >= 5.  A design is one (N, L+1) transfer matrix, so the work that
depends on a transfer (seller_filters) runs once per distinct row and is
gathered to the sellers by index.  The transfer structure lives only here:
routing and forecasting read it from the policy they are given.
"""
from __future__ import annotations

import math

import numpy as np

from .demand import DemandModel
from .polyalg import NumericalInstability, TransferPoly, trim_trailing

ADMISSIBILITY_TOL = 1e-10


class BelowLowerBound(ValueError):
    """Requested sigma target below the implementable floor |psi(0)|/N."""

    def __init__(self, sigma_target: float, sigma_lower: float):
        self.sigma_target = sigma_target
        self.sigma_lower = sigma_lower
        super().__init__(
            f"sigma target {sigma_target:g} is below the lower bound {sigma_lower:g}"
        )


class Infeasible(ValueError):
    """No admissible policy can meet the request (e.g. N=1 above the bound)."""


class InsufficientHistory(ValueError):
    """Demand path no longer than the policy's memory."""


class AllocationPolicy:
    """A design is its (N, L+1) transfer matrix: row n - 1 holds seller n's
    transfer T_n, low order first, and N is the row count.

    Transfers follow the normalized convention: T_n(0) = 1 for every seller
    and the rows sum to N coefficient-wise.  Construction trims the rows as
    TransferPoly does (polyalg.trim_trailing), so a row means what
    TransferPoly(row) means, and validates both; `transfers` is read-only.
    """

    __slots__ = ("transfers",)

    def __init__(self, transfers) -> None:
        t = np.array(transfers, dtype=float)
        if t.ndim != 2 or 0 in t.shape:
            raise ValueError("need at least one seller: transfers must be an "
                             f"(N, L+1) matrix, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("coeffs must be finite")
        t = trim_trailing(t)
        if np.any(np.abs(t[:, 0] - 1.0) > ADMISSIBILITY_TOL):
            raise ValueError("each transfer must have T_n(0) = 1")
        # a running sum down the rows, seller by seller (a pairwise
        # reduction would move the last bits)
        excess = np.cumsum(t, axis=0)[-1]
        excess[0] -= t.shape[0]
        if np.max(np.abs(excess)) > ADMISSIBILITY_TOL:
            raise ValueError("transfers must sum to N coefficient-wise (admissibility)")
        t.flags.writeable = False
        self.transfers = t

    @property
    def n_sellers(self) -> int:
        return self.transfers.shape[0]

    @property
    def max_lag(self) -> int:
        return self.transfers.shape[1] - 1

    def __repr__(self) -> str:
        return f"AllocationPolicy(N={self.n_sellers}, max_lag={self.max_lag})"


def uniform_policy(N: int) -> AllocationPolicy:
    """Every seller receives the stream psi/N: T_n = 1."""
    return AllocationPolicy(np.ones((N, 1)))


def sigma_lower_bound(model: DemandModel, N: int) -> float:
    """Floor |psi(0)|/N on every seller's root MSFE under any admissible
    design (root_msfe(T_n) >= |T_n(0)| = 1), reached by the uniform split."""
    if N < 1:
        raise ValueError("N must be positive")
    return abs(float(model.psi.coeffs[0])) / N


def _check_target(model: DemandModel, N: int, sigma_target: float):
    """The floor sigma_L and the transfer coefficient a = N sigma/|psi(0)| of
    a design hitting sigma_target.  Raises ValueError naming the target when
    it or a is not finite, and BelowLowerBound when it is under the floor."""
    sigma_l = sigma_lower_bound(model, N)
    alpha = N * sigma_target / abs(float(model.psi.coeffs[0]))
    if not math.isfinite(alpha):
        raise ValueError(f"sigma target {sigma_target!r} gives a non-finite "
                         f"transfer coefficient N sigma/|psi(0)| = {alpha!r}")
    if sigma_target < sigma_l:
        raise BelowLowerBound(sigma_target, sigma_l)
    return sigma_l, alpha


def neutral_policy(model: DemandModel, N: int, sigma_target: float) -> AllocationPolicy:
    """Minimal-memory neutral policy hitting the requested root MSFE.

    At the lower bound this is the uniform split.  Above it, even N uses the
    alternating one-lag transfers 1 + (-1)^n a z with a = N sigma/|psi(0)|;
    odd N gives sellers 1 and 2 two-lag transfers (1 + a z + a z^2 and
    1 - a z^2) and alternates the rest.
    """
    sigma_l, alpha = _check_target(model, N, sigma_target)
    if sigma_target == sigma_l:
        return uniform_policy(N)
    if N == 1:
        raise Infeasible("a single seller always carries the full market MSFE")
    if N % 2 == 0:
        return AllocationPolicy(_alternating(alpha, N))
    transfers = np.zeros((N, 3))
    transfers[:, :2] = _alternating(alpha, N)
    transfers[:2] = [[1.0, alpha, alpha], [1.0, 0.0, -alpha]]
    return AllocationPolicy(transfers)


def _alternating(alpha, N):
    """(N, 2) transfers 1 + (-1)^n a z of sellers n = 1..N."""
    transfers = np.ones((N, 2))
    transfers[:, 1] = alpha
    transfers[::2, 1] = -alpha
    return transfers


def seller_filters(policy: AllocationPolicy, model: DemandModel):
    """The demand filters psi_n = (psi * T_n) / N of the design's distinct
    transfer rows, and the index of each seller's: seller n's filter is
    filters[index[n - 1]].  Rows are told apart by their bytes, so rows that
    differ only in a zero's sign get a filter each.  NumericalInstability
    when a filter coefficient overflows."""
    t = policy.transfers
    keys = t.view(np.dtype((np.void, t.itemsize * t.shape[1])))[:, 0]
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    products = [np.convolve(model.psi.coeffs, np.trim_zeros(row, "b")) / t.shape[0]
                for row in t[first]]
    if not all(np.isfinite(p).all() for p in products):
        raise NumericalInstability("a seller filter psi T_n / N is not finite")
    return [TransferPoly(p) for p in products], index


@np.errstate(over="ignore", invalid="ignore")
def benchmark_offsets(policy: AllocationPolicy, model: DemandModel,
                      demands) -> np.ndarray:
    """Per-period offsets of the benchmark from the equal split, shape (T, N).

    b[t, n-1] = (1/N) sum_{k>=1} T_nk (D_{t-k} - mu), so seller n's
    benchmark share in period t is D_t/N + b[t, n-1].  The one place a
    design's transfers meet a demand path: forecast.simulate_inventory
    allocates from it and routing.route_path tracks it.  Lags before the path
    count as demand at the mean.  Read from the lag coefficients directly, so
    a memoryless design gives exact zeros; an offset that overflows is left
    non-finite, with no numpy warning, for the caller to name.
    """
    dev = np.asarray(demands, dtype=float) - model.mu
    N = policy.n_sellers
    lags = policy.transfers / N
    offsets = np.zeros((dev.size, N))
    for k in range(1, min(policy.max_lag, dev.size - 1) + 1):
        offsets[k:] += dev[:-k, None] * lags[:, k]
    return offsets
