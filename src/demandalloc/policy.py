"""Construction and verification of demand-allocation policies.

A policy hands seller n the filtered stream psi_n = (psi/N) * T_n, where the
per-seller transfers T_n keep the contemporaneous share uniform (T_n(0) = 1)
and sum to N so the sellers' streams add back to market demand.  Neutral
policies give every seller the same mean share and the same root MSFE; the
designs here hit any target sigma at or above the lower bound |psi(0)|/N
using one or two lags of memory.  The transfer structure lives only here:
routing and forecasting read it from the policy they are given.
"""
from __future__ import annotations

import math

import numpy as np

from .demand import DemandModel
from .polyalg import TransferPoly, as_poly, poly_mul

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
    """A design is its per-seller transfer polynomials.

    Transfers follow the normalized convention: T_n(0) = 1 for every seller
    and sum(T_n) = N coefficient-wise.  Construction validates both.
    """

    __slots__ = ("n_sellers", "transfers")

    def __init__(self, n_sellers: int, transfers) -> None:
        if n_sellers < 1:
            raise ValueError("need at least one seller")
        transfers = tuple(as_poly(t) for t in transfers)
        if len(transfers) != n_sellers:
            raise ValueError("one transfer per seller required")
        for t in transfers:
            if abs(t.coeffs[0] - 1.0) > ADMISSIBILITY_TOL:
                raise ValueError("each transfer must have T_n(0) = 1")
        excess = np.zeros(max(len(t) for t in transfers))
        for t in transfers:
            excess[:len(t)] += t.coeffs
        excess[0] -= n_sellers
        if np.max(np.abs(excess)) > ADMISSIBILITY_TOL:
            raise ValueError("transfers must sum to N coefficient-wise (admissibility)")
        self.n_sellers = int(n_sellers)
        self.transfers = transfers

    @property
    def max_lag(self) -> int:
        return max(t.degree for t in self.transfers)

    def __repr__(self) -> str:
        return f"AllocationPolicy(N={self.n_sellers}, max_lag={self.max_lag})"


def uniform_policy(N: int) -> AllocationPolicy:
    """Every seller receives the stream psi/N: T_n = 1."""
    return AllocationPolicy(N, [TransferPoly([1.0]) for _ in range(N)])


def sigma_lower_bound(model: DemandModel, N: int) -> float:
    """Floor on any neutral policy's per-seller root MSFE: |psi(0)|/N."""
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
        roles = _alternating(alpha, 1, 1, N)
    else:
        roles = [TransferPoly([1.0, alpha, alpha]), TransferPoly([1.0, 0.0, -alpha])]
        roles += _alternating(alpha, 1, 3, N)
    return AllocationPolicy(N, roles)


def lagged_variant(model: DemandModel, N: int, sigma_target: float,
                   k: int) -> AllocationPolicy:
    """Even-N design with the memory pushed k periods back: T_n = 1 + (-1)^n a z^k."""
    if N % 2 != 0:
        raise ValueError("lagged variant requires an even number of sellers")
    if k < 1:
        raise ValueError("lag k must be at least 1")
    sigma_l, alpha = _check_target(model, N, sigma_target)
    if sigma_target == sigma_l:
        return uniform_policy(N)
    return AllocationPolicy(N, _alternating(alpha, k, 1, N))


def _alternating(alpha, k, first, last):
    """Transfers 1 + (-1)^n a z^k of sellers first..last."""
    return [TransferPoly([1.0] + [0.0] * (k - 1) + [(-1.0) ** n * alpha])
            for n in range(first, last + 1)]


def seller_filter(policy: AllocationPolicy, model: DemandModel, n: int) -> TransferPoly:
    """Seller n's demand filter psi_n = (psi * T_n) / N; n is 1-based."""
    if not 1 <= n <= policy.n_sellers:
        raise IndexError(f"seller index {n} outside 1..{policy.n_sellers}")
    product = poly_mul(model.psi, policy.transfers[n - 1])
    return TransferPoly(product.coeffs / policy.n_sellers)


def benchmark_offsets(policy: AllocationPolicy, model: DemandModel,
                      demands) -> np.ndarray:
    """Per-period offsets of the benchmark from the equal split, shape (T, N).

    b[t, n-1] = (1/N) sum_{k>=1} T_nk (D_{t-k} - mu), so seller n's
    benchmark share in period t is D_t/N + b[t, n-1].  The one place a
    design's transfers meet a demand path: forecast.simulate_inventory
    allocates from it and routing.route_path tracks it.  Lags before the path
    count as demand at the mean.  Read from the lag coefficients directly, so
    a memoryless design gives exact zeros.
    """
    dev = np.asarray(demands, dtype=float) - model.mu
    N = policy.n_sellers
    lags = np.zeros((N, policy.max_lag + 1))
    for i, t_poly in enumerate(policy.transfers):
        lags[i, :len(t_poly)] = t_poly.coeffs / N
    offsets = np.zeros((dev.size, N))
    for k in range(1, min(policy.max_lag, dev.size - 1) + 1):
        offsets[k:] += dev[:-k, None] * lags[:, k]
    return offsets
