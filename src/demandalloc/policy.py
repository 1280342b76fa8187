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

import json
from dataclasses import dataclass

import numpy as np

from .demand import DemandModel, DemandPath
from .polyalg import TransferPoly, as_poly, poly_mul, root_msfe

ADMISSIBILITY_TOL = 1e-10
NEUTRALITY_TOL = 1e-9


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
    """Demand path shorter than the policy's memory."""


class AllocationPolicy:
    """Per-seller transfer polynomials plus the common mean share.

    Transfers follow the normalized convention: T_n(0) = 1 for every seller
    and sum(T_n) = N coefficient-wise.  Construction validates both.
    """

    __slots__ = ("n_sellers", "transfers", "mean_share", "sigma_target",
                 "alpha_bar", "design", "lag")

    def __init__(self, n_sellers: int, transfers, mean_share=None,
                 sigma_target=None, alpha_bar=None, design: str = "custom",
                 lag=None) -> None:
        if n_sellers < 1:
            raise ValueError("need at least one seller")
        transfers = tuple(as_poly(t) for t in transfers)
        if len(transfers) != n_sellers:
            raise ValueError("one transfer per seller required")
        for t in transfers:
            if abs(t.coeffs[0] - 1.0) > ADMISSIBILITY_TOL:
                raise ValueError("each transfer must have T_n(0) = 1")
        width = max(len(t) for t in transfers)
        total = np.zeros(width)
        for t in transfers:
            total[:len(t)] += t.coeffs
        target = np.zeros(width)
        target[0] = n_sellers
        if np.max(np.abs(total - target)) > ADMISSIBILITY_TOL:
            raise ValueError("transfers must sum to N coefficient-wise (admissibility)")
        self.n_sellers = int(n_sellers)
        self.transfers = transfers
        self.mean_share = None if mean_share is None else float(mean_share)
        self.sigma_target = None if sigma_target is None else float(sigma_target)
        self.alpha_bar = None if alpha_bar is None else float(alpha_bar)
        self.design = design
        self.lag = None if lag is None else int(lag)

    @property
    def max_lag(self) -> int:
        return max(t.degree for t in self.transfers)

    def __repr__(self) -> str:
        return (f"AllocationPolicy(N={self.n_sellers}, design={self.design!r}, "
                f"sigma_target={self.sigma_target})")


@dataclass(frozen=True)
class NeutralityReport:
    per_seller_sigma: tuple
    per_seller_mean: tuple
    is_neutral: bool
    max_sigma_spread: float


def uniform_policy(N: int, mu: float | None = None) -> AllocationPolicy:
    """Every seller receives the stream psi/N: T_n = 1."""
    transfers = [TransferPoly([1.0]) for _ in range(N)]
    return AllocationPolicy(N, transfers,
                            mean_share=None if mu is None else mu / N,
                            design="uniform")


def sigma_lower_bound(model: DemandModel, N: int) -> float:
    """Floor on any neutral policy's per-seller root MSFE: |psi(0)|/N."""
    if N < 1:
        raise ValueError("N must be positive")
    return abs(float(model.psi.coeffs[0])) / N


def _check_target(model: DemandModel, N: int, sigma_target: float):
    sigma_l = sigma_lower_bound(model, N)
    if sigma_target < sigma_l:
        raise BelowLowerBound(sigma_target, sigma_l)
    return sigma_l


def neutral_policy(model: DemandModel, N: int, sigma_target: float,
                   permutation=None) -> AllocationPolicy:
    """Minimal-memory neutral policy hitting the requested root MSFE.

    At the lower bound this is the uniform split.  Above it, even N uses the
    alternating one-lag transfers 1 + (-1)^n a z with a = N sigma/|psi(0)|;
    odd N gives sellers 1 and 2 two-lag transfers (1 + a z + a z^2 and
    1 - a z^2) and alternates the rest.  permutation optionally relabels
    which seller gets which role.
    """
    sigma_l = _check_target(model, N, sigma_target)
    mu_share = model.mu / N
    if sigma_target == sigma_l:
        return uniform_policy(N, mu=model.mu)
    if N == 1:
        raise Infeasible("a single seller always carries the full market MSFE")
    alpha = N * sigma_target / abs(float(model.psi.coeffs[0]))
    if N % 2 == 0:
        roles = [TransferPoly([1.0, (-1.0) ** n * alpha]) for n in range(1, N + 1)]
    else:
        roles = [TransferPoly([1.0, alpha, alpha]), TransferPoly([1.0, 0.0, -alpha])]
        roles += [TransferPoly([1.0, (-1.0) ** n * alpha]) for n in range(3, N + 1)]
    transfers = _apply_permutation(roles, permutation, N)
    return AllocationPolicy(N, transfers, mean_share=mu_share,
                            sigma_target=sigma_target, alpha_bar=alpha,
                            design="even" if N % 2 == 0 else "odd", lag=1)


def lagged_variant(model: DemandModel, N: int, sigma_target: float,
                   k: int) -> AllocationPolicy:
    """Even-N design with the memory pushed k periods back: T_n = 1 + (-1)^n a z^k."""
    if N % 2 != 0:
        raise ValueError("lagged variant requires an even number of sellers")
    if k < 1:
        raise ValueError("lag k must be at least 1")
    sigma_l = _check_target(model, N, sigma_target)
    if sigma_target == sigma_l:
        return uniform_policy(N, mu=model.mu)
    alpha = N * sigma_target / abs(float(model.psi.coeffs[0]))
    transfers = []
    for n in range(1, N + 1):
        coeffs = np.zeros(k + 1)
        coeffs[0] = 1.0
        coeffs[k] = (-1.0) ** n * alpha
        transfers.append(TransferPoly(coeffs))
    return AllocationPolicy(N, transfers, mean_share=model.mu / N,
                            sigma_target=sigma_target, alpha_bar=alpha,
                            design="lagged", lag=k)


def _apply_permutation(roles, permutation, N):
    if permutation is None:
        return roles
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(1, N + 1)):
        raise ValueError("permutation must rearrange 1..N")
    transfers = [None] * N
    for role_idx, seller in enumerate(perm):
        transfers[seller - 1] = roles[role_idx]
    return transfers


def seller_filter(policy: AllocationPolicy, model: DemandModel, n: int) -> TransferPoly:
    """Seller n's demand filter psi_n = (psi * T_n) / N; n is 1-based."""
    if not 1 <= n <= policy.n_sellers:
        raise IndexError(f"seller index {n} outside 1..{policy.n_sellers}")
    product = poly_mul(model.psi, policy.transfers[n - 1])
    return TransferPoly(product.coeffs / policy.n_sellers)


def check_neutral(policy: AllocationPolicy, model: DemandModel,
                  tol: float = NEUTRALITY_TOL) -> NeutralityReport:
    """Per-seller root MSFEs and means, with the neutrality verdict."""
    sigmas = tuple(root_msfe(seller_filter(policy, model, n))
                   for n in range(1, policy.n_sellers + 1))
    means = (model.mu / policy.n_sellers,) * policy.n_sellers
    spread = max(sigmas) - min(sigmas)
    return NeutralityReport(per_seller_sigma=sigmas, per_seller_mean=means,
                            is_neutral=spread <= tol,
                            max_sigma_spread=spread)


@dataclass(frozen=True)
class ExPostAllocation:
    """Benchmark per-seller demand series computed from realized aggregates.

    allocations[n-1, j] is seller n's share in period start_period + j.
    """

    allocations: np.ndarray
    start_period: int


def allocate_ex_post(policy: AllocationPolicy, model: DemandModel,
                     path: DemandPath) -> ExPostAllocation:
    """Apply the time-domain allocation rule to a realized demand path.

    D_nt = mu/N + (1/N) sum_k T_nk (D_{t-k} - mu), reported from the first
    period with full lag history.
    """
    maxdeg = policy.max_lag
    demands = np.asarray(path.demands, dtype=float)
    T = demands.size
    if T <= maxdeg:
        raise InsufficientHistory(
            f"path length {T} does not cover the policy's {maxdeg}-period memory"
        )
    dev = demands - model.mu
    mu_share = model.mu / policy.n_sellers
    rows = np.empty((policy.n_sellers, T - maxdeg))
    for i, t_poly in enumerate(policy.transfers):
        conv = np.convolve(dev, t_poly.coeffs)
        rows[i] = mu_share + conv[maxdeg:T] / policy.n_sellers
    return ExPostAllocation(allocations=rows, start_period=maxdeg)


def benchmark_offsets(policy: AllocationPolicy, model: DemandModel,
                      demands) -> np.ndarray:
    """Per-period offsets of the benchmark from the equal split, shape (T, N).

    b[t, n-1] = (1/N) sum_{k>=1} T_nk (D_{t-k} - mu), so seller n's
    benchmark share in period t is D_t/N + b[t, n-1].  Lags before the path
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


def serialize_policy(policy: AllocationPolicy) -> str:
    """Structured text form: N, per-seller coefficients, target, alpha."""
    doc = {
        "n_sellers": policy.n_sellers,
        "transfers": [list(map(float, t.coeffs)) for t in policy.transfers],
        "mean_share": policy.mean_share,
        "sigma_target": policy.sigma_target,
        "alpha_bar": policy.alpha_bar,
        "design": policy.design,
        "lag": policy.lag,
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def deserialize_policy(text: str) -> AllocationPolicy:
    doc = json.loads(text)
    return AllocationPolicy(
        n_sellers=doc["n_sellers"],
        transfers=[TransferPoly(c) for c in doc["transfers"]],
        mean_share=doc.get("mean_share"),
        sigma_target=doc.get("sigma_target"),
        alpha_bar=doc.get("alpha_bar"),
        design=doc.get("design", "custom"),
        lag=doc.get("lag"),
    )
