"""Seller-side economics: critical fractiles, inventory cost coefficients,
base stocks, and the market table that holds every seller's economics for
one market.

A seller holding inventory against a Gaussian demand forecast with root MSFE
sigma pays an expected holding-plus-backorder cost K * sigma per period at
the optimal base stock, where K depends only on the unit costs of the chosen
fulfillment mode.  Mode choice compares the two margins net of K * sigma.
market_table computes K, the fractile and the margin (r - rho - f) mu/N of
every seller under both modes once per market; mode choice and adoption sets
(MarketTable.adopts), each seller's switching point along an ascending sigma
array (switch_index), exit thresholds (breakpoints) and the participation
bound (participation_ub) are array operations on it, and the platform layer
and the simulation (forecast.simulate_inventory) read the same table.  One
comparison, _prefers_fbp, decides every mode choice; exclusive=True leaves
out the sellers at their switching point.

market_table reads a market's sellers as one SellerParams of cost columns
and streams the (zeta, K) pairs of one scalar function, inventory_coefficient,
for every seller and mode into arrays, with no object per seller.
The normal quantile is the C function _statistics._normal_dist_inv_cdf
that the stdlib's NormalDist.inv_cdf returns (NormalDist itself only where
that accelerator is missing), the pdf NormalDist.pdf's expression written
out and the cdf math.erfc, so K and zeta match the stdlib's methods bit for
bit (numpy's exp and log do not match libm's in the last bits).
"""
from __future__ import annotations

import math
import warnings
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

try:
    # the quantile NormalDist.inv_cdf returns, without importing statistics
    # (and its fractions and decimal)
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the C accelerator
    from statistics import NormalDist

    def _normal_dist_inv_cdf(p: float, mu: float, sigma: float) -> float:
        return NormalDist(mu, sigma).inv_cdf(p)

FBM = "FBM"
FBP = "FBP"

# Relative slack for the adoption comparator so a sigma computed exactly at a
# seller's switching threshold still classifies as adopting (the boundary is
# inclusive by convention).
_BOUNDARY_SLACK = 1e-9

# NormalDist.pdf's normaliser sqrt(tau * variance) at variance 1
_SQRT_TAU = math.sqrt(math.tau)
_SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf via the complementary error function, which keeps
    the relative accuracy of the far lower tail (NormalDist.cdf goes through
    erf and returns 0 already at x = -10)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal cdf: NormalDist().inv_cdf(p) of the stdlib,
    which is Wichura's algorithm AS241 (Applied Statistics, 1988)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile defined on open interval (0, 1), got {p}")
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def std_normal_loss(z: float) -> float:
    """Standard normal loss L(z) = pdf(z) - z * (1 - cdf(z)); nonnegative.
    The pdf is NormalDist.pdf's expression at mean 0 and variance 1 and the
    tail std_normal_cdf(-z)'s, both written out to save the calls."""
    loss = math.exp(z * z / -2.0) / _SQRT_TAU - z * (0.5 * math.erfc(z / _SQRT2))
    return 0.0 if loss < 0.0 else loss


class SellerParams:
    """Per-unit self-fulfillment costs h, b, f of a market's sellers, as
    read-only float columns; DomainError names the first fault, sellers[n]."""

    def __init__(self, h, b, f):
        columns = np.array([h, b, f], dtype=float)
        if columns.ndim != 2:
            raise ValueError("h, b and f must be columns of one length")
        columns.flags.writeable = False
        self.h, self.b, self.f = columns
        unpriced = ~((self.h > 0) & (self.b > 0))
        faults = np.flatnonzero(unpriced | ~(self.f >= 0))
        if faults.size:
            raise DomainError(f"sellers[{faults[0] + 1}]: " + (
                "holding and backorder costs must be positive" if unpriced[faults[0]]
                else "fulfillment cost must be nonnegative"))

    def __len__(self) -> int:
        return self.h.size


class _PlatformCostFields(NamedTuple):
    rho: float
    F: float
    H: float
    delta_f: float
    delta_h: float
    r: float


class PlatformCosts(_PlatformCostFields):
    """Platform-wide unit economics.

    rho: intermediation fee; F / H: fulfillment and holding costs charged to
    platform-fulfilled sellers; delta_f / delta_h: platform's net fulfillment
    payoff and storage rent; r: gross per-unit margin.  Construction
    checks that every field is finite and H > 0, and warns when
    r <= rho + F; the tuple's _make and _replace skip those checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
        if not self.H > 0:
            raise DomainError("platform holding cost H must be positive")
        if self.r <= self.rho + self.F:
            warnings.warn(
                "gross margin r does not exceed rho + F; platform-fulfilled "
                "sellers earn a nonpositive margin in this scenario",
                stacklevel=2,
            )
        return self


def inventory_coefficient(h_bar: float, b: float) -> tuple:
    """(zeta, K): the critical fractile zeta = quantile(b/(h_bar+b)) and
    K = h_bar * zeta + (h_bar + b) * L(zeta), the cost per unit of sigma.

    zeta is read from the smaller tail, -quantile(h_bar/(h_bar+b)) when
    b > h_bar: a fractile near 1 keeps few digits of its distance from 1.
    For zeta < 0 the two terms of K cancel, so K is summed as the equal
    (h_bar + b) * L(-zeta) - b * zeta.  FBM runs on the seller's own
    holding cost h, FBP on the platform's H.
    """
    if not (h_bar > 0 and b > 0):
        raise DomainError("inventory coefficient needs positive h_bar and b")
    zeta = (std_normal_quantile(b / (h_bar + b)) if b <= h_bar
            else -std_normal_quantile(h_bar / (h_bar + b)))
    return zeta, (h_bar * zeta + (h_bar + b) * std_normal_loss(zeta) if zeta >= 0
                  else (h_bar + b) * std_normal_loss(-zeta) - b * zeta)


def base_stock(mean_forecast, sigma: float, zeta):
    """Order-up-to level: forecast plus zeta standard deviations of error.
    Forecast and zeta may be arrays that broadcast."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    return mean_forecast + zeta * sigma


def _prefers_fbp(fixed, sigma, dK, exclusive: bool = False):
    """Where platform fulfillment wins: its utility advantage over
    self-fulfillment is fixed - sigma * dK, the sigma-free margin term minus
    the inventory-cost term.

    Comparing the advantage directly stays correct when the platform mode's
    inventory cost is the smaller one.  A slack of _BOUNDARY_SLACK relative
    to the larger term keeps a seller whose switching point was computed in
    floating point on the inclusive side; exclusive=True drops sellers
    within that slack of their switching point (right-sided limits at a
    breakpoint).  Callers ignore overflow; an advantage of -inf or NaN
    never adopts, which keeps adoption monotone in sigma.
    """
    varying = sigma * dK
    margin = fixed - varying
    slack = _BOUNDARY_SLACK * np.maximum(
        1.0, np.maximum(np.abs(fixed), np.abs(varying)))
    if exclusive:
        return margin > slack
    return (margin >= -slack) & (margin > -np.inf)


class MarketTable(NamedTuple):
    """Per-seller quantities of one market, as arrays indexed by seller
    (0-based).

    Mode choice depends on a seller only through its two inventory
    coefficients and its fulfillment saving dF = f - F, so every adoption
    set, exit threshold, payoff and participation bound of the market reads
    these arrays.  Build it with market_table.
    """

    costs: PlatformCosts
    N: int
    mu: float
    h: np.ndarray
    b: np.ndarray
    zeta_fbm: np.ndarray
    k_fbm: np.ndarray
    zeta_fbp: np.ndarray
    k_fbp: np.ndarray
    # Per-mode margin (r - rho - f) mu/N, with f = F under platform fulfillment.
    margin_fbm: np.ndarray
    margin_fbp: np.ndarray
    dK: np.ndarray
    # (mu/N) dF: the sigma-free part of the adoption margin.
    fixed: np.ndarray
    # Exit threshold mu dF / (N dK) where dK > 0; NaN for sellers that never exit.
    threshold: np.ndarray
    # Largest sigma at which the seller's better mode still pays.
    participation: np.ndarray

    def adopts(self, sigma, exclusive: bool = False) -> np.ndarray:
        """FBP mask of shape sigma.shape + (n_sellers,): where each seller
        chooses platform fulfillment, that is where the fulfillment saving
        (mu/N) dF covers the extra inventory cost sigma dK (_prefers_fbp;
        exclusive=True leaves out the sellers at their switching point)."""
        sigma = np.asarray(sigma, dtype=float)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            return _prefers_fbp(self.fixed, sigma, self.dK, exclusive)

    def switch_index(self, sigma, exclusive: bool = False) -> np.ndarray:
        """Index i in [0, sigma.size], per seller, along an ascending sigma:
        a seller with dK > 0 adopts exactly at sigma[:i] (it exits), any
        other exactly at sigma[i:] (it stays, or enters if dK < 0 and dF <
        0).  A search over sigma that fixes four bits of i per round, each
        round one _prefers_fbp call on (15, n_sellers) arrays, so it agrees
        with adopts point by point."""
        sigma, exits = np.asarray(sigma, dtype=float), self.dK > 0
        index, digits = np.zeros(self.N, dtype=np.intp), np.arange(1, 16)[:, None]
        step = 1 << 4 * ((sigma.size.bit_length() - 1) // 4) if sigma.size else 0
        with np.errstate(over="ignore", invalid="ignore"):
            while step:  # step on while sigma[probe - 1] shows the first mode
                probe = index + step * digits
                first = _prefers_fbp(self.fixed, sigma.take(probe - 1, mode="clip"),
                                     self.dK, exclusive) == exits
                index += step * np.add.reduce(first & (probe <= sigma.size))
                step >>= 4
        return index

    def breakpoints(self) -> list:
        """Ascending (sigma, seller) exit thresholds mu dF_n / (N dK_n), ties
        by seller index.  Only sellers whose platform-mode coefficient is
        strictly dearer (dK_n > 0) ever exit; the rest stay for any sigma."""
        exits = np.flatnonzero(self.dK > 0)
        order = exits[np.argsort(self.threshold[exits], kind="stable")]
        return list(zip(self.threshold[order].tolist(), (order + 1).tolist()))

    def participation_ub(self, sigma_cap: float) -> float:
        """Largest sigma at which every seller's better mode still pays.

        Per seller this is the larger over modes of margin / K; the
        market-wide bound is the smallest over sellers, floored at 0 and
        capped at sigma_cap (with a warning when the cap binds).
        """
        if not sigma_cap > 0:
            raise DomainError("sigma_cap must be positive")
        bound = float(self.participation.min(initial=math.inf))
        if bound < 0:
            return 0.0
        if bound > sigma_cap:
            warnings.warn(
                f"participation bound exceeds sigma_cap={sigma_cap:g}; cap binds",
                stacklevel=2,
            )
            return sigma_cap
        return bound


def _mode_columns(h_bar, b: np.ndarray, h_name: str) -> np.ndarray:
    """zeta and K rows of every seller under one mode, one
    inventory_coefficient call each, on holding costs h_bar (the column h or
    the platform's H, named h_name).  Where the smaller tail min(h_bar, b) /
    (h_bar + b) is 0, DomainError names sellers[n], or platform.H if H < b."""
    with np.errstate(over="ignore"):
        tail = np.minimum(h_bar, b) / (h_bar + b)
    if not tail.all():
        n = int(np.argmin(tail))
        x, y = float(h_bar if h_name == "H" else h_bar[n]), float(b[n])
        field = "platform.H" if h_name == "H" and x < y else f"sellers[{n + 1}]"
        raise DomainError(
            f"{field}: the critical fractile b/({h_name} + b) at "
            f"{h_name} = {x:g}, b = {y:g} rounds to {int(y > x)}, "
            "which has no normal quantile")
    holding = repeat(h_bar) if h_name == "H" else h_bar.tolist()
    pairs = np.fromiter(
        chain.from_iterable(map(inventory_coefficient, holding, b.tolist())),
        float, 2 * b.size)
    return pairs.reshape(-1, 2).T.copy()


def market_table(sellers, costs: PlatformCosts, mu: float) -> MarketTable:
    """Compute every seller's K and zeta under both modes once (2 N
    evaluations of inventory_coefficient, N = len(sellers)), and the
    quantities derived from them.  DomainError unless mu / N > 0."""
    h, b, f, N = sellers.h, sellers.b, sellers.f, len(sellers)
    mu_share = mu / N
    if not mu_share > 0:
        raise DomainError("mu_share must be positive")
    zeta_fbm, k_fbm = _mode_columns(h, b, "h")
    zeta_fbp, k_fbp = _mode_columns(costs.H, b, "H")
    dF = f - costs.F
    dK = k_fbp - k_fbm
    # Past the float range a quantity is +-inf: the commands name non-finite
    # outputs, and participation_ub caps an inf bound with its warning.
    with np.errstate(over="ignore"):
        margin_fbm = (costs.r - costs.rho - f) * mu_share
        margin_fbp = np.full(N, (costs.r - costs.rho - costs.F) * mu_share)
        threshold = np.divide(mu * dF, N * dK, out=np.full(dK.shape, np.nan),
                              where=dK > 0)
        return MarketTable(
            costs=costs, N=N, mu=mu, h=h, b=b,
            zeta_fbm=zeta_fbm, k_fbm=k_fbm, zeta_fbp=zeta_fbp, k_fbp=k_fbp,
            margin_fbm=margin_fbm, margin_fbp=margin_fbp,
            dK=dK, fixed=mu_share * dF, threshold=threshold,
            participation=np.maximum(margin_fbm / k_fbm, margin_fbp / k_fbp))


def check_cost_assumptions(sellers, costs: PlatformCosts) -> None:
    """Warn where platform fulfillment is not weakly cheaper (F <= f_n) or
    platform holding not weakly dearer (H >= h_n), which is where dK_n < 0:
    K grows strictly with the holding cost.  One warning per rule that
    trips, naming its first seller and counting the others."""
    rules = ((costs.F > sellers.f, "fulfillment cost F={:g} exceeds own cost f={:g}",
              costs.F, sellers.f),
             (costs.H < sellers.h, "holding cost H={:g} below own cost h={:g}",
              costs.H, sellers.h))
    for tripped, text, platform, own in rules:
        hits = np.flatnonzero(tripped)
        if hits.size:
            n = hits[0]
            more = f" (and {hits.size - 1} more sellers)" if hits.size > 1 else ""
            warnings.warn(f"seller {n + 1}: platform "
                          f"{text.format(platform, own[n])}{more}", stacklevel=2)
