"""Seller-side economics: critical fractiles, inventory cost coefficients,
base stocks, and the market table that holds every seller's economics for
one market.

A seller holding inventory against a Gaussian demand forecast with root MSFE
sigma pays an expected holding-plus-backorder cost K * sigma per period at
the optimal base stock, where K depends only on the unit costs of the chosen
fulfillment mode.  Mode choice compares the two margins net of K * sigma.
market_table computes K, the fractile and the margin (r - rho - f) mu/N of
every seller under both modes once per market; mode choice and adoption sets
(MarketTable.adopts), chosen utilities (utilities), exit thresholds
(breakpoints) and the participation bound (participation_ub) are array
operations on it, and the platform layer and the simulation
(forecast.simulate_inventory) read the same table.  One comparison,
_prefers_fbp, decides every mode choice.  The normal quantile and pdf come
from the stdlib's statistics.NormalDist, the cdf from math.erfc.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

FBM = "FBM"
FBP = "FBP"

# Relative slack for the adoption comparator so a sigma computed exactly at a
# seller's switching threshold still classifies as adopting (the boundary is
# inclusive by convention).
_BOUNDARY_SLACK = 1e-9

_STD_NORMAL = NormalDist()


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf via the complementary error function, which keeps
    the relative accuracy of the far lower tail (NormalDist.cdf goes through
    erf and returns 0 already at x = -10)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal cdf: the stdlib's NormalDist.inv_cdf, which
    is Wichura's algorithm AS241 (Applied Statistics, 1988)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile defined on open interval (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def std_normal_loss(z: float) -> float:
    """Standard normal loss L(z) = pdf(z) - z * (1 - cdf(z)); nonnegative."""
    return max(_STD_NORMAL.pdf(z) - z * std_normal_cdf(-z), 0.0)


@dataclass(frozen=True)
class SellerParams:
    """Per-unit seller costs under self-fulfillment: holding h, backorder b,
    fulfillment f."""

    h: float
    b: float
    f: float

    def __post_init__(self):
        if not (self.h > 0 and self.b > 0):
            raise DomainError("holding and backorder costs must be positive")
        if not self.f >= 0:
            raise DomainError("fulfillment cost must be nonnegative")


@dataclass(frozen=True)
class PlatformCosts:
    """Platform-wide unit economics.

    rho: intermediation fee; F / H: fulfillment and holding costs charged to
    platform-fulfilled sellers; delta_f / delta_h: platform's net fulfillment
    payoff and storage rent; r: gross per-unit margin.
    """

    rho: float
    F: float
    H: float
    delta_f: float
    delta_h: float
    r: float

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise DomainError(f"{field.name} must be finite")
        if not self.H > 0:
            raise DomainError("platform holding cost H must be positive")
        if self.r <= self.rho + self.F:
            warnings.warn(
                "gross margin r does not exceed rho + F; platform-fulfilled "
                "sellers earn a nonpositive margin in this scenario",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ModeEconomics:
    """Critical fractile and inventory cost coefficient for one mode."""

    zeta: float
    K: float

    def __post_init__(self):
        if self.K < 0:
            raise DomainError("inventory coefficient must be nonnegative")


def inventory_coefficient(h_bar: float, b: float) -> ModeEconomics:
    """K = h_bar * zeta + (h_bar + b) * L(zeta) at zeta = quantile(b/(h_bar+b)).

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
    K = (h_bar * zeta + (h_bar + b) * std_normal_loss(zeta) if zeta >= 0
         else (h_bar + b) * std_normal_loss(-zeta) - b * zeta)
    return ModeEconomics(zeta=zeta, K=K)


def base_stock(mean_forecast, sigma: float, zeta):
    """Order-up-to level: forecast plus zeta standard deviations of error.
    Forecast and zeta may be arrays that broadcast."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    return mean_forecast + zeta * sigma


def _prefers_fbp(fixed, varying, boundary: str = "inclusive"):
    """Where platform fulfillment wins: its utility advantage over
    self-fulfillment is fixed - varying, the sigma-free margin term minus
    the inventory-cost term.

    Comparing the advantage directly stays correct when the platform mode's
    inventory cost is the smaller one.  A slack of _BOUNDARY_SLACK relative
    to the larger term keeps a seller whose switching point was computed in
    floating point on the inclusive side; boundary="exclusive" drops
    sellers within that slack of their switching point (right-sided limits
    at a breakpoint).
    """
    margin = fixed - varying
    slack = _BOUNDARY_SLACK * np.maximum(
        1.0, np.maximum(np.abs(fixed), np.abs(varying)))
    if boundary == "inclusive":
        return margin >= -slack
    if boundary == "exclusive":
        return margin > slack
    raise ValueError(f"unknown boundary {boundary!r}")


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

    def adopts(self, sigma, boundary: str = "inclusive") -> np.ndarray:
        """FBP mask of shape sigma.shape + (n_sellers,): where each seller
        chooses platform fulfillment, that is where the fulfillment saving
        (mu/N) dF covers the extra inventory cost sigma dK (_prefers_fbp)."""
        varying = np.asarray(sigma, dtype=float)[..., None] * self.dK
        return _prefers_fbp(self.fixed, varying, boundary)

    def utilities(self, sigma: float):
        """(FBP mask, utility of each seller's chosen mode) at one sigma:
        the chosen mode's margin minus its K * sigma."""
        if sigma < 0:
            raise DomainError("sigma must be nonnegative")
        if not self.mu / self.N > 0:
            raise DomainError("mu_share must be positive")
        fbp = self.adopts(sigma)
        margin = np.where(fbp, self.margin_fbp, self.margin_fbm)
        k = np.where(fbp, self.k_fbp, self.k_fbm)
        return fbp, margin - k * sigma

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


def _mode_economics(h_bar: float, b: float, n: int, h_name: str) -> ModeEconomics:
    """Seller n's inventory_coefficient(h_bar, b) under h_name, "h" or "H".
    A fractile b/(h_bar + b) rounding to 0 or 1 raises DomainError naming
    sellers[n], or platform.H where H is the smaller cost."""
    try:
        return inventory_coefficient(h_bar, b)
    except DomainError:
        field = "platform.H" if h_name == "H" and h_bar < b else f"sellers[{n}]"
        raise DomainError(
            f"{field}: the critical fractile b/({h_name} + b) at {h_name} = "
            f"{h_bar:g}, b = {b:g} rounds to {int(b > h_bar)}, which has no "
            "normal quantile") from None


def market_table(sellers, costs: PlatformCosts, mu: float) -> MarketTable:
    """Compute every seller's K and zeta under both modes once (2 N calls to
    inventory_coefficient, N = len(sellers)), and the quantities derived
    from them."""
    N = len(sellers)
    fbm = [_mode_economics(p.h, p.b, n, "h") for n, p in enumerate(sellers, 1)]
    fbp = [_mode_economics(costs.H, p.b, n, "H") for n, p in enumerate(sellers, 1)]
    f = np.array([p.f for p in sellers], dtype=float)
    k_fbm = np.array([e.K for e in fbm], dtype=float)
    k_fbp = np.array([e.K for e in fbp], dtype=float)
    dF = f - costs.F
    dK = k_fbp - k_fbm
    mu_share = mu / N
    margin_fbm = (costs.r - costs.rho - f) * mu_share
    margin_fbp = np.full(N, (costs.r - costs.rho - costs.F) * mu_share)
    threshold = np.divide(mu * dF, N * dK, out=np.full(dK.shape, np.nan),
                          where=dK > 0)
    return MarketTable(
        costs=costs, N=N, mu=mu,
        h=np.array([p.h for p in sellers], dtype=float),
        b=np.array([p.b for p in sellers], dtype=float),
        zeta_fbm=np.array([e.zeta for e in fbm], dtype=float), k_fbm=k_fbm,
        zeta_fbp=np.array([e.zeta for e in fbp], dtype=float), k_fbp=k_fbp,
        margin_fbm=margin_fbm, margin_fbp=margin_fbp,
        dK=dK, fixed=mu_share * dF, threshold=threshold,
        participation=np.maximum(margin_fbm / k_fbm, margin_fbp / k_fbp))


def check_cost_assumptions(sellers, costs: PlatformCosts) -> list:
    """Warn (and list messages) where platform fulfillment is not weakly
    cheaper (F <= f_n) or platform holding not weakly dearer (H >= h_n),
    which is where dK_n < 0: K grows strictly with the holding cost."""
    messages = []
    for idx, params in enumerate(sellers, start=1):
        if costs.F > params.f:
            messages.append(f"seller {idx}: platform fulfillment cost F={costs.F:g} "
                            f"exceeds own cost f={params.f:g}")
        if costs.H < params.h:
            messages.append(f"seller {idx}: platform holding cost H={costs.H:g} "
                            f"below own cost h={params.h:g}")
    for msg in messages:
        warnings.warn(msg, stacklevel=2)
    return messages
