"""Seller-side economics: critical fractiles, inventory cost coefficients,
base stocks, fulfillment-mode utilities, adoption sets, and the
participation cap on demand volatility.

A seller holding inventory against a Gaussian demand forecast with root MSFE
sigma pays an expected holding-plus-backorder cost K * sigma per period at
the optimal base stock, where K depends only on the unit costs of the chosen
fulfillment mode.  Mode choice compares the two margins net of K * sigma.
market_table computes K and the fractile of every seller under both modes
once per market; adoption sets, exit thresholds and the participation bound
are array operations on it.  The normal quantile and pdf come from the
stdlib's statistics.NormalDist, the cdf from math.erfc.
"""
from __future__ import annotations

import csv
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
    mode: str

    def __post_init__(self):
        if self.K < 0:
            raise DomainError("inventory coefficient must be nonnegative")


def inventory_coefficient(h_bar: float, b: float, mode: str = FBM) -> ModeEconomics:
    """K = h_bar * zeta + (h_bar + b) * L(zeta) at zeta = quantile(b/(h_bar+b)).

    zeta is read from the smaller tail, -quantile(h_bar/(h_bar+b)) when
    b > h_bar: a fractile near 1 keeps few digits of its distance from 1.
    For zeta < 0 the two terms of K cancel, so K is summed as the equal
    (h_bar + b) * L(-zeta) - b * zeta.  The mode argument is a label carried
    through to the result; K itself depends only on the costs.
    """
    if not (h_bar > 0 and b > 0):
        raise DomainError("inventory coefficient needs positive h_bar and b")
    zeta = (std_normal_quantile(b / (h_bar + b)) if b <= h_bar
            else -std_normal_quantile(h_bar / (h_bar + b)))
    K = (h_bar * zeta + (h_bar + b) * std_normal_loss(zeta) if zeta >= 0
         else (h_bar + b) * std_normal_loss(-zeta) - b * zeta)
    return ModeEconomics(zeta=zeta, K=K, mode=mode)


def mode_economics(params: SellerParams, costs: PlatformCosts, mode: str) -> ModeEconomics:
    """Fractile and K for this seller under the requested fulfillment mode."""
    if mode == FBP:
        return inventory_coefficient(costs.H, params.b, mode=FBP)
    if mode == FBM:
        return inventory_coefficient(params.h, params.b, mode=FBM)
    raise ValueError(f"unknown mode {mode!r}")


def base_stock(mean_forecast: float, sigma: float, zeta: float) -> float:
    """Order-up-to level: forecast plus zeta standard deviations of error."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    return mean_forecast + zeta * sigma


def seller_utility(params: SellerParams, costs: PlatformCosts, mode: str,
                   mu_share: float, sigma: float) -> float:
    """Expected per-period operating payoff under the given mode.

    Margin on the mean share minus the inventory cost K * sigma.
    """
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    if mu_share <= 0:
        raise DomainError("mu_share must be positive")
    econ = mode_economics(params, costs, mode)
    f_eff = costs.F if mode == FBP else params.f
    return (costs.r - costs.rho - f_eff) * mu_share - econ.K * sigma


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
    b: np.ndarray
    f: np.ndarray
    zeta_fbm: np.ndarray
    k_fbm: np.ndarray
    zeta_fbp: np.ndarray
    k_fbp: np.ndarray
    dF: np.ndarray
    dK: np.ndarray
    # (mu/N) dF: the sigma-free part of the adoption margin.
    fixed: np.ndarray
    # Exit threshold mu dF / (N dK) where dK > 0; NaN for sellers that never exit.
    threshold: np.ndarray
    # Largest sigma at which the seller's better mode still pays.
    participation: np.ndarray

    def adopts(self, sigma, boundary: str = "inclusive") -> np.ndarray:
        """FBP mask of shape sigma.shape + (n_sellers,).

        The margin is the utility advantage of FBP over FBM,
        (mu/N) dF - sigma dK; comparing it directly stays correct when
        dK < 0 and the ratio form of the threshold flips.  A relative slack
        keeps sellers whose threshold was computed in floating point on the
        inclusive side; boundary="exclusive" drops sellers within that slack
        of their threshold (right-sided limits at a breakpoint).
        """
        varying = np.asarray(sigma, dtype=float)[..., None] * self.dK
        margin = self.fixed - varying
        slack = _BOUNDARY_SLACK * np.maximum(
            1.0, np.maximum(np.abs(self.fixed), np.abs(varying)))
        if boundary == "inclusive":
            return margin >= -slack
        if boundary == "exclusive":
            return margin > slack
        raise ValueError(f"unknown boundary {boundary!r}")

    def utilities(self, sigma: float):
        """(FBP mask, utility of each seller's chosen mode) at one sigma."""
        if sigma < 0:
            raise DomainError("sigma must be nonnegative")
        mu_share = self.mu / self.N
        if not mu_share > 0:
            raise DomainError("mu_share must be positive")
        fbp = self.adopts(sigma)
        f_eff = np.where(fbp, self.costs.F, self.f)
        k = np.where(fbp, self.k_fbp, self.k_fbm)
        return fbp, (self.costs.r - self.costs.rho - f_eff) * mu_share - k * sigma

    def breakpoints(self) -> list:
        """Ascending (sigma, seller) exit thresholds, ties by seller index."""
        exits = np.flatnonzero(self.dK > 0)
        order = exits[np.argsort(self.threshold[exits], kind="stable")]
        return list(zip(self.threshold[order].tolist(), (order + 1).tolist()))

    def participation_ub(self, sigma_cap: float) -> float:
        """Market-wide participation bound: the smallest per-seller bound,
        floored at 0 and capped at sigma_cap."""
        if not sigma_cap > 0:
            raise DomainError("sigma_cap must be positive")
        bound = float(self.participation.min(initial=math.inf))
        if bound < 0:
            return 0.0
        if bound > sigma_cap:
            warnings.warn(
                f"participation bound exceeds sigma_cap={sigma_cap:g}; cap binds",
                stacklevel=3,
            )
            return sigma_cap
        return bound


def market_table(sellers, costs: PlatformCosts, N: int, mu: float) -> MarketTable:
    """Compute every seller's K and zeta under both modes once (2 N calls to
    inventory_coefficient), and the quantities derived from them."""
    fbm = [inventory_coefficient(p.h, p.b, mode=FBM) for p in sellers]
    fbp = [inventory_coefficient(costs.H, p.b, mode=FBP) for p in sellers]
    f = np.array([p.f for p in sellers], dtype=float)
    k_fbm = np.array([e.K for e in fbm], dtype=float)
    k_fbp = np.array([e.K for e in fbp], dtype=float)
    dF = f - costs.F
    dK = k_fbp - k_fbm
    if np.any(dK < 0):
        warnings.warn(
            "K_FBP < K_FBM for a seller (holding-cost assumption violated); "
            "adoption decided by direct utility comparison",
            stacklevel=3,
        )
    mu_share = mu / N
    threshold = np.divide(mu * dF, N * dK, out=np.full(dK.shape, np.nan),
                          where=dK > 0)
    participation = np.maximum((costs.r - costs.rho - f) * mu_share / k_fbm,
                               (costs.r - costs.rho - costs.F) * mu_share / k_fbp)
    return MarketTable(
        costs=costs, N=N, mu=mu,
        b=np.array([p.b for p in sellers], dtype=float),
        f=f,
        zeta_fbm=np.array([e.zeta for e in fbm], dtype=float), k_fbm=k_fbm,
        zeta_fbp=np.array([e.zeta for e in fbp], dtype=float), k_fbp=k_fbp,
        dF=dF, dK=dK, fixed=mu_share * dF, threshold=threshold,
        participation=participation)


def _indices(mask) -> set:
    """1-based seller indices where the mask is set."""
    return set((np.flatnonzero(mask) + 1).tolist())


def mode_choice(params: SellerParams, costs: PlatformCosts, N: int, mu: float,
                sigma: float) -> str:
    """FBP iff the fulfillment saving covers the extra inventory cost.

    The boundary is inclusive: a seller exactly at its switching threshold
    adopts (see MarketTable.adopts).
    """
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    return FBP if market_table([params], costs, N, mu).adopts(sigma)[0] else FBM


def adoption_set(sellers, costs: PlatformCosts, N: int, mu: float,
                 sigma: float, boundary: str = "inclusive") -> set:
    """1-based indices of sellers choosing FBP at this sigma.

    boundary="exclusive" drops sellers sitting exactly on their threshold;
    the payoff-curve export uses it for right-sided limits.
    """
    return _indices(market_table(sellers, costs, N, mu).adopts(sigma, boundary))


def sigma_participation_ub(sellers, costs: PlatformCosts, N: int, mu: float,
                           sigma_cap: float) -> float:
    """Largest sigma at which every seller's best-mode utility stays nonnegative.

    Per seller this is max over modes of margin / K; the market-wide cap is
    the minimum over sellers, floored at 0 and capped at sigma_cap.
    """
    return market_table(sellers, costs, N, mu).participation_ub(sigma_cap)


def check_cost_assumptions(sellers, costs: PlatformCosts) -> list:
    """Warn (and list messages) where platform fulfillment is not weakly
    cheaper (F <= f_n) or platform holding not weakly dearer (H >= h_n)."""
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


def k_table(sellers, costs: PlatformCosts):
    """Rows of (seller, h, b, f, K_fbm, K_fbp), 1-based."""
    rows = []
    for idx, params in enumerate(sellers, start=1):
        rows.append((idx, params.h, params.b, params.f,
                     mode_economics(params, costs, FBM).K,
                     mode_economics(params, costs, FBP).K))
    return rows


def export_k_table(sellers, costs: PlatformCosts, fileobj) -> None:
    """Write the per-seller inventory-coefficient table as CSV."""
    writer = csv.writer(fileobj)
    writer.writerow(["seller", "h", "b", "f", "K_fbm", "K_fbp"])
    for row in k_table(sellers, costs):
        writer.writerow([row[0]] + [f"{v:.6f}" for v in row[1:]])
