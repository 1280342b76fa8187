"""Platform payoff evaluation and the volatility design problem.

The platform earns the intermediation fee on all volume plus fulfillment
margin and storage rent on platform-fulfilled sellers.  Raising the design
volatility sigma grows rented safety stock linearly but pushes sellers past
their adoption thresholds one by one, so the payoff is piecewise linear with
downward jumps at finitely many breakpoints and the optimum sits at one of
them (or at the volatility floor).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .demand import DemandModel
from .policy import sigma_lower_bound
from .seller import (DomainError, MarketTable, PlatformCosts, _indices,
                     market_table)

_PAYOFF_TIE_TOL = 1e-9


class EmptyFeasibleSet(ValueError):
    """Participation cap falls below the volatility floor; no design exists."""


@dataclass(frozen=True)
class PayoffResult:
    total: float
    intermediation: float
    fulfillment_share: float
    storage_rent: float
    adopters: frozenset
    n_adopters: int

    @property
    def breakdown(self) -> dict:
        return {"intermediation": self.intermediation,
                "fulfillment_share": self.fulfillment_share,
                "storage_rent": self.storage_rent}


@dataclass(frozen=True)
class PlatformSolution:
    sigma_star: float
    payoff_star: float
    adopters: frozenset
    gamma_fbp: float
    gamma_fbm: float
    payoff_breakdown: dict
    breakpoints: tuple
    sigma_lower: float
    sigma_upper: float


@dataclass(frozen=True)
class CurvePoint:
    sigma: float
    payoff: float
    n_adopters: int
    gamma_fbp: float
    gamma_fbm: float
    side: str


def breakpoints(sellers, costs: PlatformCosts, N: int, mu: float):
    """Ascending (sigma, seller) exit thresholds mu dF_n / (N dK_n).

    Only sellers whose platform-mode inventory coefficient is strictly
    dearer (dK_n > 0) ever exit; the rest stay for any sigma.
    """
    return market_table(sellers, costs, N, mu).breakpoints()


class _Evaluation(NamedTuple):
    """Payoff terms and safety-stock totals at an array of sigmas, for one
    row of adopter mask per sigma."""

    mask: np.ndarray
    n_adopters: np.ndarray
    intermediation: float
    fulfillment_share: np.ndarray
    storage_rent: np.ndarray
    total: np.ndarray
    gamma_fbp: np.ndarray
    gamma_fbm: np.ndarray

    def result(self, i=()) -> PayoffResult:
        return PayoffResult(total=float(self.total[i]),
                            intermediation=self.intermediation,
                            fulfillment_share=float(self.fulfillment_share[i]),
                            storage_rent=float(self.storage_rent[i]),
                            adopters=frozenset(_indices(self.mask[i])),
                            n_adopters=int(self.n_adopters[i]))


def _evaluate(table: MarketTable, sigma, mask) -> _Evaluation:
    costs = table.costs
    sigma = np.asarray(sigma, dtype=float)
    n = mask.sum(axis=-1)
    mu_share = table.mu / table.N
    zeta_sum = np.where(mask, table.zeta_fbp, 0.0).sum(axis=-1)
    intermediation = costs.rho * table.mu
    fulfillment = costs.delta_f * mu_share * n
    storage = costs.delta_h * (mu_share * n + sigma * zeta_sum)
    s = sigma[..., None]
    return _Evaluation(
        mask=mask, n_adopters=n, intermediation=intermediation,
        fulfillment_share=fulfillment, storage_rent=storage,
        total=intermediation + fulfillment + storage,
        gamma_fbp=np.where(mask, s * table.zeta_fbp, 0.0).sum(axis=-1),
        gamma_fbm=np.where(mask, 0.0, s * table.zeta_fbm).sum(axis=-1))


def _evaluate_at(table: MarketTable, sigma: float, adopters=None) -> _Evaluation:
    """One sigma, with the inclusive adoption rule unless adopters (1-based
    indices) are given."""
    if adopters is None:
        mask = table.adopts(sigma)
    else:
        mask = np.zeros(table.f.size, dtype=bool)
        mask[[i - 1 for i in adopters]] = True
    return _evaluate(table, sigma, mask)


def safety_stock_totals(sigma: float, sellers, costs: PlatformCosts, N: int,
                        mu: float, adopters=None):
    """(Gamma_FBP, Gamma_FBM): cumulative safety stock held at the platform
    by adopters and privately by everyone else, at this sigma."""
    ev = _evaluate_at(market_table(sellers, costs, N, mu), sigma, adopters)
    return float(ev.gamma_fbp), float(ev.gamma_fbm)


def payoff(sigma: float, sellers, costs: PlatformCosts, N: int, mu: float,
           adopters=None) -> PayoffResult:
    """Expected per-period platform payoff at design volatility sigma.

    adopters normally comes from the inclusive adoption rule; pass an
    explicit set to probe one-sided limits at a breakpoint.
    """
    return _evaluate_at(market_table(sellers, costs, N, mu), sigma, adopters).result()


def _cumulative_utility(table: MarketTable, sigma: float) -> float:
    return float(table.utilities(sigma)[1].sum())


def cumulative_utility(sellers, costs: PlatformCosts, N: int, mu: float,
                       sigma: float) -> float:
    """Sum over sellers of the better mode's operating payoff."""
    return _cumulative_utility(market_table(sellers, costs, N, mu), sigma)


def _check_optimizer_domain(table: MarketTable) -> None:
    """The candidate-point argument needs the payoff to be nondecreasing in
    sigma for a fixed adopter set: delta_h * zeta_FBP,n >= 0 for every
    seller.  zeta_FBP,n has the sign of b_n - H."""
    delta_h = table.costs.delta_h
    bad = np.flatnonzero(delta_h * table.zeta_fbp < 0)
    if not bad.size:
        return
    n = int(bad[0])
    if delta_h < 0:
        raise DomainError(
            f"platform.delta_h = {delta_h:g} < 0 while seller {n + 1} stocks "
            f"above the mean at the platform (b >= H); the optimizer needs "
            f"delta_h * zeta_FBP >= 0 for every seller")
    raise DomainError(
        f"sellers[{n + 1}]: b = {table.b[n]:g} < H = {table.costs.H:g} gives a "
        f"negative platform fractile; the optimizer needs "
        f"delta_h * zeta_FBP >= 0 for every seller")


def optimize(sellers, costs: PlatformCosts, model: DemandModel, N: int,
             sigma_cap: float) -> PlatformSolution:
    """Maximize the payoff over implementable sigma in [sigma_L, sigma_U].

    Within a fixed adopter set the payoff is affine and (for nonnegative
    storage rent on every adopter, checked) nondecreasing, so it suffices to
    evaluate the volatility floor, every exit threshold in range, and the
    participation cap.  Ties resolve to the smallest sigma.
    """
    table = market_table(sellers, costs, N, model.mu)
    _check_optimizer_domain(table)
    sigma_l = sigma_lower_bound(model, N)
    sigma_u = table.participation_ub(sigma_cap)
    if sigma_u < sigma_l:
        raise EmptyFeasibleSet(
            f"participation cap {sigma_u:g} below volatility floor {sigma_l:g}"
        )
    bps = table.breakpoints()
    candidates = np.array(sorted({sigma_l, sigma_u,
                                  *(s for s, _ in bps if sigma_l <= s <= sigma_u)}))
    ev = _evaluate(table, candidates, table.adopts(candidates))

    best = 0
    totals = ev.total.tolist()
    for i, total in enumerate(totals):
        if total > totals[best] + _PAYOFF_TIE_TOL * max(1.0, abs(totals[best])):
            best = i
    res = ev.result(best)
    return PlatformSolution(sigma_star=float(candidates[best]),
                            payoff_star=res.total, adopters=res.adopters,
                            gamma_fbp=float(ev.gamma_fbp[best]),
                            gamma_fbm=float(ev.gamma_fbm[best]),
                            payoff_breakdown=res.breakdown,
                            breakpoints=tuple(bps), sigma_lower=sigma_l,
                            sigma_upper=sigma_u)


_SIDE_RANK = {"left": 0, "interior": 1, "right": 2}


def payoff_curve(sellers, costs: PlatformCosts, N: int, mu: float, sigma_grid,
                 sigma_cap: float = math.inf):
    """Plot-ready payoff samples: the grid plus both one-sided limits at
    every jump (each breakpoint in range, and the participation cap where
    the payoff falls to zero)."""
    grid = np.sort(np.asarray(sigma_grid, dtype=float).ravel(), kind="stable")
    if not grid.size:
        return []
    table = market_table(sellers, costs, N, mu)
    sigma_u = table.participation_ub(sigma_cap)
    lo, hi = grid[0], grid[-1]
    # One row per point: sigma, side, and how its adopters are found
    # ("inclusive" or "exclusive" rule, or "zero" past the cap).
    rows = [(s, "interior", "zero" if s > sigma_u else "inclusive")
            for s in grid.tolist()]
    for s, _ in table.breakpoints():
        if lo <= s <= min(hi, sigma_u):
            rows += [(s, "left", "inclusive"), (s, "right", "exclusive")]
    if lo <= sigma_u <= hi:
        rows += [(sigma_u, "left", "inclusive"), (sigma_u, "right", "zero")]
    sigma, sides, rules = zip(*rows)
    sigma = np.array(sigma)
    rules = np.array(rules)
    exclusive, zero = rules == "exclusive", rules == "zero"
    mask = table.adopts(sigma)
    mask[exclusive] = table.adopts(sigma[exclusive], boundary="exclusive")
    mask[zero] = False
    ev = _evaluate(table, sigma, mask)
    order = np.lexsort(([_SIDE_RANK[side] for side in sides], sigma))
    columns = (sigma, np.where(zero, 0.0, ev.total), ev.n_adopters,
               ev.gamma_fbp, np.where(zero, 0.0, ev.gamma_fbm))
    return [CurvePoint(*values, side=sides[i])
            for i, *values in zip(order.tolist(),
                                  *(c[order].tolist() for c in columns))]


def export_curve(points, fileobj) -> None:
    """CSV columns: sigma, payoff, n_adopters, gamma_fbp, gamma_fbm, side."""
    writer = csv.writer(fileobj)
    writer.writerow(["sigma", "payoff", "n_adopters", "gamma_fbp", "gamma_fbm", "side"])
    for p in points:
        writer.writerow([f"{p.sigma:.6f}", f"{p.payoff:.6f}", p.n_adopters,
                         f"{p.gamma_fbp:.6f}", f"{p.gamma_fbm:.6f}", p.side])


def solution_document(solution: PlatformSolution, sellers, costs: PlatformCosts,
                      model: DemandModel, N: int) -> dict:
    """Structured summary mirroring the headline outcome table."""
    table = market_table(sellers, costs, N, model.mu)
    floor = _evaluate_at(table, solution.sigma_lower)
    return {
        "sigma_star": solution.sigma_star,
        "payoff_star": solution.payoff_star,
        "adopters": sorted(solution.adopters),
        "gamma_fbp": solution.gamma_fbp,
        "gamma_fbm": solution.gamma_fbm,
        "payoff_breakdown": dict(solution.payoff_breakdown),
        "cumulative_utility": _cumulative_utility(table, solution.sigma_star),
        "sigma_lower": solution.sigma_lower,
        "sigma_upper": solution.sigma_upper,
        "breakpoints": [{"sigma": s, "seller": n} for s, n in solution.breakpoints],
        "at_sigma_lower": {
            "payoff": float(floor.total),
            "adopters": sorted(_indices(floor.mask)),
            "gamma_fbp": float(floor.gamma_fbp),
            "gamma_fbm": float(floor.gamma_fbm),
            "cumulative_utility": _cumulative_utility(table, solution.sigma_lower),
        },
    }
