"""Platform payoff evaluation and the volatility design problem.

The platform earns the intermediation fee on all volume plus fulfillment
margin and storage rent on platform-fulfilled sellers.  Raising the design
volatility sigma grows rented safety stock linearly but pushes sellers past
their adoption thresholds one by one, so the payoff is piecewise linear with
downward jumps at finitely many breakpoints and the optimum sits at one of
them (or at the volatility floor).

Every function here reads one seller.MarketTable, built once per market by
seller.market_table; the caller supplies the volatility floor and the
participation bound it wants.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polyalg import NumericalInstability
from .seller import DomainError, MarketTable

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
    gamma_fbp: float
    gamma_fbm: float

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
                            adopters=frozenset(
                                (np.flatnonzero(self.mask[i]) + 1).tolist()),
                            n_adopters=int(self.n_adopters[i]),
                            gamma_fbp=float(self.gamma_fbp[i]),
                            gamma_fbm=float(self.gamma_fbm[i]))


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


def payoff(table: MarketTable, sigma: float) -> PayoffResult:
    """Expected per-period platform payoff at design volatility sigma, with
    the adopters of the inclusive adoption rule holding their safety stock
    at the platform (gamma_fbp) and everyone else privately (gamma_fbm)."""
    return _evaluate(table, sigma, table.adopts(sigma)).result()


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


def optimize(table: MarketTable, sigma_lower: float,
             sigma_cap: float) -> PlatformSolution:
    """Maximize the payoff over implementable sigma in [sigma_L, sigma_U],
    with sigma_L = sigma_lower (the design's volatility floor) and sigma_U
    the participation bound under sigma_cap.

    Within a fixed adopter set the payoff is affine and (for nonnegative
    storage rent on every adopter, checked) nondecreasing, so it suffices to
    evaluate the volatility floor, every exit threshold in range, and the
    participation cap.  Ties resolve to the smallest sigma.
    """
    _check_optimizer_domain(table)
    sigma_u = table.participation_ub(sigma_cap)
    if sigma_u < sigma_lower:
        raise EmptyFeasibleSet(
            f"participation cap {sigma_u:g} below volatility floor "
            f"{sigma_lower:g}")
    bps = table.breakpoints()
    in_range = (s for s, _ in bps if sigma_lower <= s <= sigma_u)
    candidates = np.array(sorted({sigma_lower, sigma_u, *in_range}))
    ev = _evaluate(table, candidates, table.adopts(candidates))

    best = 0
    totals = ev.total.tolist()
    for i, total in enumerate(totals):
        if total > totals[best] + _PAYOFF_TIE_TOL * max(1.0, abs(totals[best])):
            best = i
    res = ev.result(best)
    return PlatformSolution(sigma_star=float(candidates[best]),
                            payoff_star=res.total, adopters=res.adopters,
                            gamma_fbp=res.gamma_fbp, gamma_fbm=res.gamma_fbm,
                            payoff_breakdown=res.breakdown,
                            breakpoints=tuple(bps), sigma_lower=sigma_lower,
                            sigma_upper=sigma_u)


_SIDE_RANK = {"left": 0, "interior": 1, "right": 2}


def payoff_curve(table: MarketTable, sigma_grid, sigma_upper: float):
    """Plot-ready payoff samples: the grid plus both one-sided limits at
    every jump (each breakpoint in range, and the participation bound
    sigma_upper, from MarketTable.participation_ub, past which the payoff
    is zero).  NumericalInstability when a total overflows."""
    grid = np.sort(np.asarray(sigma_grid, dtype=float).ravel(), kind="stable")
    if not grid.size:
        return []
    lo, hi = grid[0], grid[-1]
    # One row per point: sigma, side, and how its adopters are found
    # ("inclusive" or "exclusive" rule, or "zero" past sigma_upper).
    rows = [(s, "interior", "zero" if s > sigma_upper else "inclusive")
            for s in grid.tolist()]
    for s, _ in table.breakpoints():
        if lo <= s <= min(hi, sigma_upper):
            rows += [(s, "left", "inclusive"), (s, "right", "exclusive")]
    if lo <= sigma_upper <= hi:
        rows += [(sigma_upper, "left", "inclusive"),
                 (sigma_upper, "right", "zero")]
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
    if not all(np.isfinite(c).all() for c in columns):
        raise NumericalInstability("payoff curve: a payoff or safety-stock "
                                   "total overflows the float range")
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


def solution_document(solution: PlatformSolution, table: MarketTable) -> dict:
    """Structured summary mirroring the headline outcome table."""
    floor = payoff(table, solution.sigma_lower)

    def cumulative_utility(sigma):
        """Sum over sellers of the chosen mode's operating payoff."""
        return float(table.utilities(sigma)[1].sum())

    return {
        "sigma_star": solution.sigma_star,
        "payoff_star": solution.payoff_star,
        "adopters": sorted(solution.adopters),
        "gamma_fbp": solution.gamma_fbp,
        "gamma_fbm": solution.gamma_fbm,
        "payoff_breakdown": dict(solution.payoff_breakdown),
        "cumulative_utility": cumulative_utility(solution.sigma_star),
        "sigma_lower": solution.sigma_lower,
        "sigma_upper": solution.sigma_upper,
        "breakpoints": [{"sigma": s, "seller": n} for s, n in solution.breakpoints],
        "at_sigma_lower": {
            "payoff": floor.total,
            "adopters": sorted(floor.adopters),
            "gamma_fbp": floor.gamma_fbp,
            "gamma_fbm": floor.gamma_fbm,
            "cumulative_utility": cumulative_utility(solution.sigma_lower),
        },
    }
