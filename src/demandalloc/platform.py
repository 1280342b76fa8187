"""Platform payoff evaluation and the volatility design problem.

The platform earns the intermediation fee on all volume plus fulfillment
margin and storage rent on platform-fulfilled sellers.  Raising the design
volatility sigma grows rented safety stock linearly but pushes sellers past
their adoption thresholds one by one, so the payoff is piecewise linear with
downward jumps at finitely many breakpoints and the optimum sits at one of
them (or at the volatility floor).

Every function here reads one seller.MarketTable, built once per market by
seller.market_table; the caller supplies the volatility floor and the
participation bound it wants.  The optimizer and the curve evaluate their
sorted points in one sweep over MarketTable.switch_index (_adopter_sums),
the curve's right-sided limits at breakpoints with exclusive=True.
payoff reads one adoption mask for everything the solution document prints
at one sigma: at sigma_star (PlatformSolution.star) and at the floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvtext import BLOCK_CELLS, _format_columns
from .polyalg import NumericalInstability
from .seller import DomainError, MarketTable

_PAYOFF_TIE_TOL = 1e-9


class EmptyFeasibleSet(ValueError):
    """Participation cap falls below the volatility floor; no design exists."""


@dataclass(frozen=True)
class PayoffResult:
    """The outcome at one sigma: payoff total and terms, adopters (1-based),
    safety stocks under each mode and the sellers' cumulative utility."""

    total: float
    intermediation: float
    fulfillment_share: float
    storage_rent: float
    adopters: frozenset
    gamma_fbp: float
    gamma_fbm: float
    cumulative_utility: float


@dataclass(frozen=True)
class PlatformSolution:
    """sigma_star, the outcome there, exit thresholds and feasible range."""

    sigma_star: float
    star: PayoffResult
    breakpoints: tuple
    sigma_lower: float
    sigma_upper: float


SIDES = ("left", "interior", "right")


class Curve(NamedTuple):
    """Payoff curve samples as columns, ascending in sigma and, at one sigma,
    in side order; side holds indices into SIDES."""

    sigma: np.ndarray
    payoff: np.ndarray
    n_adopters: np.ndarray
    gamma_fbp: np.ndarray
    gamma_fbm: np.ndarray
    side: np.ndarray


def _payoff_terms(table: MarketTable, sigma, n, zeta_sum):
    """Intermediation, fulfillment share, storage rent and their total at
    sigma with n adopters whose platform fractiles sum to zeta_sum.  Callers
    ignore float overflow: past the float range a term is +-inf or NaN,
    which each command names."""
    costs, mu_share = table.costs, table.mu / table.N
    terms = (costs.rho * table.mu, costs.delta_f * mu_share * n,
             costs.delta_h * (mu_share * n + sigma * zeta_sum))
    return (*terms, terms[0] + terms[1] + terms[2])


def _adopter_sums(table: MarketTable, sigma, exclusive: bool = False):
    """At each point of an ascending sigma array: the number of adopters,
    the sum of zeta_FBP over them and of zeta_FBM over the other sellers.
    An exiting seller (dK > 0) adopts before its MarketTable.switch_index,
    any other from it on, so prefix and suffix sums over sellers binned by
    that index give every point's sums.  exclusive as in
    MarketTable.adopts."""
    size = sigma.size + 1
    key = table.switch_index(sigma, exclusive) + size * (table.dK > 0)
    # bins[w, g, i]: weight w (1, zeta_FBP, zeta_FBM) summed over the sellers
    # of group g (0 others, 1 exiting) whose index is i
    bins = np.bincount(np.concatenate((key, key + 2 * size, key + 4 * size)),
                       np.concatenate((np.ones(table.N), table.zeta_fbp,
                                       table.zeta_fbm)), 6 * size).reshape(3, 2, size)
    upto = np.add.accumulate(bins, axis=2)[..., :-1]
    after = np.add.accumulate(bins[..., ::-1], axis=2)[..., -2::-1]
    adopters, others = upto[:, 0] + after[:, 1], after[:, 0] + upto[:, 1]
    return adopters[0], adopters[1], others[2]


def payoff(table: MarketTable, sigma: float) -> PayoffResult:
    """Expected per-period platform payoff at design volatility sigma, with
    the adopters of the inclusive adoption rule holding their safety stock
    at the platform (gamma_fbp) and everyone else privately (gamma_fbm),
    and the sum of each seller's chosen mode's margin minus its K * sigma."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    mask = table.adopts(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        *terms, total = _payoff_terms(table, sigma, mask.sum(),
                                      np.where(mask, table.zeta_fbp, 0.0).sum())
        gammas = (np.where(mask, sigma * table.zeta_fbp, 0.0).sum(),
                  np.where(mask, 0.0, sigma * table.zeta_fbm).sum())
        utility = (np.where(mask, table.margin_fbp, table.margin_fbm)
                   - np.where(mask, table.k_fbp, table.k_fbm) * sigma).sum()
    return PayoffResult(float(total), *map(float, terms),
                        frozenset((np.flatnonzero(mask) + 1).tolist()),
                        *map(float, gammas), float(utility))


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
    n, zeta_sum, _ = _adopter_sums(table, candidates)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = _payoff_terms(table, candidates, n, zeta_sum)[3].tolist()
    best = 0
    for i, total in enumerate(totals):
        if total > totals[best] + _PAYOFF_TIE_TOL * max(1.0, abs(totals[best])):
            best = i
    sigma_star = float(candidates[best])
    return PlatformSolution(sigma_star, payoff(table, sigma_star), tuple(bps),
                            sigma_lower, sigma_u)


def payoff_curve(table: MarketTable, sigma_grid, sigma_upper: float) -> Curve:
    """Plot-ready payoff samples: the grid plus both one-sided limits at
    every jump (each breakpoint in range, and the participation bound
    sigma_upper, from MarketTable.participation_ub, past which the payoff
    is zero).  NumericalInstability when a total overflows."""
    grid = np.sort(np.asarray(sigma_grid, dtype=float).ravel())
    lo, hi = (grid[0], grid[-1]) if grid.size else (np.inf, -np.inf)
    bps = np.sort(table.threshold[table.dK > 0])
    bps = bps[(lo <= bps) & (bps <= min(hi, sigma_upper))]
    cap = [sigma_upper] if lo <= sigma_upper <= hi else []
    # Rows: the grid (interior), then left and right limits at breakpoints
    # and cap.  rule: 0 inclusive adopters, 1 exclusive, 2 none (zero payoff)
    sigma = np.concatenate((grid, bps, cap, bps, cap))
    sizes = (grid.size, bps.size, len(cap), bps.size, len(cap))
    side = np.repeat([1, 0, 0, 2, 2], sizes)
    rule = np.repeat([0, 0, 0, 1, 2], sizes)
    rule[:grid.size][grid > sigma_upper] = 2
    order = np.lexsort((side, sigma))
    sigma, side, rule = sigma[order], side[order], rule[order]
    n, zeta_fbp, zeta_fbm = np.zeros((3, sigma.size))
    for code, exclusive in enumerate((False, True)):
        at = rule == code
        n[at], zeta_fbp[at], zeta_fbm[at] = _adopter_sums(table, sigma[at],
                                                          exclusive)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _payoff_terms(table, sigma, n, zeta_fbp)[3]
        curve = Curve(sigma, np.where(rule == 2, 0.0, total), n.astype(np.intp),
                      sigma * zeta_fbp, sigma * zeta_fbm, side)
    if not all(np.isfinite(c).all() for c in curve[:5]):
        raise NumericalInstability("payoff curve: a payoff or safety-stock "
                                   "total overflows the float range")
    return curve


def export_curve(curve: Curve, fileobj) -> None:
    """CSV columns: sigma, payoff, n_adopters, gamma_fbp, gamma_fbm, side.
    The rows are written in blocks of about csvtext.BLOCK_CELLS cells by the
    exact formatter, side as a word column."""
    fileobj.write("sigma,payoff,n_adopters,gamma_fbp,gamma_fbm,side\r\n")
    block = BLOCK_CELLS // 5
    for lo in range(0, curve.sigma.size, block):
        rows = slice(lo, lo + block)
        fileobj.write(_format_columns([
            np.column_stack([c[rows] for c in curve[:2]]), curve.n_adopters[rows],
            np.column_stack([c[rows] for c in curve[3:5]]), (SIDES, curve.side[rows])]))


def solution_document(solution: PlatformSolution, table: MarketTable) -> dict:
    """Structured summary mirroring the headline outcome table: the
    solution's outcome at sigma_star and one payoff evaluation at
    sigma_lower."""
    star, floor = solution.star, payoff(table, solution.sigma_lower)
    return {
        "sigma_star": solution.sigma_star,
        "payoff_star": star.total,
        "adopters": sorted(star.adopters),
        "gamma_fbp": star.gamma_fbp,
        "gamma_fbm": star.gamma_fbm,
        "payoff_breakdown": {"intermediation": star.intermediation,
                             "fulfillment_share": star.fulfillment_share,
                             "storage_rent": star.storage_rent},
        "cumulative_utility": star.cumulative_utility,
        "sigma_lower": solution.sigma_lower,
        "sigma_upper": solution.sigma_upper,
        "breakpoints": [{"sigma": s, "seller": n} for s, n in solution.breakpoints],
        "at_sigma_lower": {
            "payoff": floor.total,
            "adopters": sorted(floor.adopters),
            "gamma_fbp": floor.gamma_fbp,
            "gamma_fbm": floor.gamma_fbm,
            "cumulative_utility": floor.cumulative_utility,
        },
    }
