"""Platform payoff evaluation and the volatility design problem.

The platform earns the intermediation fee on all volume plus fulfillment
margin and storage rent on platform-fulfilled sellers.  The payoff is affine
in the design volatility sigma between the sellers' switching points and
jumps, either way, at each one, so its supremum over a range is a value at
an end or a switching point, or a one-sided limit at one of them.

Every function here reads one seller.MarketTable, built once per market by
seller.market_table; the caller supplies the volatility floor and the
participation bound it wants.  The optimizer and the curve evaluate their
sorted points from the left, the interior and the right in one sweep
(_sided_sums).  payoff reads one adoption mask for everything the solution
document prints at one sigma: at sigma_star (PlatformSolution.star) and at
the floor.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .csvtext import BLOCK_CELLS, _format_columns
from .polyalg import NumericalInstability
from .seller import DomainError, MarketTable

_PAYOFF_TIE_TOL = 1e-9


class EmptyFeasibleSet(ValueError):
    """Participation cap falls below the volatility floor; no design exists."""


class PayoffResult(NamedTuple):
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


SIDES = ("left", "interior", "right")


class PlatformSolution(NamedTuple):
    """sigma_star, the outcome there (attained: side "interior", or the
    limit from side), switching points and feasible range."""

    sigma_star: float
    star: PayoffResult
    breakpoints: tuple
    sigma_lower: float
    sigma_upper: float
    side: str


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


def _exclusive(table: MarketTable, side: int):
    """MarketTable.adopts' exclusive from SIDES[side]: entering sellers
    (dK < 0) from the left, exiting ones (dK > 0) from the right."""
    return False if side == 1 else np.sign(table.dK) == side - 1


def _sided_sums(table: MarketTable, sigma):
    """At each point of an ascending sigma array, from each side (rows in
    SIDES order, rule _exclusive): the number of adopters, the sum of
    zeta_FBP over them and of zeta_FBM over the others.  An exiting seller
    (dK > 0) adopts before its MarketTable.switch_index, any other from it
    on, so prefix and suffix sums over binned sellers give every sum."""
    size = sigma.size + 1
    index = table.switch_index(sigma), table.switch_index(sigma, True)
    key = np.concatenate([np.where(_exclusive(table, side), *index[::-1])
                          + size * (2 * side + (table.dK > 0)) for side in range(3)])
    # bins[w, s, g, i]: weight w (1, zeta_FBP, zeta_FBM) summed from side s
    # over the sellers of group g (0 others, 1 exiting) whose index is i
    weights = np.repeat([np.ones(table.N), table.zeta_fbp, table.zeta_fbm], 3, axis=0)
    bins = np.bincount(np.concatenate((key, key + 6 * size, key + 12 * size)),
                       weights.ravel(), 18 * size).reshape(3, 3, 2, size)
    upto = np.add.accumulate(bins, axis=3)[..., :-1]
    after = np.add.accumulate(bins[..., ::-1], axis=3)[..., -2::-1]
    adopters = upto[..., 0, :] + after[..., 1, :]
    return adopters[0], adopters[1], (after[..., 0, :] + upto[..., 1, :])[2]


def payoff(table: MarketTable, sigma: float, exclusive=False) -> PayoffResult:
    """Expected per-period platform payoff at design volatility sigma, with
    the adopters (MarketTable.adopts, exclusive as there) holding their
    safety stock at the platform (gamma_fbp) and everyone else privately
    (gamma_fbm), and the sum of each seller's margin minus its K * sigma."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    mask = table.adopts(sigma, exclusive)
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


def _first_best(totals) -> int:
    """Where the loop `best = i if totals[i] > totals[best] + tol * max(1,
    |totals[best]|)` ends (tol = _PAYOFF_TIE_TOL).  Each takeover is a new
    running maximum, so one searchsorted over the ascending running maxima
    gives every step, and pointer doubling follows them from index 0."""
    at = np.flatnonzero(np.r_[True, totals[1:] > np.fmax.accumulate(totals)[:-1]])
    peaks = totals[at]
    with np.errstate(over="ignore", invalid="ignore"):
        bar = peaks + _PAYOFF_TIE_TOL * np.maximum(1.0, np.abs(peaks))
    # a peak that nothing beats (its bar NaN included) steps to itself
    step = np.searchsorted(peaks[1:], bar, side="right") + 1
    step = np.where(step < peaks.size, step, np.arange(peaks.size))
    for _ in range(peaks.size.bit_length()):
        step = step[step]
    return int(at[step[0]])


def optimize(table: MarketTable, sigma_lower: float,
             sigma_cap: float) -> PlatformSolution:
    """Supremum of the payoff over sigma in [sigma_L, sigma_U]: sigma_lower
    (the design's volatility floor) to the participation bound under
    sigma_cap.  The values attained at the ends and the switching points
    between them, then the one-sided limits there from inside the range,
    go to _first_best: ties go to an attained value, then the least sigma."""
    sigma_u = table.participation_ub(sigma_cap)
    if sigma_u < sigma_lower:
        raise EmptyFeasibleSet(
            f"participation cap {sigma_u:g} below volatility floor "
            f"{sigma_lower:g}")
    switch = table.threshold
    points = np.array(sorted({sigma_lower, sigma_u, *switch[
        (sigma_lower <= switch) & (switch <= sigma_u)].tolist()}))
    n, zeta_sum, _ = _sided_sums(table, points)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = _payoff_terms(table, points, n, zeta_sum)[3]
    # the attained values, then the limits point by point, left before
    # right, but for the left one at the floor and the right one at the cap
    best = _first_best(np.concatenate((totals[1], totals[::2].T.ravel()[1:-1])))
    point, right = divmod(best - points.size + 1, 2)
    point, side = (best, 1) if best < points.size else (point, 2 * right)
    sigma_star = float(points[point])
    return PlatformSolution(sigma_star,
                            payoff(table, sigma_star, _exclusive(table, side)),
                            tuple(table.breakpoints()), sigma_lower, sigma_u,
                            SIDES[side])


def payoff_curve(table: MarketTable, sigma_grid, sigma_upper: float) -> Curve:
    """Plot-ready payoff samples: the grid plus both one-sided limits at
    every jump (each switching point in range, and the participation bound
    sigma_upper, from MarketTable.participation_ub, past which the payoff
    is zero).  NumericalInstability when a total overflows."""
    grid = np.sort(np.asarray(sigma_grid, dtype=float).ravel())
    lo, hi = (grid[0], grid[-1]) if grid.size else (np.inf, -np.inf)
    switch = table.threshold
    switch = np.sort(switch[(lo <= switch) & (switch <= min(hi, sigma_upper))])
    cap = [sigma_upper] if lo <= sigma_upper <= hi else []
    # Rows: the grid (interior), then left and right limits at switching
    # points and cap; the payoff is zero past the cap and right of it
    sigma = np.concatenate((grid, switch, cap, switch, cap))
    sizes = (grid.size, switch.size, len(cap), switch.size, len(cap))
    side = np.repeat([1, 0, 0, 2, 2], sizes)
    zero = np.repeat([False, False, False, False, True], sizes)
    zero[:grid.size] = grid > sigma_upper
    order = np.lexsort((side, sigma))
    sigma, side, zero = sigma[order], side[order], zero[order]
    n, zeta_fbp, zeta_fbm = np.where(zero, 0.0, np.stack(
        _sided_sums(table, sigma))[:, side, np.arange(sigma.size)])
    with np.errstate(over="ignore", invalid="ignore"):
        total = _payoff_terms(table, sigma, n, zeta_fbp)[3]
        curve = Curve(sigma, np.where(zero, 0.0, total), n.astype(np.intp),
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
    solution's outcome at sigma_star ("attained": false and the side follow
    it where it is a limit) and one payoff evaluation at sigma_lower."""
    star, floor = solution.star, payoff(table, solution.sigma_lower)
    limit = {} if solution.side == SIDES[1] else dict(attained=False, side=solution.side)
    return {
        "sigma_star": solution.sigma_star,
        **limit,
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
