"""Online order routing that tracks the benchmark allocation.

Each period the benchmark hands seller n a target x_n = D_t/N + b_n, where
the offsets b_n come from the allocation policy's transfers applied to
lagged aggregate demand and sum to zero (`policy.benchmark_offsets`), so
any admissible design can be routed.  The greedy router assigns every
arriving order to the seller with the smallest offset-adjusted count
count_n - b_n; when all targets are nonnegative the final counts land
within one order of every target.

The greedy gives seller n its (k+1)-th order at key k - b_n, so a period's
assignment sequence is the sorted merge of N arithmetic key sequences (the
chairman assignment problem, Tijdeman 1980).  The router takes each
period's D_t smallest keys from one sort over the whole path, with no loop
over orders.  Keys within _TIE_TOL of the smallest key still unassigned
tie with it, and ties go by a rank of the sellers that is fixed for the
period: the seller index with tie_break="lowest", a seeded random ranking
of the sellers with "random".
The random ranking is drawn per period, not per order, so a seed gives
other random-tie logs than the per-order draws of earlier versions did;
the counts stay within one unit of the targets either way.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .demand import DemandModel, DemandPath
from .policy import AllocationPolicy, benchmark_offsets

OFFSET_SUM_TOL = 1e-9
# Relative slack under which two offset-adjusted counts tie, and under
# which a negative target still counts as zero.
_TIE_TOL = 1e-12
TIE_BREAKS = ("random", "lowest")
ON_INFEASIBLE = ("raise", "skip")
# Cells formatted per write of the assignment log.
_LOG_BLOCK_CELLS = 1 << 14


class InfeasibleTargets(ValueError):
    """Some benchmark targets are negative; the one-unit tracking guarantee
    does not apply.  Carries the offending 1-based seller indices."""

    def __init__(self, sellers, period=None):
        self.sellers = list(sellers)
        self.period = period
        where = f" in period {period}" if period is not None else ""
        super().__init__(f"negative targets for sellers {self.sellers}{where}")


@dataclass(frozen=True)
class RoutingResult:
    counts: np.ndarray
    targets: np.ndarray
    max_discrepancy: float
    assignment_log: np.ndarray


def _check_choice(name: str, value, allowed) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of "
                         f"{', '.join(map(repr, allowed))}, got {value!r}")


def _tie_reach(keys):
    """Largest key that still ties with each of keys."""
    return keys + _TIE_TOL * np.maximum(1.0, np.abs(keys))


def _order_wide_groups(keys, new_group, within) -> None:
    """Replay the greedy in each wide tie group of sorted keys, marked by
    new_group: one whose keys, chained a tie apart, pass the tie reach of
    its first.  Each step takes the smallest within among the keys in tie
    reach of the smallest one left and stores the step in within.  Wide
    groups need three or more keys and are rare."""
    if np.all(new_group[1:-1] | new_group[2:]):
        return
    start = np.flatnonzero(new_group)
    stop = np.append(start[1:], keys.size)
    wide = keys[stop - 1] > _tie_reach(keys[start])
    for first, end in zip(start[wide], stop[wide]):
        left, rank = list(range(first, end)), within[first:end].copy()
        for place in range(end - first):
            reach = _tie_reach(keys[left[0]])
            pick = min((i for i in left if keys[i] <= reach),
                       key=lambda i: rank[i - first])
            left.remove(pick)
            within[pick] = place


def _merge(offsets, targets, demand, rank):
    """Greedy assignment of demand[p] orders in each period p (all targets
    nonnegative), as (counts, log): the (P x N) counts and the 1-based
    sellers of every period's orders in assignment sequence, concatenated.

    Seller n's keys run k = 0..floor(x_n)+1.  The keys up to D_t/N, at most
    floor(x_n)+1 of them, already number at least D_t, and the next one
    lies a unit beyond, so every key within tie reach of the cut is there.
    A key within _TIE_TOL of the key before it in sorted order joins that
    key's tie group, and each group is taken in the greedy's order: by rank
    where every key of the group ties with its first, by replay where not.
    """
    P, N = offsets.shape
    n_keys = (np.floor(np.maximum(targets, 0.0)) + 2.0).astype(np.int64).ravel()
    cell = np.repeat(np.arange(P * N), n_keys)
    k = np.arange(cell.size) - np.repeat(np.cumsum(n_keys) - n_keys, n_keys)
    keys = k - offsets.ravel()[cell]
    period = cell // N
    order = np.lexsort((keys, period))
    keys, cell, period = keys[order], cell[order], period[order]
    new_group = np.ones(cell.size, dtype=bool)
    new_group[1:] = ((period[1:] != period[:-1])
                     | (keys[1:] > _tie_reach(keys[:-1])))
    within = rank.ravel()[cell]
    _order_wide_groups(keys, new_group, within)
    group = np.cumsum(new_group)
    cell = cell[np.argsort(group * N + within, kind="stable")]
    per_period = n_keys.reshape(P, N).sum(axis=1)
    period = cell // N
    position = np.arange(cell.size) - (np.cumsum(per_period) - per_period)[period]
    cell = cell[position < demand[period]]
    counts = np.bincount(cell, minlength=P * N).reshape(P, N)
    return counts, cell % N + 1


def _route(offsets, demand, seed: int, tie_break: str):
    """Screen and route every period of a (T x N) offset array.

    Returns the per-period RoutingResults (None where a target is below
    zero by more than the relative tie slack), the (T x N) mask of those
    targets and the (T x N) counts.
    """
    _check_choice("tie_break", tie_break, TIE_BREAKS)
    b = np.asarray(offsets, dtype=float)
    demand = np.asarray(demand, dtype=np.int64)
    T, N = b.shape
    scale = np.maximum(1.0, np.abs(b).max(axis=1, initial=0.0))
    if np.any(np.abs(b.sum(axis=1)) > OFFSET_SUM_TOL * scale):
        raise ValueError("offsets must sum to zero")
    if np.any(demand < 0):
        raise ValueError("order count must be nonnegative")
    targets = demand[:, None] / N + b
    scale = np.maximum(1.0, np.abs(targets).max(axis=1))
    negative = targets < -_TIE_TOL * scale[:, None]
    feasible = ~negative.any(axis=1)
    if tie_break == "lowest":
        rank = np.broadcast_to(np.arange(N), (T, N))
    else:
        rank = np.random.default_rng(seed).random((T, N)).argsort(axis=1)
    counts = np.zeros((T, N), dtype=np.int64)
    counts[feasible], log = _merge(b[feasible], targets[feasible],
                                   demand[feasible], rank[feasible])
    discrepancy = np.abs(counts - targets).max(axis=1, initial=0.0)
    logs = np.split(log, np.cumsum(demand * feasible)[:-1])
    results = [RoutingResult(counts=counts[t], targets=targets[t],
                             max_discrepancy=float(discrepancy[t]),
                             assignment_log=logs[t])
               if feasible[t] else None for t in range(T)]
    return results, negative, counts


def route_orders(offsets, D_t: int, seed: int,
                 tie_break: str = "random") -> RoutingResult:
    """Assign D_t orders by smallest offset-adjusted count.

    offsets is one period's 1-d array of per-seller offsets b_n; they must
    sum to zero.  Ties go by a random ranking of the sellers drawn from
    np.random.default_rng(seed), or to the lowest index with
    tie_break="lowest" for reproducible goldens.
    """
    [result], negative, _ = _route(np.asarray(offsets, dtype=float)[None, :],
                                   [D_t], seed, tie_break)
    if result is None:
        raise InfeasibleTargets((np.flatnonzero(negative[0]) + 1).tolist())
    return result


@dataclass(frozen=True)
class RoutePathResult:
    """Per-period routing outcomes over a demand path."""

    results: list
    infeasible_periods: list
    cumulative_counts: np.ndarray
    cumulative_shares: np.ndarray
    max_discrepancy: float


def integerize_demand(path: DemandPath) -> np.ndarray:
    """Round a simulated Gaussian path to nonnegative integer order counts."""
    return np.maximum(np.rint(np.asarray(path.demands)), 0.0).astype(np.int64)


def route_path(alloc_policy: AllocationPolicy, model: DemandModel,
               path: DemandPath, seed: int, on_infeasible: str = "raise",
               tie_break: str = "random") -> RoutePathResult:
    """Route a whole demand path.

    The policy's offsets come from the lagged realized (integer) demand;
    missing lags before the path starts count as demand at the mean.
    on_infeasible="skip" records periods with negative targets instead of
    raising; their orders are not routed.  With tie_break="random" each
    period ranks the sellers for its ties by one draw from
    np.random.default_rng(seed).
    """
    _check_choice("on_infeasible", on_infeasible, ON_INFEASIBLE)
    demand = integerize_demand(path)
    offsets = benchmark_offsets(alloc_policy, model, demand)
    results, negative, counts = _route(offsets, demand, seed, tie_break)
    infeasible = [t for t, r in enumerate(results) if r is None]
    if infeasible and on_infeasible == "raise":
        t = infeasible[0]
        raise InfeasibleTargets((np.flatnonzero(negative[t]) + 1).tolist(),
                                period=t)
    cumulative = counts.sum(axis=0)
    total = int(cumulative.sum())
    shares = cumulative / total if total else np.zeros(cumulative.size)
    worst = max((r.max_discrepancy for r in results if r is not None),
                default=0.0)
    return RoutePathResult(results=results, infeasible_periods=infeasible,
                           cumulative_counts=cumulative,
                           cumulative_shares=shares,
                           max_discrepancy=worst)


def export_assignment_log(path_result: RoutePathResult, fileobj) -> None:
    """CSV log: period, order index, chosen seller, adjusted counts snapshot.

    The snapshot columns adj_1..adj_N hold counts minus offsets immediately
    after the order is assigned.  Rows are formatted and written in blocks.
    """
    n = path_result.cumulative_counts.size
    writer = csv.writer(fileobj)
    writer.writerow(["period", "order", "seller"] + [f"adj_{i}" for i in range(1, n + 1)])
    routed = [(t, r) for t, r in enumerate(path_result.results) if r is not None]
    if not routed:
        return
    periods = np.array([t for t, _ in routed], dtype=float)
    counts = np.array([r.counts for _, r in routed])
    targets = np.array([r.targets for _, r in routed])
    log = np.concatenate([r.assignment_log for _, r in routed])
    sizes = counts.sum(axis=1)
    offs = targets - (sizes / n)[:, None]
    before = np.cumsum(counts, axis=0) - counts
    row_period = np.repeat(np.arange(sizes.size), sizes)
    order = np.arange(log.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    line = "%d,%d,%d" + ",%.6f" * n + writer.dialect.lineterminator
    block = max(1, _LOG_BLOCK_CELLS // (n + 3))
    running = np.zeros(n, dtype=np.int64)
    for lo in range(0, log.size, block):
        sellers = log[lo:lo + block]
        p = row_period[lo:lo + block]
        onehot = np.zeros((sellers.size, n), dtype=np.int64)
        onehot[np.arange(sellers.size), sellers - 1] = 1
        cumulative = running + np.cumsum(onehot, axis=0)
        running = cumulative[-1]
        rows = np.empty((sellers.size, n + 3))
        rows[:, 0] = periods[p]
        rows[:, 1] = order[lo:lo + block]
        rows[:, 2] = sellers
        rows[:, 3:] = (cumulative - before[p]) - offs[p]
        fileobj.write((line * sellers.size) % tuple(rows.ravel().tolist()))
