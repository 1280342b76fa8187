"""Online order routing that tracks the benchmark allocation.

Each period the benchmark hands seller n a target x_n = D_t/N + b_n, where
the offsets b_n come from the allocation policy's transfers applied to
lagged aggregate demand and sum to zero (`policy.benchmark_offsets`), so
any admissible design can be routed.  The greedy router assigns every
arriving order to the seller with the smallest offset-adjusted count
count_n - b_n; when all targets are nonnegative the final counts land
within one order of every target.  A period with a negative target has no
such routing: it is skipped, with zero counts, and marked unrouted.

The greedy gives seller n its (k+1)-th order at key k - b_n, so a period's
assignment sequence is the sorted merge of N arithmetic key sequences (the
chairman assignment problem, Tijdeman 1980).  The router takes each
period's D_t smallest keys from one sort over the whole path, with no loop
over orders, and keeps each key's k + 1 as its order's count.  Keys within
_TIE_TOL of the smallest key still unassigned tie with it, and ties go by
a seeded random ranking of the sellers drawn once per period, so no seller
wins ties more often than another: the allocation stays nondiscriminatory.

route_orders routes a (T x N) offset array in one call into a
RoutePathResult of arrays; route_path takes the demand array of
demand.simulate.  export_assignment_log writes one row per routed order,
period, order, seller and the seller's adjusted count after it, in
O(orders) at any N; every other seller's adjusted count follows from the
log and RoutePathResult.targets.  It writes with the exact formatter of
csvtext, which the simulate CSV shares.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .csvtext import BLOCK_CELLS, _format_rows
from .demand import DemandModel
from .policy import AllocationPolicy, benchmark_offsets
from .polyalg import NumericalInstability

OFFSET_SUM_TOL = 1e-9
# Relative slack under which two offset-adjusted counts tie, and under
# which a negative target still counts as zero.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RoutePathResult:
    """Routing of T periods over N sellers, held as arrays.

    counts and targets are (T x N); routed marks the periods whose targets
    were all nonnegative, and the others keep zero counts.  log holds the
    1-based seller of every routed order, period by period in assignment
    sequence, so period t's orders are its next counts[t].sum() entries;
    taken holds each such order's count for its seller, the order included.
    """

    counts: np.ndarray
    targets: np.ndarray
    routed: np.ndarray
    log: np.ndarray
    taken: np.ndarray

    @property
    def infeasible_periods(self) -> list:
        return np.flatnonzero(~self.routed).tolist()

    @property
    def cumulative_counts(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def cumulative_shares(self) -> np.ndarray:
        cumulative = self.cumulative_counts
        total = int(cumulative.sum())
        return cumulative / total if total else np.zeros(cumulative.size)

    @property
    def max_discrepancy(self) -> float:
        """Largest |count - target| over the routed periods."""
        gap = np.abs(self.counts - self.targets)[self.routed]
        return float(gap.max(initial=0.0))


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
    nonnegative), as (counts, log, taken): the (P x N) counts, the 1-based
    sellers of every period's orders in assignment sequence, concatenated,
    and each order's count for its seller, k + 1 for the key k - b_n.

    Seller n's keys run k = 0..floor(x_n)+1.  The keys up to D_t/N, at most
    floor(x_n)+1 of them, already number at least D_t, and the next one
    lies a unit beyond, so every key within tie reach of the cut is there.
    A key within _TIE_TOL of the key before it in sorted order joins that
    key's tie group, and each group, which lies in one period, is taken in
    the greedy's order: by rank where every key of the group ties with its
    first, by replay where not.
    """
    P, N = offsets.shape
    n_keys = (np.floor(np.maximum(targets, 0.0)) + 2.0).astype(np.int64).ravel()
    cell = np.repeat(np.arange(P * N), n_keys)
    first = np.cumsum(n_keys) - n_keys  # each cell's first key; cells run by period
    k = np.arange(cell.size) - np.repeat(first, n_keys)
    keys = k - offsets.ravel()[cell]
    order = np.lexsort((keys, cell // N))
    keys, period = keys[order], cell[order] // N
    new_group = np.ones(cell.size, dtype=bool)
    new_group[1:] = ((period[1:] != period[:-1])
                     | (keys[1:] > _tie_reach(keys[:-1])))
    within = rank.ravel()[cell[order]]
    _order_wide_groups(keys, new_group, within)
    group = np.cumsum(new_group)
    order = order[np.argsort(group * N + within, kind="stable")]
    position = np.arange(cell.size) - first[::N][period]
    order = order[position < demand[period]]
    counts = np.bincount(cell[order], minlength=P * N).reshape(P, N)
    return counts, cell[order] % N + 1, k[order] + 1


def _order_counts(demand) -> np.ndarray:
    """demand as int64 counts; ValueError naming the first period whose
    count is not a whole number below 2**63, which a cast would truncate or
    wrap."""
    demand = np.asarray(demand)
    with np.errstate(invalid="ignore"):
        counts = demand.astype(np.int64)
    bad = np.flatnonzero((counts != demand) | ~(np.abs(demand) < 2.0 ** 63))
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"demand in period {t} is {float(demand[t])!r}, not a "
                         "whole order count below 2**63")
    return counts


def route_orders(offsets, demand, seed: int) -> RoutePathResult:
    """Assign each period's orders by smallest offset-adjusted count.

    offsets is a finite (T x N) array of per-seller offsets b[t, n], N >= 1,
    whose rows each sum to zero, and demand holds T nonnegative whole
    counts (integral floats pass); ValueError naming the one at fault.  A
    period whose targets fall below zero by more than the relative tie
    slack is left unrouted with zero counts.  Ties go by a ranking of the
    sellers per period, all drawn at once as
    np.random.default_rng(seed).random((T, N)).argsort(axis=1).
    """
    b = np.asarray(offsets, dtype=float)
    if b.ndim != 2 or b.shape[1] == 0 or not np.isfinite(b).all():
        raise ValueError("offsets must be a finite (T x N) array with N >= 1")
    T, N = b.shape
    demand = np.asarray(demand)
    if demand.shape != (T,):
        raise ValueError(f"demand must hold T = {T} order counts, got shape "
                         f"{demand.shape}")
    demand = _order_counts(demand)
    scale = np.maximum(1.0, np.abs(b).max(axis=1))
    if np.any(np.abs(b.sum(axis=1)) > OFFSET_SUM_TOL * scale):
        raise ValueError("offsets must sum to zero")
    if np.any(demand < 0):
        raise ValueError("order count must be nonnegative")
    targets = demand[:, None] / N + b
    scale = np.maximum(1.0, np.abs(targets).max(axis=1))
    routed = ~(targets < -_TIE_TOL * scale[:, None]).any(axis=1)
    rank = np.random.default_rng(seed).random((T, N)).argsort(axis=1)
    counts = np.zeros((T, N), dtype=np.int64)
    counts[routed], log, taken = _merge(b[routed], targets[routed],
                                        demand[routed], rank[routed])
    return RoutePathResult(counts=counts, targets=targets, routed=routed,
                           log=log, taken=taken)


def integerize_demand(demands) -> np.ndarray:
    """Round a simulated Gaussian demand path to nonnegative integer order
    counts; ValueError naming the period of a count of 2**63 or more."""
    return _order_counts(np.maximum(np.rint(np.asarray(demands)), 0.0))


def route_path(alloc_policy: AllocationPolicy, model: DemandModel, demands,
               seed: int) -> RoutePathResult:
    """Route a whole demand path (an array of demands) with route_orders.

    The policy's offsets come from the lagged realized (integer) demand;
    missing lags before the path starts count as demand at the mean.
    NumericalInstability when an offset overflows the float range.
    """
    demand = integerize_demand(demands)
    offsets = benchmark_offsets(alloc_policy, model, demand)
    if not np.isfinite(offsets).all():
        raise NumericalInstability("a benchmark offset is not finite")
    return route_orders(offsets, demand, seed)


def export_assignment_log(path_result: RoutePathResult, fileobj) -> None:
    """CSV log of every routed order: period, order index, chosen seller and
    adj, the seller's count minus its offset right after the order.

    The count is RoutePathResult.taken, the one the merge gave the order,
    so the log is O(orders) whatever N.  adj - 1 is the key the greedy
    took, so adj never falls below an earlier adj of its period by more
    than a tie.  The other sellers' adjusted counts after each order follow
    from the log's sellers and the offsets targets - D_t/N of
    RoutePathResult.  Rows are written in blocks of about
    csvtext.BLOCK_CELLS cells by the exact formatter.
    """
    counts, log = path_result.counts, path_result.log
    csv.writer(fileobj).writerow(["period", "order", "seller", "adj"])
    sizes = counts.sum(axis=1)
    offs = path_result.targets - (sizes / counts.shape[1])[:, None]
    row_period = np.repeat(np.arange(sizes.size), sizes)
    adj = path_result.taken - offs[row_period, log - 1]
    order = np.arange(log.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    block = BLOCK_CELLS // 4
    for lo in range(0, log.size, block):
        rows = np.column_stack([col[lo:lo + block]
                                for col in (row_period, order, log, adj)])
        fileobj.write(_format_rows(rows, 3))
