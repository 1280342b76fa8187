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
over orders.  Keys within _TIE_TOL of the smallest key still unassigned
tie with it, and ties go by a rank of the sellers that is fixed for the
period: the seller index with tie_break="lowest", a seeded random ranking
of the sellers with "random".
The random ranking is drawn per period, not per order, so a seed gives
other random-tie logs than the per-order draws of earlier versions did;
the counts stay within one unit of the targets either way.

route_orders routes a (T x N) offset array in one call; its RoutePathResult
holds the (T x N) counts and targets, a (T,) routed mask and the flat log.
export_assignment_log builds the log's rows in blocks and writes them with
the exact formatter of csvtext, which the simulate CSV shares.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .csvtext import BLOCK_CELLS, _format_rows
from .demand import DemandModel, DemandPath
from .policy import AllocationPolicy, benchmark_offsets

OFFSET_SUM_TOL = 1e-9
# Relative slack under which two offset-adjusted counts tie, and under
# which a negative target still counts as zero.
_TIE_TOL = 1e-12
TIE_BREAKS = ("random", "lowest")


@dataclass(frozen=True)
class RoutePathResult:
    """Routing of T periods over N sellers, held as arrays.

    counts and targets are (T x N); routed marks the periods whose targets
    were all nonnegative, and the others keep zero counts.  log holds the
    1-based seller of every routed order, period by period in assignment
    sequence, so period t's orders are its next counts[t].sum() entries.
    """

    counts: np.ndarray
    targets: np.ndarray
    routed: np.ndarray
    log: np.ndarray

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


def route_orders(offsets, demand, seed: int,
                 tie_break: str = "random") -> RoutePathResult:
    """Assign demand[t] orders in each period t by smallest offset-adjusted
    count.

    offsets is a (T x N) array of per-seller offsets b[t, n]; each row must
    sum to zero, and demand holds T nonnegative whole counts (integral
    floats pass).  A period whose targets fall below zero by more than the
    relative tie slack is left unrouted with zero counts.  Ties go by a
    ranking of the sellers per period, all drawn at once as
    np.random.default_rng(seed).random((T, N)), or to the lowest index with
    tie_break="lowest" for reproducible goldens.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of "
                         f"{', '.join(map(repr, TIE_BREAKS))}, got {tie_break!r}")
    b = np.asarray(offsets, dtype=float)
    demand = _order_counts(demand)
    T, N = b.shape
    scale = np.maximum(1.0, np.abs(b).max(axis=1, initial=0.0))
    if np.any(np.abs(b.sum(axis=1)) > OFFSET_SUM_TOL * scale):
        raise ValueError("offsets must sum to zero")
    if np.any(demand < 0):
        raise ValueError("order count must be nonnegative")
    targets = demand[:, None] / N + b
    scale = np.maximum(1.0, np.abs(targets).max(axis=1))
    routed = ~(targets < -_TIE_TOL * scale[:, None]).any(axis=1)
    if tie_break == "lowest":
        rank = np.broadcast_to(np.arange(N), (T, N))
    else:
        rank = np.random.default_rng(seed).random((T, N)).argsort(axis=1)
    counts = np.zeros((T, N), dtype=np.int64)
    counts[routed], log = _merge(b[routed], targets[routed], demand[routed],
                                 rank[routed])
    return RoutePathResult(counts=counts, targets=targets, routed=routed, log=log)


def integerize_demand(path: DemandPath) -> np.ndarray:
    """Round a simulated Gaussian path to nonnegative integer order counts;
    ValueError naming the period of a count of 2**63 or more."""
    return _order_counts(np.maximum(np.rint(np.asarray(path.demands)), 0.0))


def route_path(alloc_policy: AllocationPolicy, model: DemandModel,
               path: DemandPath, seed: int,
               tie_break: str = "random") -> RoutePathResult:
    """Route a whole demand path with route_orders.

    The policy's offsets come from the lagged realized (integer) demand;
    missing lags before the path starts count as demand at the mean.
    """
    demand = integerize_demand(path)
    return route_orders(benchmark_offsets(alloc_policy, model, demand), demand,
                        seed, tie_break)


def export_assignment_log(path_result: RoutePathResult, fileobj) -> None:
    """CSV log: period, order index, chosen seller, adjusted counts snapshot.

    The snapshot columns adj_1..adj_N hold counts minus offsets immediately
    after the order is assigned.  Rows are written in blocks of about
    csvtext.BLOCK_CELLS cells by the exact formatter.
    """
    counts, log = path_result.counts, path_result.log
    n = counts.shape[1]
    csv.writer(fileobj).writerow(
        ["period", "order", "seller"] + [f"adj_{i}" for i in range(1, n + 1)])
    sizes = counts.sum(axis=1)
    offs = path_result.targets - (sizes / n)[:, None]
    before = np.cumsum(counts, axis=0) - counts
    row_period = np.repeat(np.arange(sizes.size), sizes)
    order = np.arange(log.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    block = max(1, BLOCK_CELLS // (n + 3))
    running = np.zeros(n, dtype=np.int64)
    for lo in range(0, log.size, block):
        sellers = log[lo:lo + block]
        p = row_period[lo:lo + block]
        onehot = np.zeros((sellers.size, n), dtype=np.int64)
        onehot[np.arange(sellers.size), sellers - 1] = 1
        cumulative = running + np.cumsum(onehot, axis=0)
        running = cumulative[-1]
        rows = np.empty((sellers.size, n + 3))
        rows[:, 0] = p
        rows[:, 1] = order[lo:lo + block]
        rows[:, 2] = sellers
        rows[:, 3:] = (cumulative - before[p]) - offs[p]
        fileobj.write(_format_rows(rows, 3))
