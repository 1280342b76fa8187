"""Online order routing that tracks the benchmark allocation.

Each period the benchmark hands seller n a target x_n = D_t/N + b_n, the
offsets b_n being the policy's transfers applied to lagged demand, summing
to zero (`policy.benchmark_offsets`).  The greedy router gives each order to
the seller with the smallest count_n - b_n, so the counts land within one
order of nonnegative targets; a period with a negative target is skipped.
Seller n's (k+1)-th order sits at key k - b_n, so a period's sequence is
the sorted merge of N arithmetic key sequences (the chairman assignment
problem, Tijdeman 1980).  Keys within _TIE_TOL of the smallest unassigned
key tie with it, and ties go by a seeded ranking of the sellers drawn per
period, which keeps the allocation nondiscriminatory.  route_orders keeps
only the counts, floor(x_n) plus one for the sellers whose next key comes
first (Hamilton's largest remainders, Balinski and Young 1982), sorting
the next keys block by block of periods; export_assignment_log replays the
merge over the taken keys, block by block of whole periods: O(block) memory.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .csvtext import BLOCK_CELLS, _format_columns
from .demand import DemandModel
from .policy import AllocationPolicy, benchmark_offsets
from .polyalg import NumericalInstability

OFFSET_SUM_TOL = 1e-9
# Relative slack under which two offset-adjusted counts tie, and under
# which a negative target still counts as zero.
_TIE_TOL = 1e-12


class RoutePathResult(NamedTuple):
    """Routing of T periods over N sellers: the (T x N) counts, targets,
    offsets and tie ranks of the sellers (zero in the periods not routed,
    which the routed mask marks), from which the log is replayed."""

    counts: np.ndarray
    targets: np.ndarray
    routed: np.ndarray
    offsets: np.ndarray
    rank: np.ndarray

    @property
    def infeasible_periods(self) -> list:
        return np.flatnonzero(~self.routed).tolist()

    @property
    def cumulative_shares(self) -> np.ndarray:
        cumulative = self.counts.sum(axis=0)
        total = int(cumulative.sum())
        return cumulative / total if total else np.zeros(cumulative.size)

    @property
    def max_discrepancy(self) -> float:
        """Largest |count - target| over the routed periods."""
        gap = self.counts - self.targets
        return float(np.abs(gap, out=gap).max(initial=0.0, where=self.routed[:, None]))


def _across(a):
    """a (P x N) seller-major: its reductions over axis 0 run on rows."""
    return np.ascontiguousarray(a.T)


def _tie_reach(keys):
    """Largest key that still ties with each of keys."""
    return keys + _TIE_TOL * np.maximum(1.0, np.abs(keys))


def _order_wide_groups(keys, new_group, within) -> None:
    """Replay the greedy in each wide tie group of sorted keys, marked by
    new_group: one whose keys, chained a tie apart, pass the tie reach of
    its first.  Each step takes the smallest within among the keys in tie
    reach of the smallest one left and stores the step in within."""
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


def _sequence(offsets, rank, first, n_keys):
    """The merge: (cell, k) of the keys k - b_n, k = first..first+n_keys-1
    of each cell of offsets (P x N), period by period in greedy order.  A
    quicksort, then a stable uint16 radix pass per 16 bits of the period
    index, sorts them by (period, key); a key in tie reach of the one before
    joins its group, ordered by rank (by replay if wide).  Equal keys share
    a group and a seller's keys never do, so the quicksort may be unstable."""
    P, N = offsets.shape
    n_keys = n_keys.ravel()
    cell = np.repeat(np.arange(P * N), n_keys)
    k = np.arange(cell.size) - np.repeat(np.cumsum(n_keys) - n_keys - np.ravel(first),
                                         n_keys)
    keys = k - offsets.ravel()[cell]
    period = cell // N
    order = np.argsort(keys)
    for shift in range(0, (P - 1).bit_length(), 16):
        digit = (period >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    keys, period = keys[order], period[order]
    new_group = np.ones(cell.size, dtype=bool)
    new_group[1:] = ((period[1:] != period[:-1])
                     | (keys[1:] > _tie_reach(keys[:-1])))
    within = rank.ravel()[cell[order]]
    _order_wide_groups(keys, new_group, within)
    order = order[np.argsort(np.cumsum(new_group) * N + within, kind="stable")]
    return cell[order], k[order]


def _counts(offsets, targets, demand, rank):
    """The greedy's (P x N) counts of demand[p] orders in each period p:
    floor(x_n), plus one for the rest = demand[p] - sum floor(x_n) sellers
    whose next key floor(x_n) - b_n comes first, ties at the cut c by rank.
    Where a key floor(x_n) - 1 - b_n ties with the smallest next key, one
    floor(x_n) + 1 - b_n with the largest, or a next key other than c with
    c, or rest is not in 0..N, the merge over those three keys decides."""
    P, N = offsets.shape
    fl = np.floor(np.maximum(targets, 0.0))
    nxt = fl - offsets
    rest = demand - _across(fl).sum(axis=0).astype(np.int64)
    at = np.arange(P) * N - 1
    ahead = np.sort(nxt, axis=1).ravel()
    c = ahead[at + np.clip(rest, 1, N)][:, None]
    below, equal = nxt < c, nxt == c
    lo = at + _across(below).sum(axis=0)  # the largest key below c, in ahead
    hi = lo + _across(equal).sum(axis=0) + 1  # the smallest key above it
    rare = ((rest < 0) | (rest > N)
            | (_tie_reach(_across((fl - 1.0) - offsets).max(axis=0)) >= ahead[at + 1])
            | (_tie_reach(ahead[at + N]) >= _across((fl + 1.0) - offsets).min(axis=0))
            | ((lo > at) & (_tie_reach(ahead[lo]) >= c[:, 0]))
            | ((hi <= at + N) & (_tie_reach(c[:, 0]) >= ahead[np.minimum(hi, P * N - 1)])))
    # the rest - #below lowest ranks among the sellers at c
    ranks = np.sort(np.where(equal, rank, N), axis=1).ravel()
    cut = ranks[at + np.clip(rest - (lo - at), 1, N)][:, None]
    counts = fl.astype(np.int64) + ((below | (equal & (rank <= cut))) & (rest > 0)[:, None])
    if rare.any():
        fl = fl[rare].astype(np.int64)
        first = np.maximum(fl - 1, 0)
        cell, _ = _sequence(offsets[rare], rank[rare], first, fl + 2 - first)
        period = cell // N
        position = np.arange(cell.size) - np.searchsorted(period, period)
        taken = position < (demand[rare] - first.sum(axis=1))[period]
        counts[rare] = first + np.bincount(cell[taken], minlength=first.size).reshape(-1, N)
    return counts


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

    offsets is a finite (T x N) array, N >= 1, whose rows each sum to zero,
    and demand holds T nonnegative whole counts (integral floats pass);
    ValueError naming the one at fault.  A period with a target below zero
    by more than the relative tie slack keeps zero counts.  Ties go by the
    ranks np.random.default_rng(seed).random((T, N)).argsort(axis=1), only
    the routed rows argsorted."""
    b = np.asarray(offsets, dtype=float)
    if b.ndim != 2 or b.shape[1] == 0 or not np.isfinite(b).all():
        raise ValueError("offsets must be a finite (T x N) array with N >= 1")
    T, N = b.shape
    demand = np.asarray(demand)
    if demand.shape != (T,):
        raise ValueError(f"demand must hold T = {T} order counts, got shape "
                         f"{demand.shape}")
    demand = _order_counts(demand)
    scale = np.maximum(1.0, _across(np.abs(b)).max(axis=0))
    if np.any(np.abs(b.sum(axis=1)) > OFFSET_SUM_TOL * scale):
        raise ValueError("offsets must sum to zero")
    if np.any(demand < 0):
        raise ValueError("order count must be nonnegative")
    targets = demand[:, None] / N + b
    scale = np.maximum(1.0, _across(np.abs(targets)).max(axis=0))
    routed = ~_across(targets < -_TIE_TOL * scale[:, None]).any(axis=0)
    counts, rank = np.zeros((2, T, N), dtype=np.int64)
    rng = np.random.default_rng(seed)
    step = max(1, 16 * BLOCK_CELLS // N)  # rows of a block of the count step
    for lo in range(0, T, step):
        live = lo + np.flatnonzero(routed[lo:lo + step])
        rank[live] = rng.random((min(step, T - lo), N))[live - lo].argsort(axis=1)
        counts[live] = _counts(b[live], targets[live], demand[live], rank[live])
    return RoutePathResult(counts=counts, targets=targets, routed=routed,
                           offsets=b, rank=rank)


def integerize_demand(demands) -> np.ndarray:
    """Round a simulated Gaussian demand path to nonnegative integer order
    counts; ValueError naming the period of a count of 2**63 or more."""
    return _order_counts(np.maximum(np.rint(np.asarray(demands)), 0.0))


def route_path(alloc_policy: AllocationPolicy, model: DemandModel, demands,
               seed: int) -> RoutePathResult:
    """Route a whole demand path (an array of demands) with route_orders.
    The policy's offsets come from the lagged realized (integer) demand;
    missing lags before the path starts count as demand at the mean.
    ValueError from integerize_demand, NumericalInstability on an overflow."""
    demand = integerize_demand(demands)
    offsets = benchmark_offsets(alloc_policy, model, demand)
    if not np.isfinite(offsets).all():
        raise NumericalInstability("a benchmark offset is not finite")
    return route_orders(offsets, demand, seed)


def _replay(path_result: RoutePathResult, block: int):
    """Per block of whole periods of about block orders (one period where
    it has more): each routed order's period, index, 1-based seller and
    count for that seller (k + 1 for its key k - b_n), in assignment
    sequence, from the merge over the taken keys k < count alone."""
    counts = path_result.counts
    N = counts.shape[1]
    sizes = _across(counts).sum(axis=0)
    busy = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[busy])
    lo = 0
    while lo < busy.size:
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + block, side="right")))
        rows = busy[lo:hi]
        cell, k = _sequence(path_result.offsets[rows], path_result.rank[rows],
                            0, counts[rows])
        period = cell // N
        first = ends[lo:hi] - sizes[rows] - start  # each period's first order
        yield rows[period], np.arange(cell.size) - first[period], cell % N + 1, k + 1
        lo = hi


def export_assignment_log(path_result: RoutePathResult, fileobj) -> None:
    """CSV log of every routed order, replayed in blocks of about
    csvtext.BLOCK_CELLS cells: period, order index, chosen seller and adj,
    its count minus its offset targets - D_t/N right after the order (adj -
    1 is the key the greedy took; the other sellers' follow from the log)."""
    counts = path_result.counts
    fileobj.write("period,order,seller,adj\r\n")
    share = _across(counts).sum(axis=0) / counts.shape[1]
    for period, order, seller, taken in _replay(path_result, BLOCK_CELLS // 4):
        offset = path_result.targets[period, seller - 1] - share[period]
        fileobj.write(_format_columns([period, order, seller, taken - offset]))
