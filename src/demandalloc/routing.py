"""Online order routing that tracks the benchmark allocation.

Each period the benchmark hands seller n a target x_n = D_t/N + b_n, where
the offsets b_n come from the allocation policy's transfers applied to
lagged aggregate demand and sum to zero (`policy.benchmark_offsets`), so
any admissible design can be routed.  The greedy router assigns every
arriving order to the seller with the smallest offset-adjusted count; when
all targets are nonnegative the final counts land within one order of
every target.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .demand import DemandModel, DemandPath
from .policy import AllocationPolicy, benchmark_offsets

OFFSET_SUM_TOL = 1e-9
# Floating-point slack when comparing adjusted counts for the argmin and
# when screening targets for feasibility.
_TIE_TOL = 1e-12


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


def route_orders(offsets, D_t: int, seed: int,
                 tie_break: str = "random") -> RoutingResult:
    """Assign D_t orders one at a time by smallest offset-adjusted count.

    offsets is one period's 1-d array of per-seller offsets b_n; they must
    sum to zero.  Ties go to a uniformly random candidate under the seeded
    generator, or to the lowest index with tie_break="lowest" for
    reproducible goldens.
    """
    b = np.asarray(offsets, dtype=float)
    N = b.size
    scale = max(1.0, float(np.max(np.abs(b))) if N else 0.0)
    if abs(float(b.sum())) > OFFSET_SUM_TOL * scale:
        raise ValueError("offsets must sum to zero")
    if D_t < 0:
        raise ValueError("order count must be nonnegative")
    targets = D_t / N + b
    scale = max(1.0, float(np.max(np.abs(targets))))
    bad = np.flatnonzero(targets < -_TIE_TOL * scale)
    if bad.size:
        raise InfeasibleTargets((bad + 1).tolist())

    rng = np.random.default_rng(seed)
    counts = np.zeros(N, dtype=np.int64)
    log = np.empty(D_t, dtype=np.int64)
    for k in range(D_t):
        adjusted = counts - b
        m = adjusted.min()
        ties = np.flatnonzero(adjusted <= m + _TIE_TOL * max(1.0, abs(m)))
        chosen = int(ties[0] if tie_break == "lowest" else rng.choice(ties))
        counts[chosen] += 1
        log[k] = chosen + 1
    discrepancy = float(np.max(np.abs(counts - targets))) if N else 0.0
    return RoutingResult(counts=counts, targets=targets,
                         max_discrepancy=discrepancy, assignment_log=log)


@dataclass(frozen=True)
class RoutePathResult:
    """Per-period routing outcomes over a demand path."""

    results: list
    infeasible_periods: list
    cumulative_counts: np.ndarray
    cumulative_shares: np.ndarray
    max_discrepancy: float
    integer_demand: np.ndarray = field(repr=False, default=None)


def integerize_demand(path: DemandPath) -> np.ndarray:
    """Round a simulated Gaussian path to nonnegative integer order counts."""
    return np.maximum(np.rint(np.asarray(path.demands)), 0.0).astype(np.int64)


def route_path(alloc_policy: AllocationPolicy, model: DemandModel,
               path: DemandPath, seed: int, on_infeasible: str = "raise",
               tie_break: str = "random") -> RoutePathResult:
    """Route a whole demand path period by period.

    The policy's offsets come from the lagged realized (integer) demand;
    missing lags before the path starts count as demand at the mean.
    on_infeasible="skip" records periods with negative targets instead of
    raising; their orders are not routed.
    """
    demand = integerize_demand(path)
    offsets = benchmark_offsets(alloc_policy, model, demand)
    T = demand.size
    N = alloc_policy.n_sellers
    period_seeds = np.random.default_rng(seed).integers(0, 2 ** 63, size=T)
    results = []
    infeasible = []
    cumulative = np.zeros(N, dtype=np.int64)
    worst = 0.0
    for t in range(T):
        try:
            res = route_orders(offsets[t], int(demand[t]), int(period_seeds[t]),
                               tie_break=tie_break)
        except InfeasibleTargets as exc:
            if on_infeasible != "skip":
                raise InfeasibleTargets(exc.sellers, period=t) from None
            infeasible.append(t)
            results.append(None)
            continue
        results.append(res)
        cumulative += res.counts
        worst = max(worst, res.max_discrepancy)
    total = int(cumulative.sum())
    shares = cumulative / total if total else np.zeros(N)
    return RoutePathResult(results=results, infeasible_periods=infeasible,
                           cumulative_counts=cumulative,
                           cumulative_shares=shares,
                           max_discrepancy=worst,
                           integer_demand=demand)


def export_assignment_log(path_result: RoutePathResult, fileobj) -> None:
    """CSV log: period, order index, chosen seller, adjusted counts snapshot.

    The snapshot columns adj_1..adj_N hold counts minus offsets immediately
    after the order is assigned.
    """
    n = path_result.cumulative_counts.size
    writer = csv.writer(fileobj)
    writer.writerow(["period", "order", "seller"] + [f"adj_{i}" for i in range(1, n + 1)])
    for t, res in enumerate(path_result.results):
        if res is None:
            continue
        offs = res.targets - float(res.counts.sum()) / res.counts.size
        counts = np.zeros(res.counts.size, dtype=np.int64)
        for k, seller in enumerate(res.assignment_log):
            counts[seller - 1] += 1
            adjusted = counts - offs
            writer.writerow([t, k, int(seller)] + [f"{a:.6f}" for a in adjusted])
