"""Output checks for the benchmark against an independent oracle.

The oracle shares no code with demandalloc.  It recomputes what each
command's output must satisfy from the scenario document and the command's
arguments, with numpy and the standard library only: the critical fractile
and inventory coefficient K from statistics.NormalDist, the demand path from
numpy's seeded PCG64 generator (the reproducibility contract the package
documents), and the routing targets from the neutral design's offsets.

Each check raises CheckError naming what failed, or returns a dict of counts
read off the output.
"""
from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

import numpy as np

_NORMAL = NormalDist()

# The adoption boundary is inclusive: a seller exactly at its threshold
# adopts.  Thresholds computed in floating point get this relative slack.
_ADOPTION_SLACK = 1e-9
# Negative routing targets within this relative slack of zero are feasible.
_TARGET_SLACK = 1e-12
# Half a unit in the last place of the CLI's six-decimal CSV fields.
_HALF_ULP6 = 5e-7
# A seller's empirical root MSFE is a mean over T squared Gaussian
# innovations, so its ratio to the design sigma has standard deviation
# about 1/sqrt(2T); allow this many standard deviations.
_MSFE_SDS = 6.0
# Points of the dense grid the optimum is compared against.
_OPTIMUM_GRID = 4001


class CheckError(Exception):
    """An output that fails its check."""


def newsvendor(h_bar: float, b: float):
    """(zeta, K): critical fractile and inventory coefficient."""
    zeta = _NORMAL.inv_cdf(b / (h_bar + b))
    loss = _NORMAL.pdf(zeta) - zeta * (1.0 - _NORMAL.cdf(zeta))
    return zeta, h_bar * zeta + (h_bar + b) * loss


class Market:
    """The oracle's view of one scenario document."""

    def __init__(self, doc: dict):
        demand, plat = doc["demand"], doc["platform"]
        self.mu = float(demand["mu"])
        self.psi = np.array(demand["psi"], dtype=float)
        self.rho, self.F, self.H = plat["rho"], plat["F"], plat["H"]
        self.delta_f, self.delta_h, self.r = plat["delta_f"], plat["delta_h"], plat["r"]
        h = np.array([s["h"] for s in doc["sellers"]], dtype=float)
        b = np.array([s["b"] for s in doc["sellers"]], dtype=float)
        f = np.array([s["f"] for s in doc["sellers"]], dtype=float)
        self.N = h.size
        self.share = self.mu / self.N
        fbm = np.array([newsvendor(hn, bn) for hn, bn in zip(h, b)])
        fbp = np.array([newsvendor(self.H, bn) for bn in b])
        self.zeta_fbp = fbp[:, 0]
        self.dF = f - self.F
        self.dK = fbp[:, 1] - fbm[:, 1]
        self.sigma_lower = abs(float(self.psi[0])) / self.N
        cap = doc.get("options", {}).get("sigma_cap", 1e3 * self.sigma_lower)
        bound = np.min(np.maximum((self.r - self.rho - f) * self.share / fbm[:, 1],
                                  (self.r - self.rho - self.F) * self.share / fbp[:, 1]))
        self.sigma_upper = float(min(max(bound, 0.0), cap))
        exits = self.dK > 0
        self.breakpoints = np.sort(self.mu * self.dF[exits] / (self.N * self.dK[exits]))

    def adopters(self, sigma, strict: bool = False) -> np.ndarray:
        """Boolean mask of FBP adopters; sigma may be an array (one row each)."""
        sigma = np.asarray(sigma, dtype=float)[..., None]
        fixed = self.share * self.dF
        margin = fixed - sigma * self.dK
        slack = _ADOPTION_SLACK * np.maximum(1.0, np.maximum(np.abs(fixed),
                                                             np.abs(sigma * self.dK)))
        return margin > slack if strict else margin >= -slack

    def payoff(self, sigma, strict: bool = False):
        """(payoff, adopter count, slope d payoff / d sigma), elementwise."""
        mask = self.adopters(sigma, strict)
        n = mask.sum(axis=-1)
        zeta_sum = (mask * self.zeta_fbp).sum(axis=-1)
        value = (self.rho * self.mu + self.delta_f * self.share * n
                 + self.delta_h * (self.share * n + np.asarray(sigma) * zeta_sum))
        return value, n, self.delta_h * zeta_sum

    def demand_path(self, periods: int, seed: int) -> np.ndarray:
        q = self.psi.size - 1
        shocks = np.random.default_rng(seed).standard_normal(periods + q)
        return self.mu + np.convolve(shocks, self.psi)[q:q + periods]

    def design_lag(self, sigma: float) -> int:
        """Memory of the minimal neutral design: none at the floor, one lag
        for even N, two for odd N."""
        if sigma == self.sigma_lower:
            return 0
        return 1 if self.N % 2 == 0 else 2

    def route_targets(self, sigma: float, demand: np.ndarray) -> np.ndarray:
        """Per-period benchmark targets D_t/N + b_n, shape (T, N); lags before
        the path count as demand at the mean."""
        lag1 = np.concatenate(([self.mu], demand[:-1])) - self.mu
        lag2 = np.concatenate(([self.mu, self.mu], demand[:-2]))[:demand.size] - self.mu
        scale = sigma / (self.N * self.sigma_lower)
        signs = np.array([(-1.0) ** n for n in range(1, self.N + 1)])
        offsets = scale * lag1[:, None] * signs
        if self.N == 1:
            offsets[:] = 0.0
        elif self.N % 2 == 1:
            offsets[:, 0] = scale * (lag1 + lag2)
            offsets[:, 1] = -scale * lag2
        return demand[:, None] / self.N + offsets


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_optimize(scenario: dict, document: str) -> dict:
    """The solution is the oracle's: sigma_L = |psi0|/N, payoff_star is the
    payoff at sigma_star, and no point of a dense grid over [sigma_L, sigma_U]
    or exit threshold in it beats it."""
    m = Market(scenario)
    try:
        sol = json.loads(document)
        sigma, value, adopters = sol["sigma_star"], sol["payoff_star"], sol["adopters"]
        lower, upper = sol["sigma_lower"], sol["sigma_upper"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"optimize: unreadable solution document: {exc}") from exc
    if not _close(lower, m.sigma_lower, 1e-12):
        raise CheckError(f"optimize: sigma_lower {lower!r} != |psi0|/N = {m.sigma_lower!r}")
    if not _close(upper, m.sigma_upper, 1e-9):
        raise CheckError(f"optimize: sigma_upper {upper!r} != oracle {m.sigma_upper!r}")
    if not m.sigma_lower * (1 - 1e-12) <= sigma <= m.sigma_upper * (1 + 1e-9):
        raise CheckError(f"optimize: sigma_star {sigma!r} outside "
                         f"[{m.sigma_lower!r}, {m.sigma_upper!r}]")
    at_star, _, _ = m.payoff(sigma)
    if not _close(value, float(at_star), 1e-9):
        raise CheckError(f"optimize: payoff_star {value!r} != oracle payoff "
                         f"{float(at_star)!r} at sigma_star {sigma!r}")
    expected = (np.flatnonzero(m.adopters(sigma)) + 1).tolist()
    if sorted(adopters) != expected:
        raise CheckError(f"optimize: adopters {sorted(adopters)} != oracle {expected}")
    # A grid alone misses the peaks just left of close-packed exit
    # thresholds, so the oracle's own thresholds in range are probed too.
    in_range = m.breakpoints[(m.breakpoints >= m.sigma_lower)
                             & (m.breakpoints <= m.sigma_upper)]
    probes = np.concatenate((np.linspace(m.sigma_lower, m.sigma_upper, _OPTIMUM_GRID),
                             in_range))
    values, _, _ = m.payoff(probes)
    best = float(values.max())
    if float(at_star) < best - 1e-9 * max(1.0, abs(best)):
        raise CheckError(f"optimize: payoff {float(at_star)!r} at sigma_star is "
                         f"below the best {best!r} on a dense grid and the exit "
                         f"thresholds")
    return {}


def check_curve(scenario: dict, text: str, grid: int) -> dict:
    """Every row's payoff and adopter count are the oracle's at that row's
    sigma and side; one interior row per grid point."""
    m = Market(scenario)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["sigma", "payoff", "n_adopters", "gamma_fbp",
                               "gamma_fbm", "side"]:
        raise CheckError("curve: unexpected header")
    jumps = np.concatenate((m.breakpoints, [m.sigma_upper]))
    interior = 0
    last_sigma = -math.inf
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            sigma, value, n, side = float(row[0]), float(row[1]), int(row[2]), row[5]
        except (ValueError, IndexError) as exc:
            raise CheckError(f"curve: unreadable row {lineno}: {row!r}") from exc
        if sigma < last_sigma:
            raise CheckError(f"curve: row {lineno} out of sigma order")
        last_sigma = sigma
        near = jumps[np.abs(jumps - sigma) <= 2 * _HALF_ULP6 * max(1.0, sigma)]
        expected = []  # (payoff, adopters, tolerance)
        exact = _HALF_ULP6 + 1e-9 * abs(value)
        if side in ("left", "right"):
            for s in near:
                if s == m.sigma_upper and side == "right":
                    expected.append((0.0, 0, exact))
                else:
                    v, k, _ = m.payoff(s, strict=side == "right")
                    expected.append((float(v), int(k), exact))
        elif side == "interior":
            interior += 1
            if sigma > m.sigma_upper + 2 * _HALF_ULP6 * max(1.0, sigma):
                expected.append((0.0, 0, exact))
            else:
                # sigma is rounded to six decimals, so allow the payoff's
                # slope times that rounding; a grid point within rounding of
                # a jump may read on either side of it.
                for strict in (False, True) if near.size else (False,):
                    v, k, slope = m.payoff(sigma, strict=strict)
                    expected.append((float(v), int(k),
                                     exact + float(slope) * _HALF_ULP6))
                if near.size and near.max() == m.sigma_upper:
                    expected.append((0.0, 0, exact))
        else:
            raise CheckError(f"curve: row {lineno} has unknown side {side!r}")
        if not any(abs(value - v) <= tol and n == k for v, k, tol in expected):
            raise CheckError(f"curve: row {lineno} (sigma {row[0]}, {side}) reads "
                             f"payoff {value!r} with {n} adopters; oracle "
                             f"{[(v, k) for v, k, _ in expected]}")
    if interior != grid:
        raise CheckError(f"curve: {interior} interior rows for a {grid}-point grid")
    return {"rows": len(rows) - 1}


def check_simulate(scenario: dict, sigma: float, periods: int, seed: int,
                   csv_path, summary: str) -> dict:
    """Each row's demand is the seeded path's, its allocations sum to it
    within CSV rounding, and each seller's empirical root MSFE is within a
    Monte Carlo tolerance of the design sigma."""
    m = Market(scenario)
    demand = m.demand_path(periods, seed)
    start = m.design_lag(sigma)
    header = ["period", "demand"] + [f"{col}_{i}" for i in range(1, m.N + 1)
                                     for col in ("alloc", "forecast", "stock", "cost")]
    sum_tol = (m.N + 1) * _HALF_ULP6
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise CheckError("simulate: unexpected header")
        rows = 0
        for j, row in enumerate(reader):
            t = start + j
            try:
                period, d = int(row[0]), float(row[1])
                total = sum(float(x) for x in row[2::4])
            except (ValueError, IndexError) as exc:
                raise CheckError(f"simulate: unreadable row for period {t}") from exc
            if period != t or t >= periods:
                raise CheckError(f"simulate: row {j + 2} is period {period}, expected {t}")
            if abs(d - demand[t]) > _HALF_ULP6 + 1e-12 * abs(demand[t]):
                raise CheckError(f"simulate: period {t} demand {d!r} != seeded "
                                 f"path {demand[t]!r}")
            if abs(total - d) > sum_tol + 1e-9 * abs(d):
                raise CheckError(f"simulate: period {t} allocations sum to "
                                 f"{total!r}, demand is {d!r}")
            rows += 1
    if rows != periods - start:
        raise CheckError(f"simulate: {rows} rows, expected {periods - start}")
    try:
        ratios = [s["msfe_ratio"] for s in json.loads(summary)["sellers"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"simulate: unreadable summary: {exc}") from exc
    if len(ratios) != m.N:
        raise CheckError(f"simulate: summary lists {len(ratios)} sellers, not {m.N}")
    tol = _MSFE_SDS / math.sqrt(2.0 * rows)
    for i, ratio in enumerate(ratios, start=1):
        if not abs(ratio - 1.0) <= tol:
            raise CheckError(f"simulate: seller {i} msfe_ratio {ratio!r} is "
                             f"farther than {tol:.4f} from 1")
    return {"predict_steps": rows * m.N}


def check_route(scenario: dict, sigma: float, periods: int, seed: int,
                log_path, summary: str) -> dict:
    """Orders are conserved: every period with feasible targets routes exactly
    its integer demand, regenerated from the seed, and no other period routes
    any; each routed period's per-seller counts are within one unit of its
    targets.  Reads only the period, order and seller columns."""
    m = Market(scenario)
    demand = np.maximum(np.rint(m.demand_path(periods, seed)), 0.0).astype(np.int64)
    targets = m.route_targets(sigma, demand.astype(float))
    scale = np.maximum(1.0, np.abs(targets).max(axis=1))
    feasible = (targets >= -_TARGET_SLACK * scale[:, None]).all(axis=1)

    def close_period(t, counts, orders):
        if not feasible[t]:
            raise CheckError(f"route: period {t} has negative targets but routed orders")
        if orders != demand[t]:
            raise CheckError(f"route: period {t} routed {orders} of {demand[t]} orders")
        worst = float(np.abs(counts - targets[t]).max())
        if worst > 1.0 + 1e-9:
            raise CheckError(f"route: period {t} counts miss a target by {worst:.6f}")

    routed_periods = 0
    log_rows = 0
    with open(log_path) as fh:
        if fh.readline().split(",", 3)[:3] != ["period", "order", "seller"]:
            raise CheckError("route: unexpected header")
        current, counts, orders = -1, None, 0
        for line in fh:
            try:
                t, k, n = (int(x) for x in line.split(",", 3)[:3])
            except ValueError as exc:
                raise CheckError(f"route: unreadable row {log_rows + 2}") from exc
            if t != current:
                if t <= current or not 0 <= t < periods:
                    raise CheckError(f"route: period {t} out of order or range")
                if counts is not None:
                    close_period(current, counts, orders)
                current, counts, orders = t, np.zeros(m.N), 0
                routed_periods += 1
            if k != orders or not 1 <= n <= m.N:
                raise CheckError(f"route: period {t} row {k} (seller {n}) out of sequence")
            counts[n - 1] += 1
            orders += 1
            log_rows += 1
        if counts is not None:
            close_period(current, counts, orders)
    expected_periods = int(np.count_nonzero(feasible & (demand > 0)))
    if routed_periods != expected_periods:
        raise CheckError(f"route: {routed_periods} periods routed, "
                         f"{expected_periods} feasible with orders")
    skipped = int(np.count_nonzero(~feasible))
    try:
        reported = json.loads(summary)["infeasible_periods"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"route: unreadable summary: {exc}") from exc
    if reported != skipped:
        raise CheckError(f"route: summary reports {reported} skipped periods, "
                         f"oracle {skipped}")
    total = int(demand.sum())
    return {"orders_total": total,
            "orders_routed": int(demand[feasible].sum()),
            "log_rows": log_rows,
            "periods_skipped": skipped,
            "orders_dropped": total - log_rows}
