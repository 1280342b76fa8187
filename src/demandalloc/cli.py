"""Command-line interface: scenario ingestion and analysis subcommands.

Scenario files are strict JSON: a demand block (mu, psi), a platform cost
block, a non-empty seller array, and an optional options block.  Unknown
fields anywhere are rejected so typos in cost parameters fail loudly rather
than silently changing the economics.

Subcommands: optimize, simulate, route, factor, msfe, curve.  Primary
output (a solution document or CSV) goes to stdout or --out; a short JSON
summary accompanies it on the other stream.  Exit codes: 0 success, 2 input
error, 3 infeasibility, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import forecast, platform, policy, routing, seller
from .demand import DemandModel, simulate
from .polyalg import (NumericalInstability, TransferPoly, ZeroPolynomial,
                      inner_outer_factor, is_invertible, poly_roots, root_msfe)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class ScenarioError(ValueError):
    """Malformed scenario file; message carries the offending field path."""


@dataclass(frozen=True)
class Scenario:
    mu: float
    psi: tuple
    costs: seller.PlatformCosts
    sellers: tuple
    sigma_cap: float
    seed: int
    horizon: int
    boundary_tol: float

    @property
    def n_sellers(self) -> int:
        return len(self.sellers)

    def model(self) -> DemandModel:
        return DemandModel(self.mu, TransferPoly(self.psi),
                           boundary_tol=self.boundary_tol)

    def to_dict(self) -> dict:
        return {
            "demand": {"mu": self.mu, "psi": list(self.psi)},
            "platform": {"rho": self.costs.rho, "F": self.costs.F,
                         "H": self.costs.H, "delta_f": self.costs.delta_f,
                         "delta_h": self.costs.delta_h, "r": self.costs.r},
            "sellers": [{"h": s.h, "b": s.b, "f": s.f} for s in self.sellers],
            "options": {"sigma_cap": self.sigma_cap, "seed": self.seed,
                        "horizon": self.horizon,
                        "boundary_tol": self.boundary_tol},
        }


def _check_fields(block: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(block, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(block) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ScenarioError(f"{path}: missing field(s) {', '.join(missing)}")


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    # False for NaN, for infinities and for integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _number(block: dict, path: str, key: str) -> float:
    return _finite(block[key], f"{path}.{key}")


def parse_scenario(doc: dict, source: str = "scenario") -> Scenario:
    _check_fields(doc, source, required=("demand", "platform", "sellers"),
                  optional=("options",))
    demand_block = doc["demand"]
    _check_fields(demand_block, f"{source}.demand", required=("mu", "psi"))
    mu = _number(demand_block, f"{source}.demand", "mu")
    psi_raw = demand_block["psi"]
    if not isinstance(psi_raw, list) or not psi_raw:
        raise ScenarioError(f"{source}.demand.psi: expected a non-empty array")
    psi = tuple(_finite(c, f"{source}.demand.psi[{i}]")
                for i, c in enumerate(psi_raw))

    plat = doc["platform"]
    _check_fields(plat, f"{source}.platform",
                  required=("rho", "F", "H", "delta_f", "delta_h", "r"))
    try:
        costs = seller.PlatformCosts(
            rho=_number(plat, f"{source}.platform", "rho"),
            F=_number(plat, f"{source}.platform", "F"),
            H=_number(plat, f"{source}.platform", "H"),
            delta_f=_number(plat, f"{source}.platform", "delta_f"),
            delta_h=_number(plat, f"{source}.platform", "delta_h"),
            r=_number(plat, f"{source}.platform", "r"),
        )
    except seller.DomainError as exc:
        raise ScenarioError(f"{source}.platform: {exc}") from exc

    sellers_raw = doc["sellers"]
    if not isinstance(sellers_raw, list) or not sellers_raw:
        raise ScenarioError(f"{source}.sellers: expected a non-empty array")
    sellers = []
    for i, entry in enumerate(sellers_raw, start=1):
        path = f"{source}.sellers[{i}]"
        _check_fields(entry, path, required=("h", "b", "f"))
        try:
            sellers.append(seller.SellerParams(h=_number(entry, path, "h"),
                                               b=_number(entry, path, "b"),
                                               f=_number(entry, path, "f")))
        except seller.DomainError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    options = doc.get("options", {})
    _check_fields(options, f"{source}.options", required=(),
                  optional=("sigma_cap", "seed", "horizon", "boundary_tol"))
    sigma_l = abs(psi[0]) / len(sellers)
    sigma_cap = (_number(options, f"{source}.options", "sigma_cap")
                 if "sigma_cap" in options else 1e3 * sigma_l)
    seed = _integer(options.get("seed", 0), f"{source}.options.seed", 0)
    horizon = _integer(options.get("horizon", 100_000),
                       f"{source}.options.horizon", 1)
    boundary_tol = (_number(options, f"{source}.options", "boundary_tol")
                    if "boundary_tol" in options else 1e-9)
    scenario = Scenario(mu=mu, psi=psi, costs=costs, sellers=tuple(sellers),
                        sigma_cap=sigma_cap, seed=seed, horizon=horizon,
                        boundary_tol=boundary_tol)
    seller.check_cost_assumptions(scenario.sellers, costs)
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(doc, source=path)


def dump_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario.to_dict(), indent=2, allow_nan=False)


@contextlib.contextmanager
def _primary_stream(out_path):
    """Primary output goes to --out or stdout; tells the caller which."""
    if out_path:
        with open(out_path, "w", newline="") as fh:
            yield fh, False
    else:
        yield sys.stdout, True


def _emit_summary(summary: dict, primary_on_stdout: bool) -> None:
    stream = sys.stderr if primary_on_stdout else sys.stdout
    stream.write(json.dumps(summary, indent=2, allow_nan=False) + "\n")


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    model = scenario.model()
    solution = platform.optimize(scenario.sellers, scenario.costs, model,
                                 scenario.n_sellers, scenario.sigma_cap)
    doc = platform.solution_document(solution, scenario.sellers, scenario.costs,
                                     model, scenario.n_sellers)
    with _primary_stream(args.out) as (fh, on_stdout):
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            for key, value in doc.items():
                writer.writerow([key, json.dumps(value, allow_nan=False)])
        else:
            fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    if args.grid:
        lo, hi = solution.sigma_lower, solution.sigma_upper
        grid = np.linspace(lo, hi, args.grid)
        points = platform.payoff_curve(scenario.sellers, scenario.costs,
                                       scenario.n_sellers, scenario.mu, grid,
                                       sigma_cap=scenario.sigma_cap)
        curve_path = (args.out + ".curve.csv") if args.out else "payoff_curve.csv"
        with open(curve_path, "w", newline="") as fh:
            platform.export_curve(points, fh)
        print(f"wrote {curve_path}", file=sys.stderr)
    return EXIT_OK


def _design_run(args):
    """Scenario, demand model, neutral design at --sigma and the simulated
    path; simulate and route share it so both use the same allocation policy."""
    scenario = load_scenario(args.scenario)
    model = scenario.model()
    alloc_policy = policy.neutral_policy(model, scenario.n_sellers, args.sigma)
    periods = scenario.horizon if args.periods is None else args.periods
    seed = scenario.seed if args.seed is None else args.seed
    return scenario, model, alloc_policy, simulate(model, periods, seed)


def cmd_simulate(args) -> int:
    scenario, model, alloc_policy, path = _design_run(args)
    N = scenario.n_sellers
    sigma = args.sigma
    expost = policy.allocate_ex_post(alloc_policy, model, path)
    start = expost.start_period
    demands = path.demands[start:]

    table = seller.market_table(scenario.sellers, scenario.costs, N, scenario.mu)
    fbp = table.adopts(sigma)
    modes = [seller.FBP if a else seller.FBM for a in fbp.tolist()]
    zetas = np.where(fbp, table.zeta_fbp, table.zeta_fbm).tolist()
    ks = np.where(fbp, table.k_fbp, table.k_fbm).tolist()

    mu_share = scenario.mu / N
    rows = expost.allocations
    forecasts = np.empty_like(rows)
    stocks = np.empty_like(rows)
    costs_real = np.empty_like(rows)
    summary_sellers = []
    for i in range(N):
        filt = policy.seller_filter(alloc_policy, model, i + 1)
        pred = forecast.innovations_predict(filt, rows[i], mean=mu_share)
        stock = pred + zetas[i] * sigma
        over = np.maximum(stock - rows[i], 0.0)
        under = np.maximum(rows[i] - stock, 0.0)
        h_bar = scenario.costs.H if modes[i] == seller.FBP else scenario.sellers[i].h
        cost = h_bar * over + scenario.sellers[i].b * under
        forecasts[i], stocks[i], costs_real[i] = pred, stock, cost
        err = rows[i] - pred
        empirical = float(np.sqrt(np.mean(err ** 2)))
        summary_sellers.append({
            "seller": i + 1,
            "mode": modes[i],
            "analytic_sigma": sigma,
            "empirical_msfe": empirical,
            "msfe_ratio": empirical / sigma,
            "mean_cost": float(np.mean(cost)),
            "k_sigma": ks[i] * sigma,
            "cost_ratio": float(np.mean(cost)) / (ks[i] * sigma),
        })

    with _primary_stream(args.out) as (fh, on_stdout):
        writer = csv.writer(fh)
        header = ["period", "demand"]
        for i in range(1, N + 1):
            header += [f"alloc_{i}", f"forecast_{i}", f"stock_{i}", f"cost_{i}"]
        writer.writerow(header)
        for j in range(rows.shape[1]):
            line = [start + j, f"{demands[j]:.6f}"]
            for i in range(N):
                line += [f"{rows[i, j]:.6f}", f"{forecasts[i, j]:.6f}",
                         f"{stocks[i, j]:.6f}", f"{costs_real[i, j]:.6f}"]
            writer.writerow(line)
    _emit_summary({"command": "simulate", "sigma": sigma,
                   "periods": path.demands.size, "seed": path.seed,
                   "sellers": summary_sellers},
                  primary_on_stdout=not args.out)
    return EXIT_OK


def cmd_route(args) -> int:
    _, model, alloc_policy, path = _design_run(args)
    result = routing.route_path(alloc_policy, model, path, path.seed,
                                on_infeasible="skip")
    with _primary_stream(args.out) as (fh, on_stdout):
        routing.export_assignment_log(result, fh)
    feasible = sum(1 for r in result.results if r is not None)
    _emit_summary({
        "command": "route", "sigma": args.sigma,
        "periods": path.demands.size, "seed": path.seed,
        "feasible_periods": feasible,
        "infeasible_periods": len(result.infeasible_periods),
        "first_infeasible": result.infeasible_periods[:10],
        "max_discrepancy": result.max_discrepancy,
        "cumulative_shares": [float(s) for s in result.cumulative_shares],
    }, primary_on_stdout=not args.out)
    return EXIT_OK


def _parse_coeffs(raw) -> TransferPoly:
    try:
        p = TransferPoly([float(c) for c in raw])
    except ValueError as exc:
        raise ScenarioError(f"bad coefficients: {exc}") from exc
    if p.is_zero():
        raise ScenarioError("zero polynomial has no factorization or MSFE")
    return p


def cmd_factor(args) -> int:
    p = _parse_coeffs(args.coeffs)
    fact = inner_outer_factor(p, boundary_tol=args.boundary_tol)
    roots = [] if p.degree == 0 else [[z.real, z.imag] for z in poly_roots(p)]
    sigma = root_msfe(p, boundary_tol=args.boundary_tol)
    doc = {
        "coeffs": list(map(float, p.coeffs)),
        "roots": roots,
        "inner_roots": [[z.real, z.imag] for z in fact.inner_roots],
        "outer_coeffs": list(map(float, fact.outer.coeffs)),
        "root_msfe": sigma,
        "msfe_squared": sigma ** 2,
        "invertible": is_invertible(p, boundary_tol=args.boundary_tol),
    }
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_msfe(args) -> int:
    p = _parse_coeffs(args.coeffs)
    sigma = root_msfe(p)
    doc = {"coeffs": list(map(float, p.coeffs)),
           "root_msfe": sigma,
           "msfe_squared": sigma ** 2}
    if args.lead is not None:
        outer = inner_outer_factor(p).outer
        sigma_bar = forecast.leadtime_msfe(outer, args.lead)
        doc["lead"] = args.lead
        doc["leadtime_msfe"] = sigma_bar
        doc["leadtime_msfe_squared"] = sigma_bar ** 2
    if args.ses is not None:
        forecaster = forecast.ses_truncated_weights(args.ses)
        doc["ses_lambda"] = args.ses
        doc["ses_msfe"] = forecast.filter_msfe(p, forecaster)
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    model = scenario.model()
    N = scenario.n_sellers
    sigma_u = seller.sigma_participation_ub(scenario.sellers, scenario.costs,
                                            N, scenario.mu, scenario.sigma_cap)
    hi = min(scenario.sigma_cap, 1.1 * sigma_u)
    grid = np.linspace(0.0, hi, args.grid)
    points = platform.payoff_curve(scenario.sellers, scenario.costs, N,
                                   scenario.mu, grid,
                                   sigma_cap=scenario.sigma_cap)
    summary = {"command": "curve", "points": len(points),
               "sigma_upper": sigma_u,
               "sigma_lower": policy.sigma_lower_bound(model, N)}
    if args.check_linearity:
        residual = _max_segment_residual(points)
        summary["max_linearity_residual"] = residual
        summary["linear_within_segments"] = residual <= 1e-9
    with _primary_stream(args.out) as (fh, on_stdout):
        platform.export_curve(points, fh)
    _emit_summary(summary, primary_on_stdout=not args.out)
    return EXIT_OK


def _max_segment_residual(points) -> float:
    """Largest relative deviation of any interior curve point from the line
    through its segment's endpoints.  Zero for an exactly piecewise-linear
    curve; breakpoint left/right points delimit the segments."""
    def chord_residual(segment):
        if len(segment) < 3:
            return 0.0
        a, b = segment[0], segment[-1]
        span = b.sigma - a.sigma
        if span <= 0:
            return 0.0
        scale = max(1.0, abs(a.payoff), abs(b.payoff))
        return max(abs(q.payoff - (a.payoff + (b.payoff - a.payoff)
                                   * (q.sigma - a.sigma) / span)) / scale
                   for q in segment[1:-1])

    worst = 0.0
    segment = []
    for pt in points:
        if pt.side == "left":
            segment.append(pt)
            worst = max(worst, chord_residual(segment))
            segment = []
        elif pt.side == "right":
            segment = [pt]
        else:
            segment.append(pt)
    worst = max(worst, chord_residual(segment))
    return worst


def _flag_type(convert, accept, expected: str):
    """argparse type that rejects values outside the flag's domain at parse
    time, so a bad flag exits 2 naming itself before any output is written."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_positive_float = _flag_type(float, lambda x: 0 < x < float("inf"),
                             "a finite number > 0")
_count = _flag_type(int, lambda n: n >= 1, "an integer >= 1")
_seed = _flag_type(int, lambda n: n >= 0, "an integer >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandalloc",
        description="Demand-allocation policy design and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p, sigma_required=False):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        if sigma_required:
            p.add_argument("--sigma", type=_positive_float, required=True,
                           help="per-seller root MSFE target")
            p.add_argument("--periods", type=_count, default=None,
                           help="periods to simulate (default: scenario horizon)")
            p.add_argument("--seed", type=_seed, default=None,
                           help="RNG seed (default: scenario seed)")
        p.add_argument("--out", default=None, help="write primary output here")

    p_opt = sub.add_parser("optimize", help="solve the platform's sigma design problem")
    add_scenario_flags(p_opt)
    p_opt.add_argument("--grid", type=_count, default=None,
                       help="also export a payoff curve with this many grid points")
    p_opt.add_argument("--format", choices=("csv", "structured"),
                       default="structured", help="primary output format")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="simulate demand, allocate, and cost out inventory")
    add_scenario_flags(p_sim, sigma_required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_route = sub.add_parser("route", help="route integer orders with offset tracking")
    add_scenario_flags(p_route, sigma_required=True)
    p_route.set_defaults(func=cmd_route)

    p_factor = sub.add_parser("factor", help="inner-outer factorization report")
    p_factor.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p_factor.add_argument("--boundary-tol", type=float, default=1e-9)
    p_factor.set_defaults(func=cmd_factor)

    p_msfe = sub.add_parser("msfe", help="root MSFE, optionally lead-time or SES variants")
    p_msfe.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p_msfe.add_argument("--lead", type=int, default=None, help="replenishment lead time")
    p_msfe.add_argument("--ses", type=float, default=None, help="SES smoothing constant")
    p_msfe.set_defaults(func=cmd_msfe)

    p_curve = sub.add_parser("curve", help="export the payoff curve as CSV")
    add_scenario_flags(p_curve)
    p_curve.add_argument("--grid", type=_count, default=200, help="grid points")
    p_curve.add_argument("--check-linearity", action="store_true",
                         help="verify the curve is linear between breakpoints")
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (policy.BelowLowerBound, policy.Infeasible,
            platform.EmptyFeasibleSet, routing.InfeasibleTargets) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalInstability, forecast.ConvergenceFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ScenarioError, ZeroPolynomial, seller.DomainError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
