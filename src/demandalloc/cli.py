"""Command-line interface: scenario ingestion and analysis subcommands.

Scenario files are strict JSON: a demand block (mu, psi), a platform cost
block, a non-empty seller array, and an optional options block.  Unknown
fields anywhere are rejected so typos in cost parameters fail loudly rather
than silently changing the economics.  parse_scenario builds the scenario's
DemandModel once and reports its errors under the demand block's path.

Subcommands: optimize, simulate, route, factor, msfe, curve.  Primary
output (a solution document or CSV) goes to stdout or --out.  curve,
simulate and route also write a short JSON summary to the other stream;
optimize writes none (with --out it prints only "wrote PATH" on stderr), and
factor and msfe print one JSON document on stdout.  Exit codes: 0 success,
2 input error, 3 infeasibility, 4 numerical failure.

The commands parse, write and summarise; the model lives in the library.
Each scenario command builds the market table (seller.market_table) once;
simulate hands it to forecast.simulate_inventory (allocation, predictions of
every seller in one pass, stocks and costs) and writes its CSV in blocks
with forecast.export_simulation.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import forecast, platform, policy, routing, seller
from .demand import DemandModel, simulate
from .polyalg import (DEFAULT_BOUNDARY_TOL, NumericalInstability, TransferPoly,
                      inner_outer_factor, is_boundary_tol, root_msfe)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


class ScenarioError(ValueError):
    """Malformed scenario file; message carries the offending field path."""


@dataclass(frozen=True)
class Scenario:
    model: DemandModel
    costs: seller.PlatformCosts
    sellers: tuple
    sigma_cap: float
    seed: int
    horizon: int

    @property
    def n_sellers(self) -> int:
        return len(self.sellers)


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


def _record(cls, block, path: str):
    """A cls from the JSON object at path holding exactly its fields, all numbers."""
    names = tuple(f.name for f in fields(cls))
    _check_fields(block, path, required=names)
    try:
        return cls(**{name: _number(block, path, name) for name in names})
    except seller.DomainError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(doc: dict, source: str = "scenario") -> Scenario:
    _check_fields(doc, source, required=("demand", "platform", "sellers"),
                  optional=("options",))
    demand_block = doc["demand"]
    _check_fields(demand_block, f"{source}.demand", required=("mu", "psi"))
    mu = _number(demand_block, f"{source}.demand", "mu")
    psi_raw = demand_block["psi"]
    if not isinstance(psi_raw, list) or not psi_raw:
        raise ScenarioError(f"{source}.demand.psi: expected a non-empty array")
    psi = [_finite(c, f"{source}.demand.psi[{i}]") for i, c in enumerate(psi_raw)]
    options = doc.get("options", {})
    _check_fields(options, f"{source}.options", required=(),
                  optional=("sigma_cap", "seed", "horizon", "boundary_tol"))
    boundary_tol = (_number(options, f"{source}.options", "boundary_tol")
                    if "boundary_tol" in options else DEFAULT_BOUNDARY_TOL)
    if not is_boundary_tol(boundary_tol):
        raise ScenarioError(f"{source}.options.boundary_tol: expected a number "
                            f"in [0, 1), got {boundary_tol!r}")
    try:
        model = DemandModel(mu, psi, boundary_tol)
    except ValueError as exc:
        raise ScenarioError(f"{source}.demand: {exc}") from exc

    costs = _record(seller.PlatformCosts, doc["platform"], f"{source}.platform")
    sellers_raw = doc["sellers"]
    if not isinstance(sellers_raw, list) or not sellers_raw:
        raise ScenarioError(f"{source}.sellers: expected a non-empty array")
    sellers = tuple(_record(seller.SellerParams, entry, f"{source}.sellers[{i}]")
                    for i, entry in enumerate(sellers_raw, start=1))

    if "sigma_cap" in options:
        sigma_cap = _number(options, f"{source}.options", "sigma_cap")
        if not sigma_cap > 0:
            raise ScenarioError(f"{source}.options.sigma_cap: expected a number "
                                f"> 0, got {sigma_cap!r}")
    else:
        sigma_cap = 1e3 * policy.sigma_lower_bound(model, len(sellers))
        if not sigma_cap > 0:
            raise ScenarioError(f"{source}.demand.psi[0]: the default sigma_cap, "
                                f"1000 |psi[0]| / N, underflows to {sigma_cap!r}; "
                                "set options.sigma_cap")
    seed = _integer(options.get("seed", 0), f"{source}.options.seed", 0)
    horizon = _integer(options.get("horizon", 100_000),
                       f"{source}.options.horizon", 1)
    seller.check_cost_assumptions(sellers, costs)
    return Scenario(model=model, costs=costs, sellers=sellers,
                    sigma_cap=sigma_cap, seed=seed, horizon=horizon)


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


@contextlib.contextmanager
def _primary_stream(out_path):
    """Primary output goes to --out or stdout."""
    if out_path:
        with open(out_path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _nonfinite_path(node, path=""):
    """Path of the first non-finite float in nested dicts and lists, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    paths = (_nonfinite_path(v, f"{path}[{k}]" if isinstance(k, int)
                             else f"{path}.{k}" if path else k) for k, v in items)
    return next(filter(None, paths), None)


def _json_text(doc: dict) -> str:
    """Indented strict JSON; NumericalInstability names a non-finite number."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:  # with allow_nan=False: a number is not finite
        raise NumericalInstability(
            f"{_nonfinite_path(doc)} overflows the float range") from None


def _emit_summary(summary: dict, out_path) -> None:
    stream = sys.stdout if out_path else sys.stderr
    stream.write(_json_text(summary))


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    sigma_lower = policy.sigma_lower_bound(scenario.model, scenario.n_sellers)
    table = seller.market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    solution = platform.optimize(table, sigma_lower, scenario.sigma_cap)
    text = _json_text(platform.solution_document(solution, table))
    with _primary_stream(args.out) as fh:
        fh.write(text)
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _design_run(args):
    """Scenario, neutral design at --sigma and the simulated path; simulate
    and route share it so both use the same allocation policy."""
    scenario = load_scenario(args.scenario)
    model = scenario.model
    try:
        alloc_policy = policy.neutral_policy(model, scenario.n_sellers, args.sigma)
    except (policy.BelowLowerBound, policy.Infeasible):
        raise
    except ValueError as exc:  # the transfer coefficient overflows
        raise ScenarioError(f"--sigma: {exc}") from exc
    periods = scenario.horizon if args.periods is None else args.periods
    seed = scenario.seed if args.seed is None else args.seed
    return scenario, alloc_policy, simulate(model, periods, seed)


def cmd_simulate(args) -> int:
    scenario, alloc_policy, path = _design_run(args)
    sigma, model = args.sigma, scenario.model
    table = seller.market_table(scenario.sellers, scenario.costs, model.mu)
    try:
        run = forecast.simulate_inventory(table, alloc_policy, model, path, sigma)
    except policy.InsufficientHistory as exc:
        source = ("--periods" if args.periods is not None
                  else f"{args.scenario}.options.horizon")
        raise ScenarioError(f"{source}: {exc}") from exc
    with _primary_stream(args.out) as fh:
        forecast.export_simulation(run, fh)
    sellers = [{"seller": i, "mode": mode, "analytic_sigma": sigma,
                "empirical_msfe": msfe, "msfe_ratio": msfe / sigma,
                "mean_cost": cost, "k_sigma": k_sigma, "cost_ratio": cost / k_sigma}
               for i, (mode, msfe, cost, k_sigma) in enumerate(zip(
                   run.modes, run.empirical_msfe.tolist(), run.mean_cost.tolist(),
                   run.k_sigma.tolist()), start=1)]
    _emit_summary({"command": "simulate", "sigma": sigma,
                   "periods": path.demands.size, "seed": path.seed,
                   "sellers": sellers}, args.out)
    return EXIT_OK


def cmd_route(args) -> int:
    scenario, alloc_policy, path = _design_run(args)
    try:
        result = routing.route_path(alloc_policy, scenario.model, path, path.seed)
    except ValueError as exc:  # simulated demand beyond a whole order count
        raise ScenarioError(f"{args.scenario}.demand: {exc}") from exc
    with _primary_stream(args.out) as fh:
        routing.export_assignment_log(result, fh)
    skipped = result.infeasible_periods
    _emit_summary({
        "command": "route", "sigma": args.sigma,
        "periods": path.demands.size, "seed": path.seed,
        "feasible_periods": int(result.routed.sum()),
        "infeasible_periods": len(skipped),
        "first_infeasible": skipped[:10],
        "max_discrepancy": result.max_discrepancy,
        "cumulative_shares": [float(s) for s in result.cumulative_shares],
    }, args.out)
    return EXIT_OK


def _parse_coeffs(raw) -> TransferPoly:
    try:
        return TransferPoly([float(c) for c in raw])
    except ValueError as exc:
        raise ScenarioError(f"bad coefficients: {exc}") from exc


def _square(x: float) -> float:
    """x ** 2, inf where the float power raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def cmd_factor(args) -> int:
    p = _parse_coeffs(args.coeffs)
    fact = inner_outer_factor(p, boundary_tol=args.boundary_tol)
    doc = {
        "coeffs": list(map(float, p.coeffs)),
        "roots": [[z.real, z.imag] for z in fact.roots],
        "inner_roots": [[z.real, z.imag] for z in fact.inner_roots],
        "outer_coeffs": list(map(float, fact.outer.coeffs)),
        "root_msfe": fact.root_msfe,
        "msfe_squared": _square(fact.root_msfe),
        "invertible": fact.invertible,
    }
    sys.stdout.write(_json_text(doc))
    return EXIT_OK


def cmd_msfe(args) -> int:
    p = _parse_coeffs(args.coeffs)
    # Only the lead time needs the outer factor; without it root_msfe splits
    # the roots alone, with no boundary warning and no expansion.
    fact = None if args.lead is None else inner_outer_factor(p)
    sigma = root_msfe(p) if fact is None else fact.root_msfe
    doc = {"coeffs": list(map(float, p.coeffs)),
           "root_msfe": sigma,
           "msfe_squared": _square(sigma)}
    if fact is not None:
        sigma_bar = forecast.leadtime_msfe(fact.outer, args.lead)
        doc["lead"] = args.lead
        doc["leadtime_msfe"] = sigma_bar
        doc["leadtime_msfe_squared"] = _square(sigma_bar)
    if args.ses is not None:
        forecaster = forecast.ses_truncated_weights(args.ses)
        doc["ses_lambda"] = args.ses
        doc["ses_msfe"] = forecast.filter_msfe(p, forecaster)
    sys.stdout.write(_json_text(doc))
    return EXIT_OK


def cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    sigma_lower = policy.sigma_lower_bound(scenario.model, scenario.n_sellers)
    table = seller.market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    sigma_u = table.participation_ub(scenario.sigma_cap)
    hi = min(scenario.sigma_cap, 1.1 * sigma_u)
    grid = np.linspace(0.0, hi, args.grid)
    points = platform.payoff_curve(table, grid, sigma_u)
    summary = {"command": "curve", "points": len(points),
               "sigma_upper": sigma_u,
               "sigma_lower": sigma_lower}
    if args.check_linearity:
        residual = _max_segment_residual(points)
        summary["max_linearity_residual"] = residual
        summary["linear_within_segments"] = residual <= 1e-9
    with _primary_stream(args.out) as fh:
        platform.export_curve(points, fh)
    _emit_summary(summary, args.out)
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
_nonnegative_int = _flag_type(int, lambda n: n >= 0, "an integer >= 0")
_boundary_tol = _flag_type(float, is_boundary_tol, "a number in [0, 1)")
_smoothing = _flag_type(float, lambda x: forecast.SES_MIN_LAMBDA <= x <= 1,
                        f"a number in [{forecast.SES_MIN_LAMBDA:.6g}, 1]")


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
            p.add_argument("--seed", type=_nonnegative_int, default=None,
                           help="RNG seed (default: scenario seed)")
        p.add_argument("--out", default=None, help="write primary output here")

    p_opt = sub.add_parser("optimize", help="solve the platform's sigma design problem")
    add_scenario_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="simulate demand, allocate, and cost out inventory")
    add_scenario_flags(p_sim, sigma_required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_route = sub.add_parser("route", help="route integer orders with offset tracking")
    add_scenario_flags(p_route, sigma_required=True)
    p_route.set_defaults(func=cmd_route)

    p_factor = sub.add_parser("factor", help="inner-outer factorization report")
    p_factor.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p_factor.add_argument("--boundary-tol", type=_boundary_tol, default=DEFAULT_BOUNDARY_TOL,
                          help="roots of modulus below 1 - tol count as inside")
    p_factor.set_defaults(func=cmd_factor)

    p_msfe = sub.add_parser("msfe", help="root MSFE, optionally lead-time or SES variants")
    p_msfe.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p_msfe.add_argument("--lead", type=_nonnegative_int, default=None,
                        help="replenishment lead time in periods")
    p_msfe.add_argument("--ses", type=_smoothing, default=None,
                        help="SES smoothing constant")
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
            platform.EmptyFeasibleSet) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
