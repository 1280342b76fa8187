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
with forecast.export_simulation.  A refused allocation exits 2 naming the
flag or field that sized it: --periods, options.horizon or --grid.

The fixed work of a call is kept small.  The predictor compiled per filter
degree (forecast._recursion) and the text of each string column
(csvtext._string_words) are kept across calls, for the life of the
process; the records are NamedTuples, so no call imports dataclasses.
build_parser lists all six subcommands but adds the flags of
the parsed one only.  Scenario.sellers is one seller.SellerParams, its records checked
a column at a time (the per-record path runs only to name a fault).  JSON
output comes from _json_text, which equals json.dumps(indent=2,
allow_nan=False) byte for byte but writes runs of one type (number lists,
records of one key sequence) a column at a time instead of through json's
pure-Python indenting encoder.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import forecast, platform, policy, routing, seller
from .demand import DemandModel, simulate
from .polyalg import (DEFAULT_BOUNDARY_TOL, NumericalInstability, TransferPoly,
                      ZeroPolynomial, inner_outer_factor, is_boundary_tol,
                      root_msfe)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_encode_str = json.encoder.encode_basestring_ascii


class ScenarioError(ValueError):
    """Malformed scenario file; message carries the offending field path."""


class Scenario(NamedTuple):
    model: DemandModel
    costs: seller.PlatformCosts
    sellers: seller.SellerParams
    sigma_cap: float
    seed: int
    horizon: int


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
    """A cls from the JSON object at path holding exactly its fields (its
    __match_args__), all finite numbers."""
    names = cls.__match_args__
    _check_fields(block, path, required=names)
    try:
        return cls(*(_finite(block[name], f"{path}.{name}") for name in names))
    except seller.DomainError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _sellers(records, source: str) -> seller.SellerParams:
    """The seller array of source as one SellerParams, checked a column at a
    time (objects of exactly h, b and f, finite float or int values); at a
    fault the records before it are checked at once, then the fault is named."""
    if not isinstance(records, list) or not records:
        raise ScenarioError(f"{source}.sellers: expected a non-empty array")
    names = ("h", "b", "f")
    fields = set(names)
    try:
        if all(type(r) is dict and r.keys() == fields for r in records):
            columns = [[r[name] for r in records] for name in names]
            if all(set(map(type, c)) <= {float, int}
                   and all(map(sys.float_info.max.__ge__, map(abs, c)))
                   for c in columns):
                return seller.SellerParams(*columns)
        rows = []
        for i, entry in enumerate(records, start=1):
            path = f"{source}.sellers[{i}]"
            try:
                _check_fields(entry, path, required=names)
                rows.append([_finite(entry[name], f"{path}.{name}") for name in names])
            except ScenarioError:
                seller.SellerParams(*np.reshape(rows, (-1, len(names))).T)
                raise
        return seller.SellerParams(*zip(*rows))
    except seller.DomainError as exc:  # it names sellers[n]
        raise ScenarioError(f"{source}.{exc}") from exc


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
    sellers = _sellers(doc["sellers"], source)
    if not mu / len(sellers) > 0:
        raise ScenarioError(f"{source}.demand.mu: the mean demand per seller, "
                            f"mu / N = {mu!r} / {len(sellers)}, underflows to 0")

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


def _json_texts(values: list, indent: str) -> list:
    """json.dumps(v, indent=2) of each of values, siblings whose closing
    brackets sit at indent (a newline and spaces).  Runs of one type are
    written a column at a time: numbers through int.__repr__ and
    float.__repr__, strings through the C encode_basestring_ascii, and
    records (dicts of one key sequence) through one template per run.  A
    non-finite float raises ValueError, as json.dumps does with
    allow_nan=False.  Dict keys must be strings."""
    kinds = set(map(type, values))
    if len(kinds) > 1:
        return [_json_texts([v], indent)[0] for v in values]
    (kind,) = kinds
    if issubclass(kind, str):
        return list(map(_encode_str, values))
    if kind is bool:
        return ["true" if v else "false" for v in values]
    if kind is type(None):
        return ["null"] * len(values)
    if issubclass(kind, int):
        return list(map(int.__repr__, values))
    if issubclass(kind, float):
        if not all(map(math.isfinite, values)):
            raise ValueError("Out of range float values are not JSON compliant")
        return list(map(float.__repr__, values))
    inner = indent + "  "
    if issubclass(kind, (list, tuple)):
        sep = "," + inner
        return [f"[{inner}{sep.join(_json_texts(v, inner))}{indent}]" if v else "[]"
                for v in values]
    if not issubclass(kind, dict):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if len(set(map(tuple, values))) > 1:  # key sequences differ
        return [_json_texts([v], indent)[0] for v in values]
    keys = list(values[0])
    if not keys:
        return ["{}"] * len(values)
    if not all(isinstance(k, str) for k in keys):
        raise TypeError("keys must be str")
    template = "{" + ",".join(f"{inner}{_encode_str(k).replace('%', '%%')}: %s"
                              for k in keys) + indent + "}"
    columns = [_json_texts([v[k] for v in values], inner) for k in keys]
    return list(map(template.__mod__, zip(*columns)))


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2, allow_nan=False) + "\\n", byte for byte;
    NumericalInstability names a non-finite number."""
    try:
        return _json_texts([doc], "\n")[0] + "\n"
    except ValueError:  # a number is not finite
        raise NumericalInstability(
            f"{_nonfinite_path(doc)} overflows the float range") from None


def _emit_summary(summary: dict, out_path) -> None:
    stream = sys.stdout if out_path else sys.stderr
    stream.write(_json_text(summary))


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    sigma_lower = policy.sigma_lower_bound(scenario.model, len(scenario.sellers))
    table = seller.market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    solution = platform.optimize(table, sigma_lower, scenario.sigma_cap)
    text = _json_text(platform.solution_document(solution, table))
    with _primary_stream(args.out) as fh:
        fh.write(text)
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _design_run(args):
    """Scenario, neutral design at --sigma, the simulated demand and its
    seed; simulate and route share it so both use the same allocation policy."""
    scenario = load_scenario(args.scenario)
    model = scenario.model
    try:
        alloc_policy = policy.neutral_policy(model, len(scenario.sellers), args.sigma)
    except (policy.BelowLowerBound, policy.Infeasible):
        raise
    except ValueError as exc:  # the transfer coefficient overflows
        raise ScenarioError(f"--sigma: {exc}") from exc
    periods = scenario.horizon if args.periods is None else args.periods
    seed = scenario.seed if args.seed is None else args.seed
    return scenario, alloc_policy, simulate(model, periods, seed), seed


def _periods_source(args) -> str:
    """Where a path's length comes from: --periods or the scenario horizon."""
    return ("--periods" if args.periods is not None
            else f"{args.scenario}.options.horizon")


def _sized_by(source):
    """Command decorator: a refused allocation (MemoryError) is an input
    error naming source(args), the flag or field that sized it."""
    def decorate(command):
        @functools.wraps(command)
        def run(args):
            try:
                return command(args)
            except MemoryError as exc:
                raise ScenarioError(f"{source(args)}: too large: "
                                    f"{exc or 'out of memory'}") from None
        return run
    return decorate


@_sized_by(_periods_source)
def cmd_simulate(args) -> int:
    scenario, alloc_policy, demands, seed = _design_run(args)
    sigma, model = args.sigma, scenario.model
    table = seller.market_table(scenario.sellers, scenario.costs, model.mu)
    try:
        run = forecast.simulate_inventory(table, alloc_policy, model, demands, sigma)
    except policy.InsufficientHistory as exc:
        raise ScenarioError(f"{_periods_source(args)}: {exc}") from exc
    with _primary_stream(args.out) as fh:
        forecast.export_simulation(run, fh)
    sellers = [{"seller": i, "mode": mode, "analytic_sigma": sigma,
                "empirical_msfe": msfe, "msfe_ratio": msfe / sigma,
                "mean_cost": cost, "k_sigma": k_sigma, "cost_ratio": cost / k_sigma}
               for i, (mode, msfe, cost, k_sigma) in enumerate(zip(
                   run.modes, run.empirical_msfe.tolist(), run.mean_cost.tolist(),
                   run.k_sigma.tolist()), start=1)]
    _emit_summary({"command": "simulate", "sigma": sigma,
                   "periods": demands.size, "seed": seed,
                   "sellers": sellers}, args.out)
    return EXIT_OK


@_sized_by(_periods_source)
def cmd_route(args) -> int:
    scenario, alloc_policy, demands, seed = _design_run(args)
    try:
        result = routing.route_path(alloc_policy, scenario.model, demands, seed)
    except NumericalInstability as exc:
        raise NumericalInstability(
            f"route at sigma = {args.sigma:g} overflows: {exc}") from exc
    except ValueError as exc:  # simulated demand beyond a whole order count
        raise ScenarioError(f"{args.scenario}.demand: {exc}") from exc
    with _primary_stream(args.out) as fh:
        routing.export_assignment_log(result, fh)
    skipped = result.infeasible_periods
    _emit_summary({
        "command": "route", "sigma": args.sigma,
        "periods": demands.size, "seed": seed,
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
        raise ScenarioError(f"coeffs: {exc}") from exc


def _square(x: float) -> float:
    """x ** 2, inf where the float power raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def cmd_factor(args) -> int:
    p = _parse_coeffs(args.coeffs)
    try:
        fact = inner_outer_factor(p, boundary_tol=args.boundary_tol)
    except ZeroPolynomial as exc:
        raise ScenarioError(f"coeffs: {exc}") from exc
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
    try:
        fact = None if args.lead is None else inner_outer_factor(p)
        sigma = root_msfe(p) if fact is None else fact.root_msfe
    except ZeroPolynomial as exc:
        raise ScenarioError(f"coeffs: {exc}") from exc
    doc = {"coeffs": list(map(float, p.coeffs)),
           "root_msfe": sigma,
           "msfe_squared": _square(sigma)}
    if fact is not None:
        sigma_bar = forecast.leadtime_msfe(fact.outer, args.lead)
        doc["lead"] = args.lead
        doc["leadtime_msfe"] = sigma_bar
        doc["leadtime_msfe_squared"] = _square(sigma_bar)
    if args.ses is not None:
        doc["ses_lambda"] = args.ses
        doc["ses_msfe"] = forecast.ses_msfe(p, args.ses)
    sys.stdout.write(_json_text(doc))
    return EXIT_OK


@_sized_by(lambda args: "--grid")
def cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    sigma_lower = policy.sigma_lower_bound(scenario.model, len(scenario.sellers))
    table = seller.market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    sigma_u = table.participation_ub(scenario.sigma_cap)
    hi = min(scenario.sigma_cap, 1.1 * sigma_u)
    grid = np.linspace(0.0, hi, args.grid)
    curve = platform.payoff_curve(table, grid, sigma_u)
    summary = {"command": "curve", "points": curve.sigma.size,
               "sigma_upper": sigma_u,
               "sigma_lower": sigma_lower}
    if args.check_linearity:
        residual = _max_segment_residual(curve)
        summary["max_linearity_residual"] = residual
        summary["linear_within_segments"] = residual <= 1e-9
    with _primary_stream(args.out) as fh:
        platform.export_curve(curve, fh)
    _emit_summary(summary, args.out)
    return EXIT_OK


def _max_segment_residual(curve) -> float:
    """Largest relative deviation of any interior curve point from the line
    through its segment's endpoints.  Zero for an exactly piecewise-linear
    curve; breakpoint left/right points delimit the segments: a segment
    ends at a left point and starts at a right point."""
    side, sigma, payoff = curve.side, curve.sigma, curve.payoff
    left, right = (side == platform.SIDES.index(s) for s in ("left", "right"))
    start = np.r_[True, right[1:] | left[:-1]]
    first, segment = np.flatnonzero(start), np.cumsum(start) - 1
    q = np.arange(side.size)
    a, b = first[segment], np.append(first[1:] - 1, side.size - 1)[segment]
    q = q[(a < q) & (q < b) & (sigma[a] < sigma[b])]
    a, b = a[q], b[q]
    scale = np.maximum(1.0, np.maximum(abs(payoff[a]), abs(payoff[b])))
    residual = abs(payoff[q] - (payoff[a] + (payoff[b] - payoff[a])
                                * (sigma[q] - sigma[a]) / (sigma[b] - sigma[a])))
    return float((residual / scale).max(initial=0.0))


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
_smoothing = _flag_type(float, lambda x: 0 < x <= 1, "a number in (0, 1]")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, set up (ArgumentParser.__init__, then
    add_flags) only when it is the one being parsed; the top-level parser
    reads nothing of the other five but their names and help."""

    def __init__(self, add_flags, **kwargs):
        self._pending = add_flags, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            add_flags, kwargs = self._pending
            super().__init__(**kwargs)
            add_flags(self)
            self._pending = None
        return super().parse_known_args(args, namespace)


def _scenario_flags(func, sigma_required=False):
    def add_flags(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        if sigma_required:
            p.add_argument("--sigma", type=_positive_float, required=True,
                           help="per-seller root MSFE target")
            p.add_argument("--periods", type=_count, default=None,
                           help="periods to simulate (default: scenario horizon)")
            p.add_argument("--seed", type=_nonnegative_int, default=None,
                           help="RNG seed (default: scenario seed)")
        p.add_argument("--out", default=None, help="write primary output here")
        p.set_defaults(func=func)
    return add_flags


def _curve_flags(p):
    _scenario_flags(cmd_curve)(p)
    p.add_argument("--grid", type=_count, default=200, help="grid points")
    p.add_argument("--check-linearity", action="store_true",
                   help="verify the curve is linear between breakpoints")


def _factor_flags(p):
    p.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p.add_argument("--boundary-tol", type=_boundary_tol, default=DEFAULT_BOUNDARY_TOL,
                   help="roots of modulus below 1 - tol count as inside")
    p.set_defaults(func=cmd_factor)


def _msfe_flags(p):
    p.add_argument("coeffs", nargs="+", help="polynomial coefficients, low order first")
    p.add_argument("--lead", type=_nonnegative_int, default=None,
                   help="replenishment lead time in periods")
    p.add_argument("--ses", type=_smoothing, default=None,
                   help="SES smoothing constant")
    p.set_defaults(func=cmd_msfe)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  Its six subcommand entries (name and help)
    are all there, so usage, -h and errors read the same; a subcommand's
    flags are added when it is parsed (_CommandParser)."""
    parser = argparse.ArgumentParser(
        prog="demandalloc",
        description="Demand-allocation policy design and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, help_text, add_flags in (
            ("optimize", "solve the platform's sigma design problem",
             _scenario_flags(cmd_optimize)),
            ("simulate", "simulate demand, allocate, and cost out inventory",
             _scenario_flags(cmd_simulate, sigma_required=True)),
            ("route", "route integer orders with offset tracking",
             _scenario_flags(cmd_route, sigma_required=True)),
            ("factor", "inner-outer factorization report", _factor_flags),
            ("msfe", "root MSFE, optionally lead-time or SES variants", _msfe_flags),
            ("curve", "export the payoff curve as CSV", _curve_flags)):
        sub.add_parser(name, help=help_text, add_flags=add_flags)
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
