"""Benchmark of the demandalloc command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: it imports the package from
the checkout's src/ and exits with code 2, printing no result, when that is
missing.  A workload is one market taken through the whole CLI pipeline
(optimize, curve, simulate, route) in this process via
``demandalloc.cli.main``.  Primary output goes to --out files in a temporary
directory under .perfbench/; the JSON summary is captured in memory.  After
every call, outside the timed region, its output is checked against the
independent oracle in checks.py; a call fails on a nonzero exit, an
unreadable output or a failed check.

--trace 0 repeats timed passes over the pipeline for S seconds with tracing
off and reports the end-to-end metrics (medians over calls).  --trace 1
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics; the traced spans go to .perfbench/spans-<workload>-<seed>.json.
Both print a readable report, then as the last line of standard output one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import platform as host
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import market
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_SCENARIO = ROOT / "scenarios" / "illustrative.scenario"
WORK_DIR = ROOT / ".perfbench"
PACKAGE = "demandalloc"

COMMANDS = ("optimize", "curve", "simulate", "route")
LAYERS = ("cli", "polyalg", "demand", "policy", "seller", "forecast",
          "platform", "routing")
CURVE_GRID = 200
# Untraced passes per run at least, even past --seconds, so a median exists.
MIN_PASSES = 3
# Fresh-interpreter imports timed per run for setup_s (after one that warms
# the bytecode cache).
SETUP_REPS = 9
# Host speed on a shared machine drifts by up to +-20% over tens of seconds,
# with wall time equal to CPU time, so it is not scheduling and no run length
# averages it out.  Command times are therefore scaled to a reference host
# speed: each batch of calls is bracketed by timings of a fixed calibration
# loop, and its time is multiplied by CALIBRATION_REF_S over their mean.
# CALIBRATION_REF_S is the loop's median time on the host the benchmark was
# defined on (Intel Xeon, 2 CPUs, Python 3.11), so there the scaled times
# read as seconds at that host's median speed.
CALIBRATION_REF_S = 0.010
CALIBRATION_ROWS = 4000
# Median time of a bare interpreter start (python -c pass) on that host;
# setup_s is scaled by it the same way.
STARTUP_REF_S = 0.060


@dataclass(frozen=True)
class Workload:
    why: str
    sigma: float
    sim_periods: int
    route_periods: int
    n_sellers: int = 0          # 0: the shipped reference scenario
    mu: float = 0.0
    psi: tuple = ()
    # Calls per pass for commands too short to time well once.
    reps: tuple = ()
    # Seed of the simulated demand path; None: the workload seed.
    path_seed: int | None = None

    def scenario(self, seed: int) -> dict:
        if not self.n_sellers:
            with open(REFERENCE_SCENARIO) as fh:
                return json.load(fh)
        return market.synthetic_market(seed, self.n_sellers, self.mu, self.psi)


# Calls are kept under about half a second: the host-speed scaling tracks
# the host only between calls, so longer calls drift with it.
WORKLOADS = {
    "ref-paths": Workload(
        why="shipped N=10 market, 5k-period simulate and skip-heavy 2k-period "
            "route at sigma 3: per-period and per-order loops and CSV writers dominate",
        sigma=3.0, sim_periods=5000, route_periods=2000,
        reps=(("optimize", 40), ("curve", 5))),
    "wide-design": Workload(
        why="seeded N=100 market: the O(N^2) scalar seller/platform path of "
            "optimize and curve dominates; simulate and route are small controls",
        sigma=1.0, sim_periods=300, route_periods=3,
        n_sellers=100, mu=150.0, psi=(50.0,),
        # Three periods of ~150 orders vary the route's work by ~20% from
        # path to path, while the seeded seller costs do not change the work
        # of either control; a fixed path keeps that work constant.
        path_seed=0),
    "odd-ma-paths": Workload(
        why="seeded odd N=11 market, MA(2) demand: two-lag design, degree-4 "
            "seller filters, route-heavy 400-period routing with few skipped periods",
        sigma=0.7, sim_periods=5000, route_periods=400,
        n_sellers=11, mu=40.0, psi=(5.0, 2.0, 1.0),
        reps=(("optimize", 40), ("curve", 5))),
}

# Layers predicted to dominate a command's traced time on a workload.
PREDICTED_DOMINANT = {
    ("wide-design", "optimize"): {"seller", "platform"},
    ("wide-design", "curve"): {"seller", "platform"},
    ("ref-paths", "route"): {"routing"},
    ("odd-ma-paths", "route"): {"routing"},
    ("ref-paths", "simulate"): {"cli", "forecast"},
    ("odd-ma-paths", "simulate"): {"cli", "forecast"},
}

END_TO_END = (
    ("setup_s", "s"), ("optimize_s", "s"), ("curve_s", "s"),
    ("simulate_s", "s"), ("route_s", "s"), ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Functions whose inclusive time is reported even when called from their own
# layer.
TIMED = ("cli.load_scenario", "platform.optimize", "platform.payoff_curve",
         "platform.export_curve", "routing.route_path",
         "routing.export_assignment_log", "forecast.innovations_predict",
         "policy.allocate_ex_post")

# Per-layer metric -> (unit, better).
PER_LAYER = {f"{layer}.self_s": ("s", "lower") for layer in LAYERS}
PER_LAYER.update({f"{name}_s": ("s", "lower") for name in TIMED})
PER_LAYER.update({
    "cli.out_bytes": ("bytes", "lower"),
    "polyalg.poly_roots_calls": ("count", "lower"),
    "demand.simulate_calls": ("count", "lower"),
    "policy.seller_filter_calls": ("count", "lower"),
    "seller.k_evals": ("count", "lower"),
    "seller.k_evals_per_seller": ("count", "lower"),
    "seller.adoption_set_calls": ("count", "lower"),
    "forecast.predict_steps": ("count", "lower"),
    "platform.payoff_calls": ("count", "lower"),
    "routing.route_orders_calls": ("count", "lower"),
    "routing.orders_routed": ("count", "higher"),
    "routing.periods_skipped": ("count", "lower"),
    "routing.log_rows": ("count", "higher"),
    "routing.orders_dropped_share": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "warnings.UserWarning": ("count", "lower"),
    "warnings.RuntimeWarning": ("count", "lower"),
})
PER_LAYER.update({f"trace.{cmd}.overhead_s": ("s", "lower") for cmd in COMMANDS})


class Runner:
    """Runs CLI calls for one workload and checks every output."""

    def __init__(self, cli, workload: Workload, scenario: dict,
                 scenario_path: Path, seed: int, out_dir: Path):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warnings: Counter = Counter()
        self.stats: dict[str, dict] = {}
        self._verified: dict[str, bytes] = {}
        self.out = {cmd: out_dir / f"{cmd}.out" for cmd in COMMANDS}
        common = ["--scenario", str(scenario_path)]
        if workload.path_seed is not None:
            seed = workload.path_seed
        paths = ["--sigma", repr(workload.sigma), "--seed", str(seed)]
        self.argv = {
            "optimize": ["optimize", *common],
            "curve": ["curve", *common, "--grid", str(CURVE_GRID)],
            "simulate": ["simulate", *common, *paths,
                         "--periods", str(workload.sim_periods)],
            "route": ["route", *common, *paths,
                      "--periods", str(workload.route_periods)],
        }
        for cmd in COMMANDS:
            self.argv[cmd] += ["--out", str(self.out[cmd])]
        w = workload
        self.checkers = {
            "optimize": lambda path, summary: checks.check_optimize(
                scenario, path.read_text()),
            "curve": lambda path, summary: checks.check_curve(
                scenario, path.read_text(), CURVE_GRID),
            "simulate": lambda path, summary: checks.check_simulate(
                scenario, w.sigma, w.sim_periods, seed, path, summary),
            "route": lambda path, summary: checks.check_route(
                scenario, w.sigma, w.route_periods, seed, path, summary),
        }

    def call(self, command: str, tracer: Tracer | None = None) -> float:
        """One CLI call; returns its wall time.  Failures are counted, not
        raised."""
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(stdout), redirect_stderr(stderr), \
                    (tracer.installed() if tracer else nullcontext()):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(self.argv[command])
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a crash is a failed call; keep measuring
                    rc = traceback.format_exc()
                elapsed = time.perf_counter() - start
        self.attempted += 1
        self.warnings.update(w.category.__name__ for w in caught)
        error = self._check(command, rc, stdout.getvalue(), stderr.getvalue())
        if error:
            self.failed += 1
            self.errors.append(f"{command}: {error}")
        return elapsed

    def _check(self, command, rc, summary, stderr) -> str | None:
        if rc != 0:
            return f"exit {rc!r}: {stderr.strip()[-500:]}"
        path = self.out[command]
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        digest = hashlib.sha256(data + b"\0" + summary.encode()).digest()
        if self._verified.get(command) == digest:
            return None  # byte-identical to an output that passed the oracle
        try:
            stats = self.checkers[command](path, summary)
        except checks.CheckError as exc:
            return str(exc)
        stats["out_bytes"] = len(data)
        self.stats[command] = stats
        self._verified[command] = digest
        return None


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import demandalloc.cli, scaled to
    the reference host speed, and the raw seconds.

    Process start-up does not track the calibration loop, so each import is
    scaled by a bare interpreter start timed just before it instead."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = [sys.executable, "-c", "pass"]
    argv = [sys.executable, "-c", "import demandalloc.cli"]

    def seconds(command):
        # No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantize the times.
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        return time.perf_counter() - start

    seconds(argv)  # warms the bytecode cache
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        reference = seconds(bare)
        raw.append(seconds(argv))
        scaled.append(raw[-1] * STARTUP_REF_S / reference)
    return scaled, raw


def _calibration_loop() -> None:
    writer = csv.writer(io.StringIO())
    x = 0.0
    for i in range(CALIBRATION_ROWS):
        x = x * 0.999 + i
        writer.writerow([i, f"{x:.6f}", f"{x * 0.5:.6f}"])


def calibration_seconds() -> float:
    """Median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def keep_going(started: float, pass_seconds: list, seconds: float, minimum: int) -> bool:
    """Start another pass if it should end within the budget."""
    if len(pass_seconds) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(pass_seconds) <= seconds


def run_untraced(runner: Runner, workload: Workload, seconds: float):
    """Per-command call times scaled to the reference host speed, the raw
    times, and per-pass scaled wall times."""
    reps = dict(workload.reps)
    samples = {cmd: [] for cmd in COMMANDS}
    raw = {cmd: [] for cmd in COMMANDS}
    walls, pass_seconds = [], []
    started = time.perf_counter()
    before = calibration_seconds()
    while keep_going(started, pass_seconds, seconds, MIN_PASSES):
        begun = time.perf_counter()
        wall = 0.0
        for cmd in COMMANDS:
            times = [runner.call(cmd) for _ in range(reps.get(cmd, 1))]
            after = calibration_seconds()
            scale = CALIBRATION_REF_S / statistics.fmean((before, after))
            before = after
            raw[cmd] += times
            samples[cmd] += [t * scale for t in times]
            wall += statistics.fmean(times) * scale
        walls.append(wall)
        pass_seconds.append(time.perf_counter() - begun)
    return samples, raw, walls


class TraceReport:
    """Medians over traced passes, and the last pass's spans and counts."""

    def __init__(self):
        self.untraced = {cmd: [] for cmd in COMMANDS}
        self.traced = {cmd: [] for cmd in COMMANDS}
        self.self_s = {cmd: [] for cmd in COMMANDS}     # Counter per pass
        self.inclusive = []                             # Counter per pass
        self.calls = Counter()
        self.spans = {}
        self.problems = []

    def add_traced(self, cmd: str, wall: float, tracer: Tracer):
        roots = tracer.roots()
        layer_self = tracer.self_times()
        total = sum(layer_self.values())
        if len(roots) != 1:
            self.problems.append(f"{cmd}: {len(roots)} root spans, expected 1")
        elif abs(total - roots[0].duration) > 1e-9 * max(1.0, total):
            self.problems.append(f"{cmd}: self times sum to {total!r}, root span "
                                 f"lasts {roots[0].duration!r}")
        elif not 0.0 <= wall - total <= 1e-3 + 1e-3 * wall:
            self.problems.append(f"{cmd}: self times sum to {total:.6f} s of a "
                                 f"{wall:.6f} s traced call")
        self.traced[cmd].append(wall)
        self.self_s[cmd].append(layer_self)
        self.spans[cmd] = tracer.span_records()

    def median_self(self, cmd: str) -> dict:
        return {layer: statistics.median(c[layer] for c in self.self_s[cmd])
                for layer in LAYERS}


def run_traced(runner: Runner, seconds: float) -> TraceReport:
    report = TraceReport()
    pass_seconds = []
    started = time.perf_counter()
    while keep_going(started, pass_seconds, seconds, 1):
        begun = time.perf_counter()
        for cmd in COMMANDS:
            report.untraced[cmd].append(runner.call(cmd))
        inclusive, calls = Counter(), Counter()
        for cmd in COMMANDS:
            tracer = Tracer(PACKAGE, timed=TIMED)
            report.add_traced(cmd, runner.call(cmd, tracer), tracer)
            inclusive.update(tracer.inclusive)
            calls.update(tracer.calls)
        report.inclusive.append(inclusive)
        report.calls = calls
        pass_seconds.append(time.perf_counter() - begun)
    return report


def layer_metrics(report: TraceReport, runner: Runner, n_sellers: int) -> dict:
    med = statistics.median
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(report.median_self(cmd)[layer]
                                        for cmd in COMMANDS)
    for name in TIMED:
        values[f"{name}_s"] = med(c[name] for c in report.inclusive)
    calls = report.calls
    stats = runner.stats
    route = stats.get("route", {})
    values.update({
        "cli.out_bytes": sum(s.get("out_bytes", 0) for s in stats.values()),
        "polyalg.poly_roots_calls": calls["polyalg.poly_roots"],
        "demand.simulate_calls": calls["demand.simulate"],
        "policy.seller_filter_calls": calls["policy.seller_filter"],
        "seller.k_evals": calls["seller.inventory_coefficient"],
        "seller.k_evals_per_seller": calls["seller.inventory_coefficient"] / (2 * n_sellers),
        "seller.adoption_set_calls": calls["seller.adoption_set"],
        "forecast.predict_steps": stats.get("simulate", {}).get("predict_steps", 0),
        "platform.payoff_calls": calls["platform.payoff"],
        "routing.route_orders_calls": calls["routing.route_orders"],
        "routing.orders_routed": route.get("orders_routed", 0),
        "routing.periods_skipped": route.get("periods_skipped", 0),
        "routing.log_rows": route.get("log_rows", 0),
        "routing.orders_dropped_share": (route["orders_dropped"] / route["orders_total"]
                                         if route.get("orders_total") else 0.0),
        "warnings.UserWarning": runner.warnings["UserWarning"],
        "warnings.RuntimeWarning": runner.warnings["RuntimeWarning"],
    })
    overhead = {cmd: med(report.traced[cmd]) - med(report.untraced[cmd])
                for cmd in COMMANDS}
    for cmd in COMMANDS:
        values[f"trace.{cmd}.overhead_s"] = overhead[cmd]
    values["trace.overhead_s"] = sum(overhead.values())
    return values


def environment() -> str:
    cpu = host.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python {host.python_version()}, numpy {np.__version__}, "
            f"{os.cpu_count()} CPUs, {cpu}")


def print_trace_report(name: str, report: TraceReport, runner: Runner) -> None:
    for cmd in COMMANDS:
        self_s = report.median_self(cmd)
        wall = statistics.median(report.traced[cmd])
        total = sum(self_s.values())
        ranked = sorted(self_s, key=self_s.get, reverse=True)
        shares = ", ".join(f"{layer} {self_s[layer] / total:.0%}"
                           for layer in ranked if self_s[layer] >= 0.01 * total)
        line = f"  {cmd:<9} traced {wall:8.4f} s: {shares}"
        predicted = PREDICTED_DOMINANT.get((name, cmd))
        if predicted:
            top = set(ranked[:len(predicted)])
            verdict = "as predicted" if top == predicted else "NOT as predicted"
            line += f"  [dominant {'+'.join(sorted(top))}: {verdict}]"
        print(line)
    route = runner.stats.get("route")
    if route:
        print(f"  route: {route['log_rows']} orders routed, {route['orders_dropped']} "
              f"of {route['orders_total']} dropped in {route['periods_skipped']} "
              f"skipped periods")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from demandalloc import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        scenario = workload.scenario(args.seed)
    except OSError as exc:
        print(f"perfbench: cannot read the reference scenario: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if workload.n_sellers:
            scenario_path = out_dir / "market.scenario"
            market.write_market(scenario, scenario_path)
        else:
            scenario_path = REFERENCE_SCENARIO
        runner = Runner(cli, workload, scenario, scenario_path, args.seed, out_dir)
        n_sellers = len(scenario["sellers"])
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"N={n_sellers}; {environment()}")
        if args.trace:
            report = run_traced(runner, args.seconds)
            values = layer_metrics(report, runner, n_sellers)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in PER_LAYER.items()}
            print_trace_report(args.workload, report, runner)
            spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps(report.spans))
            problems = report.problems
        else:
            setup, raw_setup = measure_setup()
            samples, raw, walls = run_untraced(runner, workload, args.seconds)
            raw["setup"] = raw_setup
            values = {f"{cmd}_s": statistics.median(samples[cmd]) for cmd in COMMANDS}
            values["setup_s"] = statistics.median(setup)
            values["wall_s"] = statistics.median(walls)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            counts = {"setup_s": len(setup), "wall_s": len(walls)}
            counts.update({f"{cmd}_s": len(samples[cmd]) for cmd in COMMANDS})
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            print(f"  command times are scaled to the reference host speed; "
                  f"raw medians in brackets")
            for name, unit in END_TO_END:
                note = f"(median of {counts[name]})" if name in counts else ""
                if name[:-2] in raw:
                    note += f" [raw {statistics.median(raw[name[:-2]]):.6f} s]"
                print(f"  {name:<22} {values[name]:12.6f} {unit:<5} {note}")
            route = runner.stats.get("route", {})
            print(f"  {'failed_share':<22} {runner.failed / runner.attempted:12.6f} "
                  f"ratio ({runner.failed} of {runner.attempted} calls)")
            if route.get("orders_total"):
                print(f"  {'orders_dropped_share':<22} "
                      f"{route['orders_dropped'] / route['orders_total']:12.6f} ratio "
                      f"({route['orders_dropped']} of {route['orders_total']} orders)")
            problems = []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for error in runner.errors + problems:
        print(f"  FAILED {error}")
    if runner.warnings:
        print(f"  warnings: {dict(runner.warnings)}")
    correct = runner.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
