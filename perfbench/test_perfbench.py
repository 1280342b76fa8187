"""Self-tests of the benchmark: the tracer's arithmetic, the output checks'
power to reject a wrong output, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

import checks
import market
import run
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from demandalloc import cli  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.a and fakepkg.b, importing each other's functions by name;
    each function advances the fake clock by a distinct power of two."""
    clock = FakeClock()
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    for mod in (a, b):
        mod.clock = clock
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    exec("def top():\n    clock.advance(1); mid(); clock.advance(2); helper()\n"
         "def helper():\n    clock.advance(4)\n"
         "def leaf():\n    clock.advance(16)\n", a.__dict__)
    exec("def mid():\n    clock.advance(8); leaf()\n", b.__dict__)
    a.mid = b.mid
    b.leaf = a.leaf
    return clock, a, b


def test_tracer_self_times_add_up(fake_package):
    clock, a, b = fake_package
    original = a.top
    tracer = Tracer("fakepkg", timed=("a.helper",), clock=clock)
    with tracer.installed():
        a.top()
    assert a.top is original and a.mid is b.mid  # originals restored
    # a.helper is called from its own layer: counted and timed, no span.
    assert [s.name for s in tracer.spans] == ["a.top", "b.mid", "a.leaf"]
    assert dict(tracer.calls) == {"a.top": 1, "b.mid": 1, "a.leaf": 1, "a.helper": 1}
    assert tracer.inclusive["a.helper"] == 4
    (root,) = tracer.roots()
    assert root.duration == 31
    assert dict(tracer.self_times()) == {"a": 1 + 2 + 4 + 16, "b": 8}
    assert sum(tracer.self_times().values()) == root.duration
    records = tracer.span_records()
    assert [r["parent"] for r in records] == [None, 0, 1]


def test_market_is_seeded_and_in_domain():
    first = market.synthetic_market(7, 25, 37.5, (12.5,))
    assert first == market.synthetic_market(7, 25, 37.5, (12.5,))
    assert first != market.synthetic_market(8, 25, 37.5, (12.5,))
    market.check_domain(first)
    outside = json.loads(json.dumps(first))
    outside["sellers"][3]["h"] = outside["platform"]["H"] + 0.1
    with pytest.raises(ValueError, match="seller 4"):
        market.check_domain(outside)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


SIGMA, PERIODS, ROUTE_PERIODS, SEED = 3.0, 2000, 300, 11


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Reference-market outputs of every command, with their summaries."""
    tmp = tmp_path_factory.mktemp("outputs")
    scenario = str(ROOT / "scenarios" / "illustrative.scenario")
    paths = ["--sigma", str(SIGMA), "--seed", str(SEED)]
    argv = {"optimize": ["optimize"],
            "curve": ["curve", "--grid", "50"],
            "simulate": ["simulate", *paths, "--periods", str(PERIODS)],
            "route": ["route", *paths, "--periods", str(ROUTE_PERIODS)]}
    out = {}
    for cmd, args in argv.items():
        path = tmp / f"{cmd}.out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(args + ["--scenario", scenario, "--out", str(path)]) == 0
        out[cmd] = (path, stdout.getvalue())
    with open(scenario) as fh:
        return json.load(fh), out


def test_checks_accept_the_program_outputs(outputs):
    scenario, out = outputs
    checks.check_optimize(scenario, out["optimize"][0].read_text())
    checks.check_curve(scenario, out["curve"][0].read_text(), 50)
    stats = checks.check_simulate(scenario, SIGMA, PERIODS, SEED, *out["simulate"])
    assert stats["predict_steps"] == (PERIODS - 1) * 10
    stats = checks.check_route(scenario, SIGMA, ROUTE_PERIODS, SEED, *out["route"])
    assert stats["log_rows"] == stats["orders_routed"] == stats["orders_total"] - stats["orders_dropped"]
    assert stats["periods_skipped"] > 0


def test_optimize_check_rejects_sigma_off_the_optimum(outputs):
    scenario, out = outputs
    doc = json.loads(out["optimize"][0].read_text())
    moved = dict(doc, sigma_star=doc["sigma_star"] * 0.999)
    with pytest.raises(checks.CheckError, match="payoff_star"):
        checks.check_optimize(scenario, json.dumps(moved))
    # The floor, reported with its own payoff and adopters: consistent but
    # beaten elsewhere.
    m = checks.Market(scenario)
    value, _, _ = m.payoff(m.sigma_lower)
    floor = dict(doc, sigma_star=m.sigma_lower, payoff_star=float(value),
                 adopters=[int(i) + 1 for i in m.adopters(m.sigma_lower).nonzero()[0]])
    with pytest.raises(checks.CheckError, match="below the best"):
        checks.check_optimize(scenario, json.dumps(floor))


def test_curve_check_rejects_a_wrong_payoff(outputs):
    scenario, out = outputs
    lines = out["curve"][0].read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = f"{float(cells[1]) + 0.01:.6f}"
    lines[5] = ",".join(cells)
    with pytest.raises(checks.CheckError, match="row 6"):
        checks.check_curve(scenario, "\n".join(lines) + "\n", 50)


def test_route_check_rejects_a_deleted_order(outputs, tmp_path):
    scenario, out = outputs
    path, summary = out["route"]
    lines = path.read_text().splitlines(keepends=True)
    del lines[len(lines) // 2]
    damaged = tmp_path / "route.out"
    damaged.write_text("".join(lines))
    with pytest.raises(checks.CheckError, match="route"):
        checks.check_route(scenario, SIGMA, ROUTE_PERIODS, SEED, damaged, summary)


def test_simulate_check_rejects_a_shifted_allocation(outputs, tmp_path):
    scenario, out = outputs
    path, summary = out["simulate"]
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[100].split(",")
    cells[2] = f"{float(cells[2]) + 1:.6f}"
    lines[100] = ",".join(cells)
    damaged = tmp_path / "simulate.out"
    damaged.write_text("".join(lines))
    with pytest.raises(checks.CheckError, match="allocations sum"):
        checks.check_simulate(scenario, SIGMA, PERIODS, SEED, damaged, summary)
