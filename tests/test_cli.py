"""Command-line surface: scenario ingestion, subcommands, exit codes."""
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandalloc import NumericalInstability
from demandalloc.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_NUMERICAL,
                             EXIT_OK, Scenario, ScenarioError, load_scenario,
                             main, parse_scenario)
import oracles
from oracles import ref_sellers, seller_records, ses_msfe_closed_form

SCENARIO = str(Path(__file__).resolve().parents[1]
               / "scenarios" / "illustrative.scenario")
DATA = Path(__file__).resolve().parent / "data"
# factor's stdout per argument string, recorded before Factorization carried
# its roots; the near-unit-root case warns on stderr.
FACTOR_STDOUT = json.loads((DATA / "factor_stdout.json").read_text())


def scenario_doc() -> dict:
    with open(SCENARIO) as fh:
        return json.load(fh)


def write_doc(tmp_path, doc, name="edited.scenario") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestParseScenario:
    def test_round_trip(self):
        sc = load_scenario(SCENARIO)
        assert list(Scenario._fields) == [
            "model", "costs", "sellers", "sigma_cap", "seed", "horizon"]
        assert sc.model.mu == 15.0
        assert sc.model.psi.coeffs.tolist() == [5.0]
        assert len(sc.sellers) == 10
        assert sc.sellers.h.tolist()[:2] == [0.6, 0.8]
        assert sc.sigma_cap == 500.0

    def test_defaults(self):
        doc = scenario_doc()
        del doc["options"]
        doc["sellers"] = doc["sellers"][:2]
        sc = parse_scenario(doc)
        assert sc.sigma_cap == 1e3 * (5.0 / 2)  # 1000 sigma_L
        assert sc.seed == 0
        assert sc.horizon == 100_000
        # the root -(1 - 5e-10) is inside the disk, but within the default
        # boundary tolerance 1e-9 of the circle
        doc["demand"]["psi"] = [1.0, 1.0 / (1.0 - 5e-10)]
        parse_scenario(doc)
        doc["options"] = {"boundary_tol": 0.0}
        with pytest.raises(ScenarioError,
                           match=r"^scenario\.demand: psi must be invertible"):
            parse_scenario(doc)

    def test_unknown_field_names_the_path(self):
        doc = scenario_doc()
        doc["demand"]["sigma"] = 3.0
        with pytest.raises(ScenarioError, match=r"demand.*unknown.*sigma"):
            parse_scenario(doc)

    def test_missing_field(self):
        doc = scenario_doc()
        del doc["platform"]["r"]
        with pytest.raises(ScenarioError, match=r"platform.*missing.*r"):
            parse_scenario(doc)

    def test_bool_is_not_a_number(self):
        doc = scenario_doc()
        doc["platform"]["rho"] = True
        with pytest.raises(ScenarioError, match="expected a number"):
            parse_scenario(doc)

    def test_empty_sellers(self):
        doc = scenario_doc()
        doc["sellers"] = []
        with pytest.raises(ScenarioError, match="non-empty"):
            parse_scenario(doc)

    def test_seller_domain_error_carries_the_index(self):
        doc = scenario_doc()
        doc["sellers"][0]["h"] = -1.0
        with pytest.raises(ScenarioError, match=r"sellers\[1\]"):
            parse_scenario(doc)

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.scenario"
        p.write_text('{\n  "demand": [,}\n')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(p))

    @pytest.mark.parametrize("cap", [0.0, -2.0])
    def test_nonpositive_sigma_cap_names_its_field(self, cap):
        doc = scenario_doc()
        doc["options"]["sigma_cap"] = cap
        with pytest.raises(ScenarioError, match=r"^scenario\.options\.sigma_cap: "
                                                "expected a number > 0"):
            parse_scenario(doc)

    @pytest.mark.parametrize("psi0", [5e-324, -5e-324])
    def test_underflowing_default_sigma_cap_names_psi0(self, tmp_path, capsys, psi0):
        # 1000 |psi(0)| / N rounds to 0 for a subnormal psi(0)
        doc = scenario_doc()
        doc["demand"]["psi"] = [psi0]
        del doc["options"]
        scenario = write_doc(tmp_path, doc)
        assert main(["optimize", "--scenario", scenario]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: {scenario}.demand.psi[0]: the default sigma_cap, "
            "1000 |psi[0]| / N, underflows to 0.0; set options.sigma_cap\n")
        assert captured.out == ""
        doc["options"] = {"sigma_cap": 500.0}
        assert parse_scenario(doc).sigma_cap == 500.0

    def test_scenario_error_is_value_error(self):
        assert issubclass(ScenarioError, ValueError)


_FMAX = sys.float_info.max
# seller values: mostly valid costs, then each kind of fault the per-record
# path names (and ints that round onto the largest float without being it)
_SELLER_VALUES = st.one_of(
    st.floats(0.1, 30.0), st.integers(1, 30),
    st.sampled_from([0.0, -1.0, 5e-324, _FMAX, -0.0, float("nan"),
                     float("inf"), True, None, "1.5", [1.0], int(_FMAX),
                     int(_FMAX) + 1, 10**400, -(10**400)]))
_SELLER_RECORDS = st.one_of(
    st.fixed_dictionaries({"h": _SELLER_VALUES, "b": _SELLER_VALUES,
                           "f": _SELLER_VALUES}),
    st.dictionaries(st.sampled_from(["h", "b", "f", "g"]), st.floats(0.1, 3.0)),
    st.sampled_from([[1.0, 2.0, 3.0], 1.0, None]))


@given(st.lists(_SELLER_RECORDS, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_seller_columns_match_the_per_record_path(records):
    # the column check accepts what the per-record path accepts, with the
    # same values, and a fault gets the per-record path's message
    from demandalloc.cli import _sellers

    def outcome(parse):
        try:
            return parse()
        except ScenarioError as exc:
            return str(exc)

    assert outcome(lambda: seller_records(_sellers(records, "s"))) == outcome(
        lambda: ref_sellers(records, "s"))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, edit", [
    ("demand.mu", lambda doc: doc["demand"].update(mu=INF)),
    ("platform.delta_h", lambda doc: doc["platform"].update(delta_h=NAN)),
    ("sellers[1].h", lambda doc: doc["sellers"][0].update(h=NAN)),
    ("demand.psi[0]", lambda doc: doc["demand"].update(psi=[NAN])),
])
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, path, edit):
    doc = scenario_doc()
    edit(doc)
    # json.dumps writes Infinity / NaN, which Python's json reader accepts
    scenario = write_doc(tmp_path, doc)
    assert main(["optimize", "--scenario", scenario]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert path in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field, raw", [
    ("seed", "[1]"), ("seed", "1e400"), ("seed", "2.7"), ("seed", "true"),
    ("seed", "-1"), ("horizon", '"x"'), ("horizon", "0"),
])
def test_options_must_be_integers(tmp_path, capsys, field, raw):
    # raw JSON text, so 1e400 reaches the parser as the float overflow
    doc = scenario_doc()
    doc["options"][field] = "@"
    scenario = tmp_path / "edited.scenario"
    scenario.write_text(json.dumps(doc).replace('"@"', raw))
    rc = main(["simulate", "--scenario", str(scenario), "--sigma", "5.0",
               "--periods", "50"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert f"options.{field}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["route", "--sigma", "inf"], "--sigma"),
    (["route", "--sigma", "nan"], "--sigma"),
    (["simulate", "--sigma", "0"], "--sigma"),
    (["simulate", "--sigma", "-2"], "--sigma"),
    (["simulate", "--sigma", "5", "--periods", "0"], "--periods"),
    (["route", "--sigma", "5", "--periods", "2.5"], "--periods"),
    (["route", "--sigma", "5", "--seed", "-1"], "--seed"),
    (["simulate", "--sigma", "5", "--seed", "x"], "--seed"),
    (["curve", "--grid", "-1"], "--grid"),
    (["curve", "--grid", "0"], "--grid"),
])
def test_numeric_flags_are_checked_at_parse_time(tmp_path, capsys, argv, flag):
    out = tmp_path / "primary.out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--scenario", SCENARIO, "--out", str(out), *argv[1:]])
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["factor", "1", "2", "--boundary-tol", "2"], "--boundary-tol"),
    (["factor", "1", "2", "--boundary-tol", "1"], "--boundary-tol"),
    (["factor", "1", "2", "--boundary-tol", "-0.1"], "--boundary-tol"),
    (["factor", "2", "1", "--boundary-tol", "nan"], "--boundary-tol"),
    (["factor", "2", "1", "--boundary-tol", "inf"], "--boundary-tol"),
    (["msfe", "2", "1", "--lead", "-1"], "--lead"),
    (["msfe", "2", "1", "--lead", "1.5"], "--lead"),
    (["msfe", "3", "--ses", "0"], "--ses"),
    (["msfe", "3", "--ses", "1.5"], "--ses"),
    (["msfe", "3", "--ses", "nan"], "--ses"),
    (["msfe", "3", "--ses", "-5e-324"], "--ses"),
    (["msfe", "3", "--ses", "inf"], "--ses"),
])
def test_polynomial_flags_are_checked_at_parse_time(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lam", ["5e-324", "1e-300", "0.000276272", "1"])
def test_ses_range_ends_are_answered(capsys, lam):
    assert main(["msfe", "1", "--ses", lam]) == EXIT_OK
    doc = _strict_json(capsys.readouterr().out)
    assert doc["ses_lambda"] == float(lam)
    assert math.isfinite(doc["ses_msfe"]) and doc["ses_msfe"] >= 1.0


@pytest.mark.parametrize("lam", ["0", "-0.0", "1.5", "nan"])
def test_ses_outside_its_range_names_the_range(capsys, lam):
    with pytest.raises(SystemExit) as exc:
        main(["msfe", "1", "--ses", lam])
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].endswith(
        f"argument --ses: expected a number in (0, 1], got '{lam}'")
    assert captured.out == ""


@pytest.mark.parametrize("raw", ["2.0", "1.0", "-0.1", "NaN", "1e400"])
def test_scenario_boundary_tol_must_lie_in_unit_interval(tmp_path, capsys, raw):
    # psi = 1 + 2z has its root -0.5 inside the disk; a tolerance of 2 would
    # let it pass as invertible
    doc = scenario_doc()
    doc["demand"]["psi"] = [1.0, 2.0]
    doc["options"]["boundary_tol"] = "@"
    scenario = tmp_path / "edited.scenario"
    scenario.write_text(json.dumps(doc).replace('"@"', raw))
    assert main(["optimize", "--scenario", str(scenario)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "options.boundary_tol" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["optimize", "curve", "simulate", "route"])
@pytest.mark.parametrize("field, edit", [
    ("demand", lambda doc: doc["demand"].update(psi=[1.0, 2.0])),
    ("demand", lambda doc: doc["demand"].update(mu=-1.0)),
    ("demand", lambda doc: doc["demand"].update(psi=[0.0, 1.0])),
    ("options.sigma_cap", lambda doc: doc["options"].update(sigma_cap=0.0)),
], ids=["psi-1-2", "mu-negative", "psi-0-1", "sigma_cap-0"])
def test_scenario_faults_name_their_block(tmp_path, capsys, command, field, edit):
    doc = scenario_doc()
    edit(doc)
    scenario = write_doc(tmp_path, doc)
    argv = [command, "--scenario", scenario]
    if command in ("simulate", "route"):
        argv += ["--sigma", "5.0", "--periods", "50"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {scenario}.{field}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["optimize", "curve", "simulate"])
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["sellers"][1].update(h=5e-324),
     "sellers[2]: the critical fractile b/(h + b) at h = 4.94066e-324, b = 9 "
     "rounds to 1"),
    (lambda doc: doc["sellers"][1].update(b=5e-324),
     "sellers[2]: the critical fractile b/(H + b) at H = 2.5, b = 4.94066e-324 "
     "rounds to 0"),
    (lambda doc: doc["platform"].update(H=5e-324),
     "platform.H: the critical fractile b/(H + b) at H = 4.94066e-324, b = 12 "
     "rounds to 1"),
], ids=["seller-h", "seller-b", "platform-H"])
def test_underflowing_fractile_names_its_field(tmp_path, capsys, command, edit,
                                               message):
    doc = scenario_doc()
    edit(doc)
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "simulate":
        argv += ["--sigma", "5.0", "--periods", "50"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # H below the sellers' h
        assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}, which has no normal quantile\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["optimize", "curve"])
def test_overflowing_participation_bound_meets_the_cap(tmp_path, capsys,
                                                      recwarn, command):
    # seller 1's margin / K overflows to inf: the cap binds with its
    # warning, and numpy warns of nothing
    doc = scenario_doc()
    doc["demand"]["mu"] = 1e300
    doc["sellers"][0]["h"] = 1e-300
    assert main([command, "--scenario", write_doc(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [str(w.message) for w in recwarn] == [
        "participation bound exceeds sigma_cap=500; cap binds"]


@pytest.mark.parametrize("command", ["optimize", "curve", "simulate"])
def test_underflowing_mean_per_seller_names_demand_mu(tmp_path, capsys,
                                                      command):
    doc = scenario_doc()
    doc["demand"]["mu"] = 5e-324
    path = write_doc(tmp_path, doc)
    argv = [command, "--scenario", path]
    if command == "simulate":
        argv += ["--sigma", "6", "--periods", "50"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: {path}.demand.mu: the mean demand per seller, "
        "mu / N = 5e-324 / 10, underflows to 0\n")


def test_underflowing_innovation_variance_names_sigma(tmp_path, capsys):
    # psi = 1e-165 (1 + 0.5 z) keeps its degree, but the seller filters'
    # autocovariances underflow to 0: the predictor cannot divide by them
    doc = scenario_doc()
    doc["demand"]["psi"] = [1e-165, 5e-166]
    del doc["options"]["sigma_cap"]
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--scenario", write_doc(tmp_path, doc),
                   "--sigma", "3e-166", "--periods", "50", "--out", str(out)])
    assert rc == EXIT_NUMERICAL
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: simulation at sigma = "
                                   "3e-166: an innovation variance ")
    assert "underflows to 0" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "edited.scenario"]


def test_subnormal_mean_demand_simulates(tmp_path, capsys):
    # P(D <= 0) = 1/2: mu / sd underflows, and 1/CV = mu / sd is not formed
    # as 1 / (sd / mu), which overflows
    doc = scenario_doc()
    doc["demand"]["mu"] = 1e-323
    doc["sellers"] = doc["sellers"][:2]
    with pytest.warns(UserWarning, match=r"P\(D <= 0\) = 0\.500"):
        rc = main(["simulate", "--scenario", write_doc(tmp_path, doc),
                   "--sigma", "3", "--periods", "50",
                   "--out", str(tmp_path / "out.csv")])
    assert rc == EXIT_OK


def _strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"{constant} in JSON output")
    return json.loads(text, parse_constant=reject)


def _assert_finite_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows, "empty CSV"
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{cell!r} in CSV output"


# 0, negatives, subnormal-scale and overflow-scale values among ordinary ones
_FUZZ_NUMBERS = st.sampled_from([0.0, -1.0, -0.5, 1e-300, 5e-324, -5e-324,
                                 1e300, -1e300, 0.5, 1.0, 2.0, 5.0, 15.0])
_FUZZ_OPTIONS = st.fixed_dictionaries({}, optional={
    "sigma_cap": st.sampled_from([0.0, -2.0, 1e-300, 1e300, 5.0, 500.0]),
    "boundary_tol": st.sampled_from([0.0, 1e-9, 0.5]),
    "horizon": st.integers(1, 500),
    "seed": st.integers(0, 3),
})
# a few fields of the platform block, and of sellers picked by index,
# replaced by pool values; the rest keep the reference market's values
_FUZZ_PLATFORM = st.dictionaries(
    st.sampled_from(["rho", "F", "H", "delta_f", "delta_h", "r"]),
    _FUZZ_NUMBERS, max_size=3)
_FUZZ_SELLER_EDITS = st.lists(st.tuples(
    st.integers(0, 49), st.sampled_from(["h", "b", "f"]), _FUZZ_NUMBERS),
    max_size=3)


# the reference demand block half the time, so runs get past its checks to
# the platform and seller blocks
@given(mu=st.one_of(st.just(15.0), _FUZZ_NUMBERS),
       psi=st.one_of(st.just([5.0]),
                     st.lists(_FUZZ_NUMBERS, min_size=1, max_size=4)),
       n_sellers=st.integers(1, 50), options=_FUZZ_OPTIONS,
       platform=_FUZZ_PLATFORM, seller_edits=_FUZZ_SELLER_EDITS,
       sigma=st.sampled_from([0.3, 3.0, 50.0]),
       periods=st.one_of(st.none(), st.integers(1, 500)))
# a payoff past the float range, which optimize and curve must refuse
@example(mu=1e300, psi=[-1.0], n_sellers=1, options={},
         platform={"rho": 0.0, "F": 0.0, "delta_f": 1e300}, seller_edits=[],
         sigma=0.3, periods=None)
@settings(max_examples=100, deadline=None)
def test_scenario_fuzz_exits_cleanly(mu, psi, n_sellers, options, platform,
                                     seller_edits, sigma, periods):
    doc = scenario_doc()
    doc["demand"] = {"mu": mu, "psi": psi}
    doc["platform"].update(platform)
    # sellers cycle through the reference ten
    doc["sellers"] = [dict(doc["sellers"][i % 10]) for i in range(n_sellers)]
    for i, field, value in seller_edits:
        doc["sellers"][i % n_sellers][field] = value
    doc["options"] = options
    commands = ["optimize", "curve"]
    # paths stay at most 500 periods long (the default horizon is 100,000),
    # and route's memory grows with the order count, about mu * periods: run
    # it on small markets, and on mu = 1e300, whose counts overflow and must
    # be refused
    n_periods = periods or options.get("horizon", 100_000)
    if n_periods <= 500:
        commands.append("simulate")
        if mu >= 1e300 or n_periods * (abs(mu) + 10 * sum(map(abs, psi))) <= 1e5:
            commands.append("route")
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_doc(Path(tmp), doc)
        for command in commands:
            out = Path(tmp) / f"{command}.out"
            argv = [command, "--scenario", scenario, "--out", str(out)]
            if command in ("simulate", "route"):
                argv += ["--sigma", str(sigma)]
                if periods is not None:
                    argv += ["--periods", str(periods)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                # numpy's floating-point warnings stay errors
                warnings.simplefilter("ignore", UserWarning)
                rc = main(argv)
            assert rc in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE, EXIT_NUMERICAL)
            assert "Traceback" not in stderr.getvalue()
            if rc == EXIT_INPUT:
                # every input error names its field or flag
                assert stderr.getvalue().startswith(tuple(
                    f"input error: {where}"
                    for where in (scenario, "sellers[", "platform.", "--")))
            if rc != EXIT_OK:
                continue
            if command == "optimize":
                _strict_json(out.read_text())
            else:
                _strict_json(stdout.getvalue())
                _assert_finite_csv(out.read_text())


@pytest.mark.parametrize("argv, quantity, warning", [
    # the roots of 1e200 + 1e200 z lie on the unit circle
    (["factor", "1e200", "1e200"], "msfe_squared", "root within boundary_tol"),
    (["msfe", "1e200", "--ses", "0.5"], "msfe_squared", None),
    # a lead too large for a float, and one whose tail sum overflows
    (["msfe", "1", "0.5", "--lead", "1" + "0" * 400], "leadtime_msfe", None),
    (["msfe", "1", "0.5", "--lead", "1" + "0" * 308], "leadtime_msfe", None),
    # the partial sums' squares overflow inside the lead-time sum
    (["msfe", "1", "1e200", "--lead", "1"], "msfe_squared", None),
    # the error coefficients 1, 1e154 - 1 and -1e154 square past the range
    (["msfe", "1", "1e154", "--ses", "1"], "ses_msfe", None),
], ids=["factor-square", "msfe-ses-square", "lead-beyond-float", "lead-1e308",
        "lead-head-square", "ses-square"])
def test_overflow_names_the_quantity(capsys, argv, quantity, warning):
    # numpy's overflow warning, a second line at the command line, is an
    # error under the test run's warning filters; the package's own
    # boundary warning is expected where the case names it
    with (pytest.warns(RuntimeWarning, match=warning) if warning
          else contextlib.nullcontext()):
        assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {quantity} overflows the float range\n"
    assert captured.out == ""


def _run_main(argv):
    """(exit code, stdout, stderr, warning messages) of main(argv), with
    argparse's SystemExit read as the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught]


# Flag values: in and out of each flag's domain, and past memory (10**15
# periods or grid points, which no host can allocate, so they fail at
# once); the valid paths stay at most 300 periods and 40 grid points.
_FLAG_VALUES = {
    "--sigma": ["3", "0.5", "40", "0.49", "0", "-1", "nan", "inf", "1e200",
                "1.7e308", "x"],
    "--periods": ["40", "300", "2", "1", "0", "-3", "2.5", "x", str(10**15)],
    "--seed": ["0", "4", "-1", "1e3", "x"],
    "--grid": ["40", "2", "1", "0", "-1", "x", str(10**15)],
    "--check-linearity": [],
    "--lead": ["0", "1", "7", "1000000000", "-1", "1.5", "x"],
    "--ses": ["0.5", "1", "0.0005", "0", "1.5", "nan", "1e-12", "1e-300",
              "5e-324"],
    "--boundary-tol": ["1e-9", "0", "0.5", "1", "-0.1", "nan", "x"],
}
_OWN_FLAGS = {"optimize": [], "simulate": ["--sigma", "--periods", "--seed"],
              "route": ["--sigma", "--periods", "--seed"],
              "curve": ["--grid", "--check-linearity"], "factor": ["--boundary-tol"],
              "msfe": ["--lead", "--ses"]}
_UNKNOWN_FLAGS = ["--bogus", "--format", "-x"]
_COEFFS = ["1", "2", "0.5", "-0.3", "3", "0", "1e200", "nan", "inf", "x"]
# stands for the reference market with a 300-period horizon, which paths
# take when no --periods is given
_SHORT = "<short.scenario>"


@pytest.fixture(scope="module")
def short_scenario(tmp_path_factory):
    doc = scenario_doc()
    doc["options"]["horizon"] = 300
    return write_doc(tmp_path_factory.mktemp("short"), doc, "short.scenario")


def _rarely(draw) -> bool:
    """True about one draw in ten."""
    return draw(st.integers(0, 19)) in (7, 13)


@st.composite
def _command_lines(draw):
    """A command line: mostly a subcommand with its own flags, at times a
    missing or unknown subcommand, a foreign or unknown flag, or -h."""
    command = draw(st.sampled_from(list(_OWN_FLAGS) * 4 + [None, "bogus"]))
    argv = [] if command is None else [command]
    if command in ("factor", "msfe"):
        argv += draw(st.lists(st.sampled_from(_COEFFS), max_size=4))
    elif command is not None:
        scenario = draw(st.sampled_from([_SHORT] * 6 + [None, "no-such.scenario"]))
        argv += [] if scenario is None else ["--scenario", scenario]
    flags = draw(st.lists(st.sampled_from(_OWN_FLAGS.get(command) or ["--bogus"]),
                          unique=True, max_size=3))
    if command in ("simulate", "route") and not _rarely(draw):
        flags = ["--sigma", *(f for f in flags if f != "--sigma")]
    if _rarely(draw):
        flags.append(draw(st.sampled_from(list(_FLAG_VALUES) + _UNKNOWN_FLAGS)))
    for flag in flags:
        values = _FLAG_VALUES.get(flag)
        argv += [flag] + ([draw(st.sampled_from(values))] if values else [])
    if _rarely(draw):
        argv.insert(draw(st.integers(0, len(argv))), "-h")
    return argv


@given(argv=_command_lines())
@example(argv=[])
@example(argv=["-h"])
@example(argv=["bogus"])
@example(argv=["--bogus", "optimize"])
@example(argv=["curve", "--scenario", _SHORT, "--grid", str(10**15)])
@example(argv=["route", "--scenario", _SHORT, "--sigma", "3",
               "--periods", str(10**15)])
@example(argv=["msfe", "3", "1", "--lead", "2", "--ses", "0.5"])
@example(argv=["factor", "1", "2", "--boundary-tol", "0"])
@settings(max_examples=200, deadline=None)
def test_flag_vectors_match_the_eager_parser(short_scenario, argv):
    # the parser that adds only the parsed subcommand's flags answers every
    # command line as the eager reference parser does: exit code, both
    # streams and the warnings raised
    argv = [short_scenario if arg == _SHORT else arg for arg in argv]
    run = _run_main(argv)
    with mock.patch("demandalloc.cli.build_parser", oracles.build_parser):
        assert _run_main(argv) == run
    rc, stdout, stderr, caught = run
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE, EXIT_NUMERICAL)
    assert "Traceback" not in stderr
    assert not [m for m in caught if "encountered" in m]  # numpy float warnings
    if rc == EXIT_OK and "-h" not in argv:
        # the JSON document or summary: optimize, factor and msfe print it on
        # stdout, the CSV commands on stderr
        _strict_json(stdout if argv[0] in ("optimize", "factor", "msfe") else stderr)
    if rc == EXIT_INPUT:
        # the error names its flag, positional or scenario field
        names = [*_FLAG_VALUES, *_UNKNOWN_FLAGS, "--scenario", "command", "coeffs",
                 short_scenario, "no-such.scenario"]
        last = stderr.splitlines()[-1]
        assert any(name in last for name in names), last


@pytest.mark.parametrize("argv, source", [
    (["simulate", "--sigma", "3", "--periods", str(10**15)], "--periods"),
    (["route", "--sigma", "3", "--periods", str(10**15)], "--periods"),
    (["curve", "--grid", str(10**15)], "--grid"),
])
def test_refused_allocation_names_its_size(tmp_path, capsys, argv, source):
    # 10**15 float64 values, 7 PiB: numpy refuses the array at once
    out = tmp_path / "out"
    assert main([argv[0], "--scenario", SCENARIO, "--out", str(out),
                 *argv[1:]]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {source}: too large: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_refused_horizon_names_the_field(tmp_path, capsys):
    doc = scenario_doc()
    doc["options"]["horizon"] = 10**15
    path = write_doc(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--sigma", "3"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"input error: {path}.options.horizon: too large: ")


# Scalars the writer meets, and the edges of their text: escapes, non-ASCII
# text, -0.0, the least subnormal, the largest floats and numpy floats.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                     2.2250738585072014e-308, 1e16, 1e-5, "\"\\/\b\f\n\r\t\x00",
                     "é€\U0001f600", "%s %%", ""]),
)


def _json_children(children):
    keys = st.text(max_size=4)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        # runs of one type, which the writer takes a column at a time
        st.lists(st.integers(), max_size=6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.lists(keys, max_size=4, unique=True).flatmap(
            lambda names: st.lists(st.fixed_dictionaries(
                {name: children for name in names}), max_size=4)),
    )


@given(doc=st.recursive(_JSON_SCALARS, _json_children, max_leaves=30))
@example(doc={})
@example(doc=[])
@example(doc={"a": [], "b": {}, "c": [[], {}]})
@example(doc=[{"sigma": 1.5, "seller": 2}, {"sigma": -0.0, "seller": 10}])
@example(doc=[{"a": 1}, {"b": 1}, {"a": 1.5}])
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(doc):
    from demandalloc.cli import _json_text
    assert _json_text(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("doc, path", [
    ({"a": 1.0, "b": [0.5, math.inf]}, "b[1]"),
    ({"a": {"b": [1, -math.inf]}}, "a.b[1]"),
    ({"sellers": [{"x": 1.0}, {"x": np.float64("nan")}]}, "sellers[1].x"),
    ([[1.0], [2.0, math.nan]], "[1][1]"),
])
def test_json_writer_names_a_nonfinite_number(doc, path):
    from demandalloc.cli import _json_text
    with pytest.raises(NumericalInstability,
                       match=rf"^{re.escape(path)} overflows the float range$"):
        _json_text(doc)


class TestExitCodes:
    def test_optimize_succeeds(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["optimize", "--scenario", SCENARIO,
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_missing_file(self, capsys):
        assert main(["optimize", "--scenario", "no-such-file.scenario"]) \
            == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_zero_polynomial(self, capsys):
        # each message names the coeffs positional, as the fuzz of
        # test_flag_vectors_match_the_eager_parser requires
        for argv, reason in ((["factor", "0", "0", "0"], "no root split"),
                             (["msfe", "0"], "no root split"),
                             (["msfe", "--lead", "1", "0", "0"], "no root split"),
                             (["factor", "1", "x"], "could not convert")):
            assert main(argv) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err.startswith("input error: coeffs: ") and reason in err

    def test_sigma_below_floor_is_infeasible(self, capsys):
        rc = main(["simulate", "--scenario", SCENARIO,
                   "--sigma", "0.1", "--periods", "200"])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "route"])
    def test_overflowing_sigma_is_named(self, command, tmp_path, capsys):
        # a finite target whose transfer coefficient N sigma/|psi(0)| is not
        out = tmp_path / "out.csv"
        rc = main([command, "--scenario", SCENARIO, "--sigma", "1.7e308",
                   "--periods", "50", "--out", str(out)])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "sigma" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_format_and_optimize_grid_are_unknown_flags(self, capsys):
        # the payoff curve comes from `curve` alone, and every command has
        # one output format
        for argv in (["simulate", "--sigma", "5", "--format", "structured"],
                     ["optimize", "--format", "csv"],
                     ["optimize", "--grid", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main([argv[0], "--scenario", SCENARIO, *argv[1:]])
            assert exc.value.code == EXIT_INPUT
            assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_tiny_cap_empties_the_feasible_set(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["options"]["sigma_cap"] = 0.3
        path = write_doc(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["optimize", "--scenario", path])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_numerical_failure_code(self, monkeypatch, capsys):
        from demandalloc import cli

        def boom(*args, **kwargs):
            raise NumericalInstability("payoff overflows")

        monkeypatch.setattr(cli.platform, "optimize", boom)
        assert main(["optimize", "--scenario", SCENARIO]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestOptimize:
    def test_solution_document_golden(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["optimize", "--scenario", SCENARIO,
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["sigma_star"] == pytest.approx(8.867803761159964, rel=1e-9)
        assert doc["payoff_star"] == pytest.approx(372.45148712451055, rel=1e-9)
        assert doc["adopters"] == [1, 2, 3, 4, 5, 6, 7]
        assert doc["payoff_breakdown"]["intermediation"] == pytest.approx(225.0)
        assert doc["payoff_breakdown"]["fulfillment_share"] == pytest.approx(21.0)
        assert doc["payoff_breakdown"]["storage_rent"] == pytest.approx(
            126.45148712451052, rel=1e-9)
        assert doc["cumulative_utility"] == pytest.approx(814.4718937629707,
                                                          rel=1e-9)
        assert doc["sigma_lower"] == pytest.approx(0.5)
        assert doc["sigma_upper"] == pytest.approx(33.9568, abs=1e-3)
        bps = doc["breakpoints"]
        assert len(bps) == 10
        assert bps[0]["seller"] == 10
        assert bps[0]["sigma"] == pytest.approx(1.7373, abs=1e-3)
        floor = doc["at_sigma_lower"]
        assert floor["payoff"] == pytest.approx(293.7753679642452, rel=1e-9)
        assert floor["adopters"] == list(range(1, 11))
        assert floor["gamma_fbp"] == pytest.approx(4.387683982122612, rel=1e-9)
        assert floor["cumulative_utility"] == pytest.approx(
            1107.1440073283823, rel=1e-9)

    # wide_n1000 is perfbench.market.synthetic_market(5, 1000, 1500, (500,)),
    # written once; a summation-order change shows only at large N
    @pytest.mark.parametrize("scenario, golden", [
        (SCENARIO, "optimize_illustrative.json"),
        (str(DATA / "wide_n1000.scenario"), "optimize_wide_n1000.json"),
    ])
    def test_solution_document_bytes(self, scenario, golden, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (DATA / golden).read_bytes()


class TestFactorAndMsfe:
    def run_json(self, argv, capsys):
        assert main(argv) == EXIT_OK
        return json.loads(capsys.readouterr().out)

    def test_factor_invertible(self, capsys):
        doc = self.run_json(["factor", "1", "0.5"], capsys)
        assert doc["invertible"] is True
        assert doc["root_msfe"] == pytest.approx(1.0, rel=1e-12)
        assert doc["inner_roots"] == []
        assert [abs(c) for c in doc["outer_coeffs"]] == pytest.approx([1.0, 0.5])
        (root,) = doc["roots"]
        assert root == pytest.approx([-2.0, 0.0])

    def test_factor_reflects_inside_root(self, capsys):
        doc = self.run_json(["factor", "1", "2"], capsys)
        assert doc["invertible"] is False
        assert doc["root_msfe"] == pytest.approx(2.0, rel=1e-12)
        (inner,) = doc["inner_roots"]
        assert inner == pytest.approx([-0.5, 0.0])

    def test_factor_of_tiny_coefficients_keeps_the_inner_root(self, capsys):
        # 1e-13 (1 + 5 z): the root -0.2 is reflected as for 1 + 5 z
        doc = self.run_json(["factor", "1e-13", "5e-13"], capsys)
        assert doc["invertible"] is False
        assert doc["root_msfe"] == pytest.approx(5e-13, rel=1e-12)
        (inner,) = doc["inner_roots"]
        assert inner == pytest.approx([-0.2, 0.0])

    def test_factor_boundary_tol_edges(self, capsys):
        doc = self.run_json(["factor", "1", "2", "--boundary-tol", "0"], capsys)
        assert doc["invertible"] is False
        assert doc["root_msfe"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("args", list(FACTOR_STDOUT))
    def test_factor_output_is_pinned(self, args, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["factor"] + args.split()) == EXIT_OK
        assert capsys.readouterr().out == FACTOR_STDOUT[args]

    @pytest.mark.parametrize("argv", [["factor", "1", "2"],
                                      ["msfe", "--lead", "1", "2", "1"]])
    def test_one_root_split_per_answer(self, argv, monkeypatch, capsys):
        from demandalloc import polyalg
        original, calls = polyalg.poly_roots, []

        def counted(p):
            calls.append(p)
            return original(p)

        # every namespace of the package that holds poly_roots
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "demandalloc"
                    and getattr(module, "poly_roots", None) is original):
                monkeypatch.setattr(module, "poly_roots", counted)
        assert main(argv) == EXIT_OK
        assert len(calls) == 1

    def test_msfe_with_lead(self, capsys):
        doc = self.run_json(["msfe", "--lead", "1", "2", "1"], capsys)
        assert doc["lead"] == 1
        assert doc["leadtime_msfe_squared"] == pytest.approx(13.0, rel=1e-12)

    def test_msfe_with_billion_period_lead(self, capsys):
        # partial sums 2, 3, 3, ...: 4 + 9 L
        doc = self.run_json(["msfe", "--lead", "1000000000", "2", "1"], capsys)
        assert doc["leadtime_msfe_squared"] == pytest.approx(4.0 + 9e9, rel=1e-12)

    def test_msfe_ses_domain_edge(self, capsys):
        # lam = 1 forecasts the last value: the error 3 e_t - 3 e_{t-1}
        doc = self.run_json(["msfe", "--ses", "1", "3"], capsys)
        assert doc["ses_msfe"] == math.sqrt(18.0)

    def test_msfe_with_small_ses(self, capsys):
        doc = self.run_json(["msfe", "--ses", "0.0005", "3", "1"], capsys)
        assert doc["ses_msfe"] == pytest.approx(
            ses_msfe_closed_form(3.0, 1, 1 / 3, 5e-4), rel=1e-13)

    def test_msfe_with_ses(self, capsys):
        # error coefficients 3, then -3 lam rho^k: 9 + 9 lam / (2 - lam) = 12
        doc = self.run_json(["msfe", "--ses", "0.5", "3"], capsys)
        assert doc["root_msfe"] == pytest.approx(3.0, rel=1e-12)
        assert doc["ses_msfe"] == math.sqrt(12.0)


class TestCurve:
    def test_linearity_summary_and_reference_pairs(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--scenario", SCENARIO, "--grid", "120",
                     "--check-linearity", "--out", str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["linear_within_segments"] is True
        assert summary["max_linearity_residual"] <= 1e-9
        assert summary["sigma_lower"] == pytest.approx(0.5)
        assert summary["sigma_upper"] == pytest.approx(33.9568, abs=1e-3)

        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sigma"
        assert len(rows) - 1 == summary["points"]
        data = [(float(r[0]), float(r[1]), r[5]) for r in rows[1:]]
        # one-sided values at the first four exit thresholds
        reference = {1.7373: (315.49, 306.38), 5.0706: (358.91, 342.88),
                     6.9000: (368.09, 349.05), 8.8678: (372.45, 349.70)}
        for bp, (left_v, right_v) in reference.items():
            left = [p for s, p, side in data
                    if side == "left" and abs(s - bp) < 2e-3]
            right = [p for s, p, side in data
                     if side == "right" and abs(s - bp) < 2e-3]
            assert left and right
            assert left[0] == pytest.approx(left_v, abs=0.01)
            assert right[0] == pytest.approx(right_v, abs=0.01)
        # past the participation bound the payoff is identically zero
        tail = [p for s, p, _ in data if s > summary["sigma_upper"] + 1e-6]
        assert tail and all(p == 0.0 for p in tail)

    def test_wide_market_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--scenario", str(DATA / "wide_n1000.scenario"),
                     "--grid", "200", "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["points"] == 2050
        assert out.read_bytes() == (DATA / "curve_wide_n1000_grid200.csv").read_bytes()


class TestSimulate:
    def test_csv_shape_and_conservation(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", SCENARIO, "--sigma", "5.0",
                     "--periods", "600", "--out", str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "simulate"
        assert len(summary["sellers"]) == 10
        for entry in summary["sellers"]:
            assert 0.85 < entry["msfe_ratio"] < 1.15

        with out.open() as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:2] == ["period", "demand"]
        assert header[2:6] == ["alloc_1", "forecast_1", "stock_1", "cost_1"]
        assert len(header) == 2 + 4 * 10
        assert len(rows) - 1 == 599  # one period consumed by the design lag
        for r in rows[1:25]:
            demand = float(r[1])
            total = sum(float(r[2 + 4 * i]) for i in range(10))
            assert total == pytest.approx(demand, abs=1e-4)

    @pytest.mark.parametrize("golden, scenario, sigma, periods", [
        ("simulate_reference_sigma3_T300_seed4", SCENARIO, "3", "300"),
        # odd N = 11 under MA(2) demand: two-lag design, degree-4 filters
        ("simulate_ma2_n11_sigma0.7_T60_seed4", str(DATA / "ma2_n11.scenario"),
         "0.7", "60"),
        # 400 periods: past the 37-67 rows its degree-3/4 filters take to
        # settle, so the settled multi-lag predictor loop is pinned too
        ("simulate_ma2_n11_sigma0.7_T400_seed4", str(DATA / "ma2_n11.scenario"),
         "0.7", "400"),
    ])
    def test_matches_golden(self, golden, scenario, sigma, periods, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", scenario, "--sigma", sigma,
                     "--periods", periods, "--seed", "4", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (DATA / f"{golden}.csv").read_bytes()
        assert capsys.readouterr().out.encode() == (DATA / f"{golden}.json").read_bytes()

    # near sigma_L a seller filter has a root just inside the unit circle, so
    # its innovations rows settle late or never: these paths build up to
    # PREDICT_ROW_CAP rows and reuse the last one for the periods past it
    @pytest.mark.parametrize("scenario, sigma, csv_sha, json_sha", [
        (str(DATA / "ma2_n11.scenario"), "0.4545455",
         "7dc5407203578e4ddf657ef353fe928ea487df8e0c08ad4ca2150ef8dbc875ac",
         "a947cb4e39bffdf86c9079df9d3c6e51fc67af9bb3e3e7e301ed3b5df485c960"),
        (SCENARIO, "0.50001",
         "04e5eedf240b938fe077679449e5e81a32358cd41be760b3c8406e08c4e27243",
         "7838573eabb5ecdda19ea639dd09bb7f476b9d1e5ab5500e45fd57b1149961ec"),
    ])
    def test_near_the_floor_matches_digest(self, scenario, sigma, csv_sha, json_sha,
                                           tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", scenario, "--sigma", sigma,
                     "--periods", "6000", "--seed", "4", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == json_sha

    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # at this sigma the predictor's autocovariances overflow; the run
        # fails before --out is opened, so no file is written, and the named
        # failure is all it prints
        out = tmp_path / "sim.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", "--scenario", SCENARIO, "--sigma", "1e200",
                       "--periods", "50", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert "sigma = 1e+200" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_seller_filter_is_a_numerical_failure(self, tmp_path,
                                                              capsys):
        # the transfer coefficient is finite, but psi T_n / N of the MA(2)
        # market overflows: the run names sigma as any other overflow does
        out = tmp_path / "sim.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", "--scenario", str(DATA / "ma2_n11.scenario"),
                       "--sigma", "1.6e307", "--periods", "50", "--seed", "1",
                       "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical failure: simulation at sigma = 1.6e+307 overflows: ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario, periods, shortest", [
        (SCENARIO, "1", 2),
        # the odd design's two lags under MA(2) demand
        (str(DATA / "ma2_n11.scenario"), "2", 3),
    ], ids=["reference", "ma2-n11"])
    def test_short_path_names_periods(self, scenario, periods, shortest,
                                      tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--scenario", scenario, "--sigma", "3",
                   "--periods", periods, "--out", str(out)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: --periods: ")
        assert f"at least {shortest} periods" in err
        assert list(tmp_path.iterdir()) == []

    def test_short_horizon_names_the_field(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["options"]["horizon"] = 1
        path = write_doc(tmp_path, doc)
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--scenario", path, "--sigma", "3",
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}.options.horizon: " in err
        assert "at least 2 periods" in err
        assert not out.exists()

    def test_stream_routing(self, capsys):
        assert main(["simulate", "--scenario", SCENARIO, "--sigma", "5.0",
                     "--periods", "120"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("period,demand,alloc_1")
        assert '"command": "simulate"' in captured.err


class TestRoute:
    def test_summary_accounts_for_every_period(self, tmp_path, capsys):
        out = tmp_path / "route.csv"
        assert main(["route", "--scenario", SCENARIO, "--sigma", "3.0",
                     "--periods", "400", "--out", str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["feasible_periods"] + summary["infeasible_periods"] == 400
        assert summary["feasible_periods"] > 0
        assert summary["max_discrepancy"] <= 1.0 + 1e-9
        shares = summary["cumulative_shares"]
        assert len(shares) == 10
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)

        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["period", "order", "seller", "adj"]

    def test_summary_matches_golden(self, tmp_path, capsys):
        # random ties, and most periods at sigma 3 skip
        assert main(["route", "--scenario", SCENARIO, "--sigma", "3.0",
                     "--periods", "300", "--seed", "4",
                     "--out", str(tmp_path / "route.csv")]) == EXIT_OK
        golden = DATA / "route_summary_illustrative_sigma3_T300_seed4.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    # the benchmark's route sizes: a skip-heavy reference path and an odd-N
    # MA(2) path that routes almost every order, pinned past the short goldens
    @pytest.mark.parametrize("scenario, sigma, periods, log_sha, summary_sha", [
        (SCENARIO, "3", "2000",
         "a28b5c1dbd799686a5951609515dbfddced466459aa46af7faaceab952764ede",
         "86b5f366051cedbe11a4cf7b4d9f660428692e56422e79f50c950766a699d621"),
        (str(DATA / "ma2_n11.scenario"), "0.7", "400",
         "952a25e0a77f664ed21b4d16d5ee34b2ea60906617f82767d5a9015b2f01924d",
         "3cd64768e1e95ed0dbe50190e74508849e19b07d5543698cc7480c36cd80ea63"),
    ], ids=["reference-T2000", "ma2-n11-T400"])
    def test_workload_size_matches_digest(self, scenario, sigma, periods, log_sha,
                                          summary_sha, tmp_path, capsys):
        out = tmp_path / "route.csv"
        assert main(["route", "--scenario", scenario, "--sigma", sigma,
                     "--periods", periods, "--seed", "4",
                     "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == log_sha
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == summary_sha

    def test_deterministic_output(self, tmp_path, capsys):
        paths = []
        summaries = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["route", "--scenario", SCENARIO, "--sigma", "3.0",
                         "--periods", "150", "--seed", "3",
                         "--out", str(out)]) == EXIT_OK
            summaries.append(capsys.readouterr().out)
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]
        assert summaries[0] == summaries[1]

    def test_below_floor_rejected(self, capsys):
        rc = main(["route", "--scenario", SCENARIO,
                   "--sigma", "0.2", "--periods", "100"])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_floor_routes_the_uniform_split(self, tmp_path, capsys):
        # at sigma_L the design is the uniform split, which is always feasible
        out = tmp_path / "route.csv"
        assert main(["route", "--scenario", SCENARIO, "--sigma", "0.5",
                     "--periods", "2000", "--seed", "4",
                     "--out", str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["infeasible_periods"] == 0
        counts = {}
        with out.open() as fh:
            for row in list(csv.reader(fh))[1:]:
                period = counts.setdefault(int(row[0]), [0] * 10)
                period[int(row[2]) - 1] += 1
        for period in counts.values():
            share = sum(period) / 10
            assert max(abs(c - share) for c in period) < 1.0

    def test_overflowing_order_counts_are_named(self, tmp_path, capsys):
        # mu = 1e300 rounds to more orders than an int64 holds
        doc = scenario_doc()
        doc["demand"]["mu"] = 1e300
        rc = main(["route", "--scenario", write_doc(tmp_path, doc),
                   "--sigma", "3.0", "--periods", "5"])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert ("demand in period 0 is 1e+300, not a whole order count below "
                "2**63") in captured.err
        assert captured.out == ""

    def test_overflowing_offsets_are_a_numerical_failure(self, tmp_path, capsys):
        # the transfer coefficient 3 sigma / |psi(0)| is finite, but the
        # lagged demand times it overflows the offsets: the run names sigma,
        # as simulate does, with no numpy warning and no --out file
        doc = scenario_doc()
        doc["demand"] = {"mu": 50, "psi": [1] * 9}
        doc["sellers"] = doc["sellers"][:3]
        del doc["options"]["sigma_cap"]
        out = tmp_path / "route.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["route", "--scenario", write_doc(tmp_path, doc),
                       "--sigma", "5.9e307", "--periods", "200", "--seed", "1",
                       "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.err == ("numerical failure: route at sigma = 5.9e+307 "
                                "overflows: a benchmark offset is not finite\n")
        assert captured.out == ""
        assert not out.exists()

    def test_single_seller_above_floor_is_infeasible(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["sellers"] = doc["sellers"][:1]
        rc = main(["route", "--scenario", write_doc(tmp_path, doc),
                   "--sigma", "6.0", "--periods", "50"])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "single seller" in err


def test_console_entry_point_matches_main():
    import demandalloc.cli as cli
    assert cli.main is main
    assert isinstance(Scenario._fields, tuple)
