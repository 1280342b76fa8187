"""Command-line surface: scenario ingestion, subcommands, exit codes."""
import csv
import io
import json
import warnings
from pathlib import Path

import pytest

from demandalloc import (ConvergenceFailure, TransferPoly, filter_msfe,
                         ses_truncated_weights)
from demandalloc.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_NUMERICAL,
                             EXIT_OK, Scenario, ScenarioError, dump_scenario,
                             load_scenario, main, parse_scenario)

SCENARIO = str(Path(__file__).resolve().parents[1]
               / "scenarios" / "illustrative.scenario")


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
        again = parse_scenario(json.loads(dump_scenario(sc)))
        assert again == sc
        assert sc.n_sellers == 10
        assert sc.sigma_cap == 500.0

    def test_defaults(self):
        doc = scenario_doc()
        del doc["options"]
        doc["sellers"] = doc["sellers"][:2]
        sc = parse_scenario(doc)
        assert sc.sigma_cap == 1e3 * (5.0 / 2)  # 1000 sigma_L
        assert sc.seed == 0
        assert sc.horizon == 100_000
        assert sc.boundary_tol == 1e-9

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

    def test_scenario_error_is_value_error(self):
        assert issubclass(ScenarioError, ValueError)


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
    (["optimize", "--grid", "-1"], "--grid"),
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
        assert main(["factor", "0", "0", "0"]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_sigma_below_floor_is_infeasible(self, capsys):
        rc = main(["simulate", "--scenario", SCENARIO,
                   "--sigma", "0.1", "--periods", "200"])
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_format_is_an_optimize_option_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", SCENARIO, "--sigma", "5",
                  "--format", "structured"])
        assert exc.value.code == EXIT_INPUT
        assert "--format" in capsys.readouterr().err

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
            raise ConvergenceFailure(100, 1.0, 0.5)

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

    def test_csv_format(self, capsys):
        assert main(["optimize", "--scenario", SCENARIO,
                     "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "value"]
        table = {key: value for key, value in rows[1:]}
        assert json.loads(table["sigma_star"]) == pytest.approx(
            8.867803761159964, rel=1e-9)

    def test_grid_export(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["optimize", "--scenario", SCENARIO, "--out", str(out),
                     "--grid", "40"]) == EXIT_OK
        curve = Path(str(out) + ".curve.csv")
        assert curve.exists()
        with curve.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma", "payoff", "n_adopters",
                           "gamma_fbp", "gamma_fbm", "side"]
        assert len(rows) > 40  # grid plus breakpoint pairs


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

    def test_msfe_with_lead(self, capsys):
        doc = self.run_json(["msfe", "--lead", "1", "2", "1"], capsys)
        assert doc["lead"] == 1
        assert doc["leadtime_msfe_squared"] == pytest.approx(13.0, rel=1e-12)

    def test_msfe_with_ses(self, capsys):
        doc = self.run_json(["msfe", "--ses", "0.5", "3"], capsys)
        assert doc["root_msfe"] == pytest.approx(3.0, rel=1e-12)
        expected = filter_msfe(TransferPoly([3.0]), ses_truncated_weights(0.5))
        assert doc["ses_msfe"] == pytest.approx(expected, rel=1e-12)


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
        assert rows[0] == ["period", "order", "seller"] \
            + [f"adj_{i}" for i in range(1, 11)]

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
    assert isinstance(Scenario.__dataclass_fields__, dict)
