"""The exact block formatter against Python's %-formatting, cell by cell, and
the simulate, route and curve CSV writers against their reference writers,
byte for byte."""
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandalloc import (DemandModel, TransferPoly, export_assignment_log,
                         export_curve, lagged_variant, market_table,
                         neutral_policy, payoff_curve, route_path, simulate)
from demandalloc.cli import load_scenario, main
from demandalloc.csvtext import BLOCK_CELLS, _format_rows
from demandalloc.forecast import export_simulation, simulate_inventory

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (ref_export_assignment_log, ref_export_curve,  # noqa: E402
                     ref_export_simulation)
from test_forecast import CUSTOM_POLICY  # noqa: E402
from test_market_table import random_market  # noqa: E402
from test_seller import COSTS, MU, SELLERS  # noqa: E402

SCENARIO = str(Path(__file__).resolve().parents[1]
               / "scenarios" / "illustrative.scenario")
# |x| below this has |x| * 10**6 < 2**52 and takes the fixed-point path
FIXED_BOUND = 2.0 ** 52 / 1e6


def percent_rows(rows, int_cols):
    return "".join(",".join(["%d" % x for x in row[:int_cols]]
                            + ["%.6f" % x for x in row[int_cols:]]) + "\r\n"
                   for row in np.asarray(rows, dtype=float).tolist())


def tie_class(x):
    """How x * 10**6 relates to a half: None when fl(|x| * 10**6) is not on
    one, else the sign of the exact product minus the rounded one."""
    p = abs(x) * 1e6
    if p % 1 != 0.5:
        return None
    err = Fraction(abs(x)) * 10 ** 6 - Fraction(p)
    return (err > 0) - (err < 0)


PINNED = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-7, -1e-9,
    # exact binary ties: 10**6 k/128 ends in .5
    *[k / 128 for k in range(1, 256, 2)], -0.0078125,
    # the rounded product sits on a half but the exact one does not
    2.5e-6, 3.5e-6, -2.5e-6, 1234.0000025,
    # around and past the fixed-point bound
    FIXED_BOUND, -FIXED_BOUND, *np.nextafter(FIXED_BOUND, [0.0, np.inf]).tolist(),
    4503599627.0, 4503599628.0, 9007199254.740993, 12345678901.234567,
    -2.0 ** 40 - 0.3, 2.0 ** 52, 1e16, 1e22, 1e300,
    sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan,
]


def test_pinned_cases_reach_every_rounding_branch():
    classes = {tie_class(x) for x in PINNED if math.isfinite(x)}
    assert classes == {None, -1, 0, 1}


@pytest.mark.parametrize("x", PINNED, ids=repr)
def test_pinned_fixed_cell(x):
    assert _format_rows([[x]], 0) == "%.6f" % x + "\r\n"


@pytest.mark.parametrize("x", PINNED, ids=repr)
def test_pinned_integer_cell(x):
    if math.isfinite(x):
        assert _format_rows([[x]], 1) == "%d" % x + "\r\n"
    else:
        with pytest.raises((OverflowError, ValueError)) as expected:
            "%d" % x
        with pytest.raises(expected.type):
            _format_rows([[x]], 1)


def test_examples():
    assert _format_rows([[3.0, 0.0078125, -0.0, 12.5]], 1) \
        == "3,0.007812,-0.000000,12.500000\r\n"
    assert _format_rows([[-0.5, 2.0], [-7.9, -1e-9]], 1) \
        == "0,2.000000\r\n-7,-0.000000\r\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
fixed_range = st.floats(min_value=-FIXED_BOUND, max_value=FIXED_BOUND,
                        exclude_min=True, exclude_max=True)
# (k + 1/2) / 10**6 and k / 2**m put the product on or near a half
near_half = st.integers(-2 ** 40, 2 ** 40).map(lambda k: (k + 0.5) / 1e6)
dyadic = st.builds(lambda k, m: k / 2.0 ** m,
                   st.integers(-2 ** 30, 2 ** 30), st.integers(0, 40))
cells = st.one_of(finite, fixed_range, near_half, dyadic)


@settings(max_examples=400, deadline=None)
@given(cells)
def test_fixed_cell_matches_percent(x):
    assert _format_rows([[x]], 0) == "%.6f" % x + "\r\n"


@settings(max_examples=400, deadline=None)
@given(cells)
def test_integer_cell_matches_percent(x):
    assert _format_rows([[x]], 1) == "%d" % x + "\r\n"


@st.composite
def blocks(draw):
    n = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    values = st.one_of(fixed_range, near_half, dyadic) \
        if draw(st.booleans()) else cells
    rows = draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=float).reshape(n, cols), \
        draw(st.integers(0, cols))


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_block_matches_percent(block):
    rows, int_cols = block
    assert _format_rows(rows, int_cols) == percent_rows(rows, int_cols)


def small_design(kind, N, sigma_ratio, k):
    """A market of N sellers (even N for the lagged design, 3 for the custom
    one) and its design at sigma_ratio times the floor, with lag k when
    lagged."""
    if kind == "custom":
        return DemandModel(MU, TransferPoly([5.0])), \
            CUSTOM_POLICY, 3
    if kind == "lagged":
        N += N % 2
        model = DemandModel(MU, TransferPoly([N * 0.5]))
        return model, lagged_variant(model, N, 0.5 * sigma_ratio, k), N
    model = DemandModel(MU, TransferPoly([N * 0.5]))
    return model, neutral_policy(model, N, 0.5 * sigma_ratio), N


designs = st.tuples(st.sampled_from(["neutral", "lagged", "custom"]),
                    st.integers(2, 9), st.floats(1.0, 8.0), st.integers(1, 3))


def written(writer, result):
    buf = io.StringIO(newline="")
    writer(result, buf)
    return buf.getvalue().encode()


@settings(max_examples=30, deadline=None)
@given(designs, st.integers(5, 80), st.integers(0, 2 ** 16))
def test_simulation_csv_matches_reference(design, periods, seed):
    model, pol, N = small_design(*design)
    run = simulate_inventory(market_table(SELLERS[:N], COSTS, MU), pol, model,
                             simulate(model, periods, seed), 0.5 * design[2])
    assert written(export_simulation, run) == written(ref_export_simulation, run)


@settings(max_examples=30, deadline=None)
@given(designs, st.integers(5, 80), st.integers(0, 2 ** 16),
       st.sampled_from(["random", "lowest"]))
def test_assignment_log_matches_reference(design, periods, seed, tie_break):
    model, pol, _ = small_design(*design)
    res = route_path(pol, model, simulate(model, periods, seed), seed,
                     tie_break=tie_break)
    assert written(export_assignment_log, res) \
        == written(ref_export_assignment_log, res)


def reference_run(sigma, periods, seed):
    """The run `simulate` makes on the reference scenario."""
    scenario = load_scenario(SCENARIO)
    model = scenario.model
    pol = neutral_policy(model, scenario.n_sellers, sigma)
    table = market_table(scenario.sellers, scenario.costs, scenario.model.mu)
    return simulate_inventory(table, pol, model, simulate(model, periods, seed),
                              sigma)


def test_long_runs_match_reference_across_blocks():
    # several formatter blocks per file, on the reference scenario
    run = reference_run(3.0, 2000, 4)
    assert 4 * run.allocations.size > 3 * BLOCK_CELLS
    assert written(export_simulation, run) == written(ref_export_simulation, run)
    model = DemandModel(15.0, TransferPoly([5.0]))
    res = route_path(neutral_policy(model, 10, 1.0), model,
                     simulate(model, 600, 4), 4)
    assert res.log.size * 13 > 3 * BLOCK_CELLS
    assert written(export_assignment_log, res) \
        == written(ref_export_assignment_log, res)


def test_long_curve_matches_reference_across_blocks():
    # 2,000 sellers and 4,000 grid points: three formatter blocks
    sellers, costs, mu, _, sigma_cap = random_market(1, 2000)
    table = market_table(sellers, costs, mu)
    ub = table.participation_ub(sigma_cap)
    curve = payoff_curve(table, np.linspace(0.0, 1.1 * ub, 4000), ub)
    assert 5 * curve.sigma.size > 2 * BLOCK_CELLS
    assert written(export_curve, curve) == written(ref_export_curve, curve)


def test_huge_sigma_simulation_takes_the_fallback(tmp_path, capsys):
    # stocks near 10**12 pass the fixed-point bound, so every block is
    # %-formatted and must still match the reference writer
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", SCENARIO, "--sigma", "1e12",
                 "--periods", "40", "--seed", "4", "--out", str(out)]) == 0
    run = reference_run(1e12, 40, 4)
    assert np.abs(run.stocks).max() >= FIXED_BOUND
    assert out.read_bytes() == written(ref_export_simulation, run)
