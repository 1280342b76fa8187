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
                         export_curve, market_table, neutral_policy,
                         payoff_curve, route_path, simulate)
from demandalloc.cli import load_scenario, main
from demandalloc.csvtext import (_BLANK, _COMMA, _FRAC_HI, _FRAC_LO, _GROUP,
                                 _HEAD, _LF, BLOCK_CELLS, _format_rows)
from demandalloc.forecast import export_simulation, simulate_inventory

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (lagged_variant, ref_export_assignment_log,  # noqa: E402
                     ref_export_curve, ref_export_simulation,
                     ref_export_snapshot_log, seller_columns,
                     snapshot_log_from)
from test_forecast import CUSTOM_POLICY  # noqa: E402
from test_market_table import random_market  # noqa: E402
from test_seller import COSTS, MU, SELLERS  # noqa: E402

SCENARIO = str(Path(__file__).resolve().parents[1]
               / "scenarios" / "illustrative.scenario")
# |x| below this has |x| * 10**6 < 2**52 and takes the fixed-point path
FIXED_BOUND = 2.0 ** 52 / 1e6
# integer parts where the formatter needs one more 3-digit group
GROUP_EDGES = [1e3, 1e6, 1e9]


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


def test_word_tables_match_their_definitions():
    ks = range(1000)
    top = [f"{k:4d}" for k in ks] + [f"{'-%d' % k:>4}" for k in ks]
    assert _GROUP.tobytes().decode() == "".join([f" {k:03d}" for k in ks] + top)
    top[0] = top[1000] = "    "
    assert _HEAD.tobytes().decode() == "".join([f" {k:03d}" for k in ks] + top)
    assert _FRAC_HI.tobytes().decode() == "".join(f".{k:03d}" for k in ks)
    assert _FRAC_LO.tobytes().decode() == "".join(f"{k:03d}," for k in ks)
    assert np.array([_BLANK, _COMMA, _LF]).tobytes() == b"    ,   \n   "


# the integer part just below, at and past each group edge, and up to the
# fixed-point bound; "%.6f" of 999.9999995 carries into a new group
EDGE_PINNED = [x for e in GROUP_EDGES
               for x in (e - 1.0, e - 5e-7, e - 1e-6, e, e + 0.5, e + 1.0)] \
    + [4503599627.0, 4503599627.370495, 4503599626.9999995]


@pytest.mark.parametrize("x", EDGE_PINNED + [-x for x in EDGE_PINNED], ids=repr)
def test_group_edge_cells(x):
    assert _format_rows([[x]], 0) == "%.6f" % x + "\r\n"
    assert _format_rows([[x]], 1) == "%d" % x + "\r\n"


@pytest.mark.parametrize("rows, int_cols", [
    # the integer columns need more groups than the fraction columns
    ([[1234567.0, 0.5, -0.0], [-1000.0, -0.25, 999.9999994]], 1),
    ([[-0.5, 4503599627.0, -1.0, 12.5], [-1.0, -999.0, -0.5, -0.0]], 3),
    # the fraction columns need more groups than the integer columns
    ([[3.0, 1234567.891], [-1.0, -999999.9999995], [-0.5, 1e9]], 1),
    ([[-0.0, 999.0, -4503599627.370495]], 2),
    # all "%d", all "%.6f", one column
    ([[999.0, -1e6, -0.5], [1e9, -0.0, 1000.0]], 3),
    ([[999.0, -1e6, -0.5], [1e9, -0.0, 1000.0]], 0),
    ([[-999999.5], [1e6], [-0.0]], 1),
    ([[-999999.5], [1e6], [-0.0]], 0),
])
def test_blocks_across_group_counts(rows, int_cols):
    assert _format_rows(rows, int_cols) == percent_rows(rows, int_cols)


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
# integer parts at a group edge or just under the fixed-point bound
signs = st.sampled_from([1.0, -1.0])
group_edges = st.builds(lambda e, d, s: s * (e + d),
                        st.sampled_from(GROUP_EDGES),
                        st.one_of(st.sampled_from([-1.0, -5e-7, 0.0, 0.5]),
                                  st.floats(-2.0, 2.0)), signs)
under_bound = st.builds(lambda x, s: s * x, st.floats(
    4503599627.0, FIXED_BOUND, exclude_max=True), signs)
edges = st.one_of(group_edges, under_bound,
                  st.sampled_from([-0.0, -0.5, -1.0, 0.0]))
cells = st.one_of(finite, fixed_range, near_half, dyadic, edges)


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


magnitudes = st.sampled_from([1.0, 1e3, 1e6, 1e9])


@st.composite
def group_blocks(draw):
    """Blocks whose integer and fraction columns each draw from their own
    magnitude, so either side may need more 3-digit groups."""
    n = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    int_cols = draw(st.integers(0, cols))
    scales = [draw(magnitudes), draw(magnitudes)]
    values = [st.one_of(edges, st.floats(-4.5 * m, 4.5 * m)) for m in scales]
    rows = [[draw(values[c >= int_cols]) for c in range(cols)]
            for _ in range(n)]
    return np.array(rows, dtype=float), int_cols


@settings(max_examples=300, deadline=None)
@given(group_blocks())
def test_group_blocks_match_percent(block):
    rows, int_cols = block
    assert _format_rows(rows, int_cols) == percent_rows(rows, int_cols)


def spread_cells(rng, shape, top):
    """Cells of both signs whose integer parts need 1 to `top` groups, with
    some integral values, signed zeros and -0.5."""
    x = rng.uniform(-4.5, 4.5, shape) * 10.0 ** rng.integers(-7, 3 * top - 2,
                                                             shape)
    x = np.where(rng.random(shape) < 0.1, np.trunc(x), x)
    special = rng.choice([-0.0, 0.0, -0.5, -1.0, 999.0], shape)
    return np.where(rng.random(shape) < 0.05, special, x)


@pytest.mark.parametrize("float_groups", [1, 4])
def test_large_blocks_match_percent(float_groups):
    # a simulate-shaped block (period >= 1,000, then 41 float columns) and a
    # route-shaped one (period, order, seller, then 10 float columns)
    rng = np.random.default_rng(20 + float_groups)
    sim = spread_cells(rng, (390, 42), float_groups)
    sim[:, 0] = np.arange(1000, 1390)
    route = spread_cells(rng, (1260, 13), float_groups)
    route[:, :3] = np.abs(np.trunc(spread_cells(rng, (1260, 3), 3))) + 1.0
    for rows, int_cols in ((sim, 1), (route, 3)):
        assert np.abs(rows).max() < FIXED_BOUND
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
    table = market_table(seller_columns(SELLERS[:N]), COSTS, MU)
    run = simulate_inventory(table, pol, model, simulate(model, periods, seed),
                             0.5 * design[2])
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


def check_rebuilds_snapshot_log(res):
    """The N-column log of earlier versions, rebuilt byte for byte from the
    log and the targets, and each row of the log as the first three cells of
    the N-column row plus its chosen seller's cell."""
    text = written(export_assignment_log, res).decode()
    snapshot = written(ref_export_snapshot_log, res).decode()
    assert snapshot_log_from(text, res.targets) == snapshot
    rows, old_rows = text.split("\r\n"), snapshot.split("\r\n")
    assert len(rows) == len(old_rows) == res.log.size + 2
    for row, old in zip(rows[1:-1], old_rows[1:-1]):
        cells = old.split(",")
        assert row == ",".join(cells[:3] + [cells[2 + int(cells[2])]])


@settings(max_examples=30, deadline=None)
@given(designs, st.integers(5, 80), st.integers(0, 2 ** 16),
       st.sampled_from(["random", "lowest"]))
def test_log_rebuilds_snapshot_log(design, periods, seed, tie_break):
    model, pol, _ = small_design(*design)
    res = route_path(pol, model, simulate(model, periods, seed), seed,
                     tie_break=tie_break)
    check_rebuilds_snapshot_log(res)


@pytest.mark.parametrize("mu, psi, N, sigma, periods", [
    # the paths of the two route log goldens
    (15.0, [5.0], 10, 3.0, 300),
    (40.0, [5.0, 2.0, 1.0], 11, 0.7, 60),
])
def test_golden_paths_rebuild_snapshot_log(mu, psi, N, sigma, periods):
    model = DemandModel(mu, TransferPoly(psi))
    res = route_path(neutral_policy(model, N, sigma), model,
                     simulate(model, periods, 4), 4, tie_break="lowest")
    check_rebuilds_snapshot_log(res)


def reference_run(sigma, periods, seed):
    """The run `simulate` makes on the reference scenario."""
    scenario = load_scenario(SCENARIO)
    model = scenario.model
    pol = neutral_policy(model, len(scenario.sellers), sigma)
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
                     simulate(model, 1500, 4), 4)
    assert res.log.size * 4 > 3 * BLOCK_CELLS
    assert written(export_assignment_log, res) \
        == written(ref_export_assignment_log, res)


def test_long_curve_matches_reference_across_blocks():
    # 2,000 sellers and 4,000 grid points: three formatter blocks
    sellers, costs, mu, _, sigma_cap = random_market(1, 2000)
    table = market_table(seller_columns(sellers), costs, mu)
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
