import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rcmkin import (ProfileLimits, SphericalJoints, csvio, plan_type2_insert,
                    plan_type3_manipulate, plan_type4)
from rcmkin.csvio import format_number
from rcmkin.scenario import endoscope_tips


def test_format_number_basics():
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(4.5) == "4.500000000"
    assert format_number(-15.0) == "-15.00000000"
    assert format_number(0.01) == "0.01000000000"
    assert format_number(123.4567890123) == "123.4567890"
    assert format_number(np.float64("nan")) == "nan"
    assert format_number(np.float64("-inf")) == "-inf"


def test_format_number_round_trip_relative(rng):
    for _ in range(2000):
        value = rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 4)
        parsed = float(format_number(value))
        assert parsed == pytest.approx(value, rel=1e-9, abs=0.0)


@pytest.fixture
def demo_plan(demo_pose, demo_geometry, demo_tip, demo_limits):
    return plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.05,
                      [(demo_geometry, demo_tip)])


def test_csv_layout(demo_plan, tmp_path):
    path = tmp_path / "plan.csv"
    csvio.write_plan_csv(demo_plan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# rcmkin-plan-1"
    header = lines[1].split(",")
    assert header[:7] == ["t", "x", "y", "z", "psi", "theta", "phi"]
    assert "left_q1" in header and "left_tip_z" in header and "left_sing" in header
    assert len(lines) == 2 + demo_plan.samples
    assert all(len(line.split(",")) == len(header) for line in lines[2:])


def test_csv_round_trip(demo_plan, tmp_path):
    path = tmp_path / "plan.csv"
    csvio.write_plan_csv(demo_plan, path)
    header, rows = csvio.read_plan_csv(path)
    assert rows.shape == (demo_plan.samples, len(header))
    q3_col = header.index("left_q3")
    original = demo_plan.instruments[0].joints[:, 2]
    assert np.abs(rows[:, q3_col] - original).max() <= 1e-9 * np.abs(original).max()
    t_col = header.index("t")
    assert rows[0, t_col] == 0.0
    assert rows[-1, t_col] == pytest.approx(demo_plan.duration, rel=1e-9)


def test_csv_text_deterministic(demo_plan):
    assert csvio.plan_csv_text(demo_plan) == csvio.plan_csv_text(demo_plan)


def test_fig5_subset(demo_plan):
    text = csvio.plan_csv_text(demo_plan, subset="fig5")
    header = text.splitlines()[1].split(",")
    assert header == ["t", "psi", "theta", "psi_dot", "theta_dot",
                      "psi_ddot", "theta_ddot"]


def test_fig7_subset(demo_plan):
    text = csvio.plan_csv_text(demo_plan, subset="fig7")
    header = text.splitlines()[1].split(",")
    assert header[0] == "t"
    assert "left_q1" in header and "left_q3_ddot" in header
    assert "psi" not in header and "left_tip_x" not in header


def test_unknown_subset_rejected(demo_plan):
    with pytest.raises(ValueError):
        csvio.plan_csv_text(demo_plan, subset="fig6")


def test_a_rejected_subset_leaves_the_previous_file_as_it_was(demo_plan, tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("# the previous plan\n")
    with pytest.raises(ValueError):
        csvio.write_plan_csv(demo_plan, path, subset="fig6")
    assert path.read_text() == "# the previous plan\n"


def test_endoscope_columns(demo_plan):
    endo = np.zeros((demo_plan.samples, 3))
    text = csvio.plan_csv_text(demo_plan, endoscope=endo)
    header = text.splitlines()[1].split(",")
    assert header[-3:] == ["endoscope_tip_x", "endoscope_tip_y", "endoscope_tip_z"]


def _scalar_text(rows) -> str:
    """The scalar reference: format_number of each value, row by row."""
    return "".join(",".join(format_number(float(v)) for v in row) + "\n" for row in rows)


def _scalar_rows(plan, subset, endoscope):
    """Row values in CSV column order, gathered one sample at a time."""
    for i, t in enumerate(plan.time):
        pose = plan.pose_grid[i]
        if subset == "fig5":
            yield [t, *pose[3:5], *plan.pose_rates[i], *plan.pose_accels[i]]
            continue
        row = [t] if subset else [t, *pose, *plan.pose_rates[i], *plan.pose_accels[i]]
        for track in plan.instruments:
            row += [*track.joints[i], *track.rates[i], *track.accels[i]]
            if subset is None:
                row += [*track.tip[i], track.sing[i]]
        if subset is None:
            row += list(endoscope[i])
        yield row


@pytest.fixture
def long_plans(demo_pose, demo_geometry, demo_tip, demo_limits):
    """Plans of more than one row block: the demo reorientation, and a type-2
    and a type-3 plan, whose pose, held joints and endoscope tip repeat on
    every row."""
    return {
        "type4": plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01,
                            [(demo_geometry, demo_tip)]),
        "type2": plan_type2_insert(demo_pose, SphericalJoints(5.0, -20.0, 0.0), 100.0,
                                   demo_geometry, ProfileLimits(20.0, 10.0), 0.01),
        "type3": plan_type3_manipulate(demo_pose, SphericalJoints(0.0, 10.0, 150.0),
                                       SphericalJoints(25.0, -15.0, 200.0), demo_geometry,
                                       demo_limits, 0.01),
    }


@pytest.mark.parametrize("kind, subset", [
    pytest.param(kind, subset, id=str(subset) if kind == "type4" else f"{kind}-{subset}")
    for kind in ("type4", "type2", "type3") for subset in (None, "fig5", "fig7")
])
def test_plan_csv_text_equals_the_scalar_formatter(kind, subset, long_plans):
    plan = long_plans[kind]
    endoscope = endoscope_tips(plan, 40.0)
    assert plan.samples > csvio._BLOCK_ROWS
    schema, _, body = csvio.plan_csv_text(plan, subset, endoscope).split("\n", 2)
    assert schema == "# rcmkin-plan-1"
    assert body == _scalar_text(_scalar_rows(plan, subset, endoscope))


_EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                float("nan"), float("inf"), float("-inf"), 9.99999999996, 0.1, 1e-300]
_SHAPES = array_shapes(min_dims=2, max_dims=2, max_side=12)


@given(arrays(np.float64, _SHAPES,
              elements=st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))))
def test_block_formatter_equals_format_number(block):
    assert csvio._table_text([block]) == _scalar_text(block)


#: Near-constant column bases: rounding ties at 10 significant digits, powers
#: of ten (where ulp steps change the decimal count), zeros, and values of
#: 1e9 and up, which print with 0 decimals as zero does.
_NEAR_BASES = [0.12345678905, 1.0000000005, 9.9999999995, -9.9999999995,
               *(10.0 ** k for k in (-300, -5, 0, 1, 2, 9, 10, 15)), -1e10, 0.0, -0.0, 2.5]
_ODD_VALUES = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]


def _ulp_steps(base: float, steps: np.ndarray) -> np.ndarray:
    """base moved steps[i] ulps, one np.nextafter at a time, in row i."""
    column, left = np.full(len(steps), base), steps.copy()
    while left.any():
        column = np.where(left == 0, column, np.nextafter(column, np.copysign(np.inf, left)))
        left -= np.sign(left)
    return column


@st.composite
def _near_constant_blocks(draw):
    """Columns of a base plus |k| <= 3 ulps; some hold one odd value (a zero
    of either sign, a NaN or an infinity), some mix +0 and -0."""
    rows = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        steps = draw(arrays(np.int64, rows, elements=st.integers(-3, 3)))
        column = _ulp_steps(draw(st.sampled_from(_NEAR_BASES)), steps)
        shape = draw(st.sampled_from(["ulps", "one odd value", "signed zeros"]))
        if shape == "one odd value":
            column[draw(st.integers(0, rows - 1))] = draw(st.sampled_from(_ODD_VALUES))
        elif shape == "signed zeros":
            column = np.where(steps < 0, -0.0, 0.0)
        columns.append(column)
    return np.column_stack(columns)


_TIE = 0.12345678905


@given(_near_constant_blocks())
# Each example breaks one condition of the fold: min and max straddle a
# rounding tie; the decimal count changes at 10, in either row order; a NaN
# sits in a column of 0 decimals; signed zeros; a single row.
@example(np.array([[_TIE], [np.nextafter(_TIE, 1.0)], [np.nextafter(_TIE, 0.0)]]))
@example(np.array([[10.0], [np.nextafter(10.0, 0.0)]]))
@example(np.array([[np.nextafter(10.0, 0.0)], [10.0]]))
@example(np.array([[0.0], [float("nan")]]))
@example(np.array([[1e10], [float("nan")], [1e10]]))
@example(np.array([[-0.0], [0.0], [-0.0]]))
@example(np.array([[9.9999999995, -0.0, float("inf"), 1e-300]]))
def test_near_constant_columns_equal_format_number(block):
    assert csvio._table_text([block]) == _scalar_text(block)


def test_values_next_to_powers_of_ten_take_format_numbers_exponent():
    # np.log10 and math.log10 can round to opposite sides of an integer
    # within a few ulps of 10**k; format_number takes its exponent from
    # math.log10.
    powers = np.array([10.0 ** k for k in range(-300, 301)])
    block = (powers.view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64)
    assert csvio._table_text([block]) == _scalar_text(block)


@given(arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_text_parses_back_within_1e9_relative(block):
    lines = csvio._table_text([block]).splitlines()
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert parsed.shape == block.shape
    assert np.all(np.abs(parsed - block) <= 1e-9 * np.abs(block))


#: The integer route's range: |v| from 1e-9 (18 decimals, past the route) to
#: 1e16 (0 decimals, past 2**53), either sign.
_ROUTE_VALUES = st.floats(1e-9, 1e16) | st.floats(-1e16, -1e-9)


def _either_side(value: float) -> list[float]:
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


#: Values whose digits scaled to their decimal count end in 5 at the first
#: dropped place: an exact binary tie at 0 decimals, and ties that round on
#: scaling at 9, 10, 4 and 14 decimals.
_TIES = [1234567890.5, 1.0000000005, _TIE, 123456.78905, 0.000012345678905]
#: Carries to 10**k, the 17/18-decimal boundary next to 1e-8, and the 2**53
#: boundary at 0 decimals.
_CARRIES = [9.99999999996, 0.0999999999996, 99999.99999996]
_BOUNDARIES = [*_either_side(1e-8), 9.9999999995e-9, *_either_side(2.0 ** 53), 2.0 ** 53 + 2]
_BELOW_ONE = [-0.5, -0.01, -0.0999999999996, -1.5e-9, -0.125]
_FALLBACK = [float("nan"), float("-inf"), 1e-300, 1e300]


@given(arrays(np.float64, _SHAPES, elements=_ROUTE_VALUES))
@example(np.array([_either_side(tie) for tie in _TIES]))
@example(-np.array([_either_side(tie) for tie in _TIES]))
@example(np.array([_CARRIES, [-c for c in _CARRIES]]))
@example(np.array([_BOUNDARIES, [-b for b in _BOUNDARIES]]))
@example(np.array([_BELOW_ONE]))
# A long fallback cell right before a cell whose "." is patched in.
@example(np.array([[1e-300, 0.5, 1e300, -0.25, float("nan"), 0.125, float("-inf"), 1.5]]))
@example(np.array([[*_FALLBACK, *_CARRIES], [*_BELOW_ONE[:4], *_TIES[2:]],
                   [*_TIES[2:], *_FALLBACK[::-1]]]))
def test_integer_route_equals_format_number(block):
    assert csvio._table_text([block]) == _scalar_text(block)


def test_fallback_cells_past_the_first_block_equal_format_number():
    # Fallback cells in the first and last rows of blocks and in the last
    # row, beside folded columns and a column that is constant except for
    # one NaN; some rows hold two fallback cells.
    rows = 600
    assert rows > 2 * csvio._BLOCK_ROWS
    marked = [0, 255, 256, 257, 511, rows - 1]
    cells = [_TIE, float("nan"), float("inf"), float("-inf"), 1e300, 1e-300]
    table = np.column_stack([
        np.linspace(0.0, 6.0, rows),
        np.full(rows, -500.0),
        np.sin(np.arange(rows)),
        np.full(rows, 12.5),
        np.full(rows, 3.0),
        -np.cos(np.arange(rows)) * 1e-3,
        np.where(np.arange(rows) % 2 == 0, 0.0, -0.0),
    ])
    table[marked, 2] = cells
    table[marked[::2], 5] = cells[::-1][:3]
    table[300, 4] = float("nan")
    assert csvio._table_text([table]) == _scalar_text(table)
