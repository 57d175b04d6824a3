import numpy as np
import pytest

from rcmkin import csvio, plan_type4
from rcmkin.csvio import format_number


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


def test_endoscope_columns(demo_plan):
    endo = np.zeros((demo_plan.samples, 3))
    text = csvio.plan_csv_text(demo_plan, endoscope=endo)
    header = text.splitlines()[1].split(",")
    assert header[-3:] == ["endoscope_tip_x", "endoscope_tip_y", "endoscope_tip_z"]
