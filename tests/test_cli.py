import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmkin import cli
from rcmkin.csvio import read_plan_csv
from rcmkin.trajectory import time_grid

DEMO = "reorientation_demo"

UNREACHABLE_SCENARIO = """
motion = type4
pose = 0 0 -500 0 0 0
alpha = 0
beta = 10
tip_left = 90 0 -500
delta_psi = 5
delta_theta = 5
"""


def test_run_bundled_demo(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert cli.main(["run", DEMO, "--out", str(out)]) == 0
    header, rows = read_plan_csv(out)
    assert rows.shape[0] == 451
    assert rows[-1, header.index("t")] == 4.5
    assert "451 samples" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", DEMO, "--out", str(a), "--quiet"]) == 0
    assert cli.main(["run", DEMO, "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_zero_delta_single_row(tmp_path):
    scenario = tmp_path / "still.cfg"
    scenario.write_text(
        "motion = type4\npose = 0 0 -500 0 0 0\ntip_left = 10 0 -600\n"
        "delta_psi = 0\ndelta_theta = 0\n"
    )
    out = tmp_path / "still.csv"
    assert cli.main(["run", str(scenario), "--out", str(out), "--quiet"]) == 0
    _, rows = read_plan_csv(out)
    assert rows.shape[0] == 1


def test_run_unreachable_exits_2(tmp_path, capsys):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(UNREACHABLE_SCENARIO)
    code = cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_singular_exits_3(tmp_path, capsys):
    scenario = tmp_path / "singular.cfg"
    scenario.write_text(
        "motion = type3\npose = 0 0 -500 0 0 0\ninstrument = left\n"
        "q2_limit = 120\nstart_joints = 0 0 150\ntarget_joints = 0 95 150\n"
    )
    code = cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "t =" in capsys.readouterr().err


def test_run_missing_scenario_exits_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
    capsys.readouterr()


def test_run_invalid_scenario_exits_1(tmp_path, capsys):
    scenario = tmp_path / "invalid.cfg"
    scenario.write_text("motion = type4\npose = 0 0 -500 0 0 0\n"
                        "tip_left = 0 0 -600\neps_max = -5\n")
    assert cli.main(["run", str(scenario)]) == 1
    assert "eps_max" in capsys.readouterr().err


def test_plot_data_subsets(tmp_path):
    fig5 = tmp_path / "fig5.csv"
    assert cli.main(["run", DEMO, "--out", str(fig5), "--plot-data", "fig5",
                     "--quiet"]) == 0
    header, rows = read_plan_csv(fig5)
    assert header == ["t", "psi", "theta", "psi_dot", "theta_dot",
                      "psi_ddot", "theta_ddot"]
    assert rows.shape == (451, 7)

    fig7 = tmp_path / "fig7.csv"
    assert cli.main(["run", DEMO, "--out", str(fig7), "--plot-data", "fig7",
                     "--quiet"]) == 0
    header, _ = read_plan_csv(fig7)
    assert header[:4] == ["t", "left_q1", "left_q2", "left_q3"]


def test_dt_override(tmp_path):
    out = tmp_path / "coarse.csv"
    assert cli.main(["run", DEMO, "--out", str(out), "--dt", "0.1", "--quiet"]) == 0
    _, rows = read_plan_csv(out)
    assert rows.shape[0] == 46


def test_fk_command(capsys):
    assert cli.main([
        "fk", "--pose", "15,20,-500,-15,10,-60",
        "--joints", "3.088924333053812,-38.869484058851796,147.76873209766495",
    ]) == 0
    printed = [float(v) for v in capsys.readouterr().out.strip().split(",")]
    assert np.allclose(printed, [50.0, -50.0, -620.0], atol=1e-7)


def test_ik_command(capsys):
    assert cli.main(["ik", "--pose", "15,20,-500,-15,10,-60",
                     "--tip", "50,-50,-620"]) == 0
    q1, q2, q3 = (float(v) for v in capsys.readouterr().out.strip().split(","))
    assert q1 == pytest.approx(3.088924333, abs=1e-6)
    assert q2 == pytest.approx(-38.86948406, abs=1e-6)
    assert q3 == pytest.approx(147.7687321, abs=1e-6)


def test_ik_unreachable_exit_code(capsys):
    code = cli.main(["ik", "--pose", "0,0,-500,0,0,0", "--tip", "90,0,-500",
                     "--alpha", "0"])
    assert code == 2
    capsys.readouterr()


def test_profile_command(capsys):
    assert cli.main(["profile", "--delta", "25"]) == 0
    out = capsys.readouterr().out
    assert "shape=trapezoid" in out
    assert "t_total=4.500000000" in out


def test_profile_sampling(capsys):
    assert cli.main(["profile", "--delta", "15", "--dt", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("shape=triangle")
    assert len(lines) > 3


def test_profile_samples_the_planner_grid(capsys):
    assert cli.main(["profile", "--delta", "25", "--dt", "0.7"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    times = time_grid(4.5, 0.7)
    assert len(rows) == len(times) == 8
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx(times, abs=1e-9)


def _single_error_line(err: str) -> bool:
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "--pose=nan,0,-500,0,0,0", "--joints", "0,0,100"],
        ["fk", "--pose=0,0,-500,0,0,0", "--joints", "0,0,100", "--alpha", "95"],
        ["ik", "--pose=0,0,-500,0,0,0", "--tip", "0,0,-600", "--beta", "nan"],
    ],
)
def test_bad_query_input_is_config_error(argv, capsys):
    assert cli.main(argv) == 1
    assert _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", DEMO, "--dt", "1e-9"],
        ["run", DEMO, "--dt", "0"],
        ["profile", "--delta", "25", "--dt", "1e-9"],
        ["profile", "--delta", "25", "--dt", "nan"],
    ],
)
def test_bad_sample_step_is_config_error(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if argv[0] == "run":
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert _single_error_line(captured.err)
    assert captured.out == "" and not out.exists()


def test_ik_far_tip_reports_its_finite_distance(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["ik", "--pose=0,0,-500,0,0,0", "--tip=1e200,1e200,0"])
    assert code == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)
    assert "q3 = 1.41421e+200 mm" in captured.err


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _floats(count):
    return st.lists(_ANY_FLOAT, min_size=count, max_size=count).map(
        lambda values: ",".join(repr(v) for v in values)
    )


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["fk", "ik"]),
    pose=_floats(6),
    point=_floats(3),
    alpha=_ANY_FLOAT,
    beta=_ANY_FLOAT,
)
def test_query_on_arbitrary_floats_never_raises(command, pose, point, alpha, beta):
    point_flag = "--joints" if command == "fk" else "--tip"
    argv = [command, f"--pose={pose}", f"{point_flag}={point}",
            f"--alpha={alpha!r}", f"--beta={beta!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert len(out.getvalue().strip().split(",")) == 3
    else:
        assert _single_error_line(err.getvalue())


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])  # missing scenario argument
    assert err.value.code == 1
    capsys.readouterr()


def test_validate_quick_subset(capsys, monkeypatch):
    # Keep the CLI check cheap: trim the heavy oracles to small sample counts.
    from rcmkin import validation

    results = [
        validation.check_euler_quaternion(n=50),
        validation.check_dual_path_fk(n=50),
        validation.check_fk_ik_roundtrip(n=50),
        validation.check_jacobian_fd(n=20),
        validation.check_numeric_ik(n=5),
    ]
    assert all(r.passed for r in results)
    report = validation.format_report(results)
    assert "all oracles passed" in report
    assert report.count("PASS") == len(results)
