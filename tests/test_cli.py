import contextlib
import io
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcmkin import cli, trajectory
from rcmkin.csvio import format_number, read_plan_csv
from rcmkin.platform import PlatformPose
from rcmkin.spherical import ik_full, left_geometry
from rcmkin.trajectory import ProfileLimits, plan_profile, sample_profile, time_grid

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


@pytest.mark.parametrize(
    "data, line, offset",
    [(b"motion = type2\xff\n", 1, 14),
     (b"motion = type4\r\npose = 0 0 -500 0 0 0 # \xe9t\xe9\n", 2, 40),
     (b"\xef\xbb\xbfmotion = type2\xff\n", 1, 17)],  # the offset counts the mark
    ids=["first-line", "crlf-second-line", "after-byte-order-mark"],
)
def test_run_scenario_that_is_not_utf8_exits_1(tmp_path, capsys, data, line, offset):
    scenario, out = tmp_path / "bad.cfg", tmp_path / "x.csv"
    scenario.write_bytes(data)
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert _single_error_line(captured.err)
    assert f"{scenario}:{line}:" in captured.err and f"byte offset {offset}" in captured.err
    assert captured.out == "" and not out.exists()


def test_run_scenario_with_a_byte_order_mark_writes_the_plain_bytes(tmp_path, capsys):
    demo = resources.files("rcmkin").joinpath("data", f"{DEMO}.cfg").read_bytes()
    for name, data in (("plain", demo), ("bom", b"\xef\xbb\xbf" + demo)):
        (tmp_path / f"{name}.cfg").write_bytes(data)
        argv = ["run", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / f"{name}.csv")]
        assert cli.main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


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


def test_profile_rows_equal_format_number(capsys):
    assert cli.main(["profile", "--delta", "25", "--dt", "0.01"]) == 0
    summary, rows = capsys.readouterr().out.split("\n", 1)
    assert summary.startswith("shape=trapezoid")
    prof = plan_profile(25.0, ProfileLimits(10.0, 5.0))
    times = time_grid(prof.t_total, 0.01)
    assert rows == "".join(
        ",".join(format_number(v) for v in row) + "\n"
        for row in zip(times, *sample_profile(prof, times))
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        # A triangle's t_acc overflows.
        ["profile", "--delta", "1e308", "--omega-max", "1e308", "--eps-max", "1e-308"],
        # A trapezoid's t_cruise overflows.
        ["profile", "--delta", "1e308", "--omega-max", "1e-300", "--eps-max", "1"],
        ["run", "omega_max = 1e-300\ndelta_psi = 1e308"],
    ],
)
def test_a_duration_that_overflows_is_config_error(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if argv[0] == "run":
        scenario = tmp_path / "long.cfg"
        scenario.write_text(
            f"motion = type4\npose = 0 0 -500 0 0 0\ntip_left = 50 -50 -620\n{argv[1]}\n"
        )
        argv = ["run", str(scenario), "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert _single_error_line(captured.err)
    assert "has no finite duration" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        # Both out of range: the geometry is built, and rejected, first.
        (["fk", "--pose=-1.5e308,0,-500,0,0,0", "--port-spacing=1e308", "--joints=0,0,100"], 1),
        (["fk", "--pose=-1.5e308,0,-500,0,0,0", "--joints=0,0,100"], 2),
        (["fk", "--pose=0,0,-500,0,0,0", "--port-spacing=1e300", "--joints=0,0,100"], 1),
    ],
)
def test_fk_rejects_lengths_that_could_overflow(argv, code, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == code
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)
    assert "1e+300 mm" in captured.err


def test_ik_far_tip_reports_its_finite_distance(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["ik", "--pose=0,0,-500,0,0,0", "--tip=1e200,1e200,0"])
    assert code == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)
    assert "q3 = 1.4142135623731e+200 mm" in captured.err


@pytest.mark.parametrize(
    "coordinates",
    ["pose = -1e308 0 -500 0 0 0\ntip_left = 1.7e308 1.7e308 0",
     "pose = 0 0 -500 0 0 0\ntip_left = 1e300 0 0",
     "pose = 0 0 -500 0 0 0\ntip_left = 50 -50 -620\nport_spacing = 1e300",
     "pose = 0 0 -500 0 0 0\ntip_left = 50 -50 -620\nq3_max = 1e300"],
)
def test_run_rejects_coordinates_that_could_overflow(tmp_path, capsys, coordinates):
    scenario = tmp_path / "far.cfg"
    scenario.write_text(f"motion = type4\n{coordinates}\ndelta_theta = 5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)
    assert not (tmp_path / "x.csv").exists()


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
    spacing=_ANY_FLOAT,
)
@example(command="fk", pose="-1.5e308,0.0,-500.0,0.0,0.0,0.0", point="0.0,0.0,100.0",
         alpha=10.0, beta=10.0, spacing=1e308)
def test_query_on_arbitrary_floats_never_raises(command, pose, point, alpha, beta, spacing):
    point_flag = "--joints" if command == "fk" else "--tip"
    argv = [command, f"--pose={pose}", f"{point_flag}={point}",
            f"--alpha={alpha!r}", f"--beta={beta!r}", f"--port-spacing={spacing!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        values = [float(v) for v in out.getvalue().strip().split(",")]
        assert len(values) == 3 and all(np.isfinite(values))
    else:
        assert _single_error_line(err.getvalue())


# A valid type-2 scenario whose profile once overflowed in sampling: three
# numpy warnings and exit 0, or a traceback under warnings-as-errors.
HUGE_ACCEL_SCENARIO = """motion = type2
pose = 0 0 -500 0 0 0
dt = 0.01
eps_max = 1e308
instrument = left
start_joints = 0 0 100
target_q3 = 150
"""

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LIMIT = st.one_of(
    st.floats(0.5, 50.0),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308),  # subnormals included
    st.sampled_from([5e-324, 1e-308, 1e-300, 1e300, 1e308, 1.7976931348623157e308]),
    _FINITE,
)


def _point(typical, *ranges):
    """The typical values, ordinary ones within the ranges, or any finite
    floats, as the scenario's space-separated numbers."""
    return st.one_of(
        st.just(typical),
        st.tuples(*(st.floats(lo, hi) for lo, hi in ranges)),
        st.tuples(*(_FINITE for _ in ranges)),
    ).map(lambda values: " ".join(repr(v) for v in values))


@st.composite
def _run_scenarios(draw):
    motion = draw(st.sampled_from(["type2", "type3", "type4"]))
    pose = draw(_point((15.0, 20.0, -500.0, -15.0, 10.0, -60.0), (-100, 100), (-100, 100),
                       (-700, -300), (-60, 60), (-60, 60), (-180, 180)))
    dt = draw(st.one_of(st.floats(1e-3, 0.5), _LIMIT))
    lines = [f"motion = {motion}", f"pose = {pose}", f"dt = {dt!r}",
             f"omega_max = {draw(_LIMIT)!r}", f"eps_max = {draw(_LIMIT)!r}"]
    if motion == "type4":
        tip = draw(_point((50.0, -50.0, -620.0), (-100, 100), (-100, 100), (-800, -500)))
        lines.append(f"tip_left = {tip}")
        lines.append(f"delta_psi = {draw(_point((15.0,), (-40, 40)))}")
        lines.append(f"delta_theta = {draw(_point((25.0,), (-40, 40)))}")
    else:
        lines.append(f"instrument = {draw(st.sampled_from(['left', 'right']))}")
        joints = ((-80, 80), (-80, 80), (0, 300))
        lines.append(f"start_joints = {draw(_point((0.0, 10.0, 150.0), *joints))}")
        if motion == "type2":
            lines.append(f"target_q3 = {draw(_point((200.0,), (0, 300)))}")
        else:
            lines.append(f"target_joints = {draw(_point((25.0, -15.0, 200.0), *joints))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(scenario=_run_scenarios())
@example(scenario=HUGE_ACCEL_SCENARIO)
# Found by this test: a type-4 joint acceleration past the float range, a
# grid time t_total * k that overflowed, and a stretch ratio that underflowed
# to 0 (a ZeroDivisionError traceback).
@example(scenario="motion = type4\npose = 0 0 -500 0 0 0\neps_max = 1e308\n"
                  "tip_left = 50 -50 -620\ndelta_theta = 25\n")
@example(scenario="motion = type4\npose = 15 20 -500 -15 10 -60\ndt = 2e303\n"
                  "tip_left = 50 -50 -620\ndelta_psi = 15\ndelta_theta = 2.7e306\n")
@example(scenario="motion = type4\npose = 15 20 -500 -15 10 -60\ndt = 3e188\n"
                  "tip_left = 50 -50 -620\ndelta_psi = 3e-265\ndelta_theta = 4e191\n")
def test_run_on_arbitrary_scenarios_keeps_its_contract(scenario):
    # Exit 0 with nothing on stderr, or exit 1-3 with one error line; never a
    # warning or a traceback. MAX_SAMPLES bounds each plan, so a long one is
    # rejected before anything is allocated.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(trajectory, "MAX_SAMPLES", 1500):
        warnings.simplefilter("error")
        path = Path(tmp, "drawn.cfg")
        path.write_text(scenario)
        code, _, err = _main(["run", str(path), "--out", str(Path(tmp, "plan.csv")), "--quiet"])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert _single_error_line(err)


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


def _main(argv):
    """Exit code, stdout and stderr of one main() call; a usage error counts as
    its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, flag, value, other_flag, other_value",
    [
        ("fk", "--pose", "-12.5,0,-500,0,0,0", "--joints", "0,0,100"),
        ("fk", "--joints", "-3.5,-38.9,147.8", "--pose", "15,20,-500,-15,10,-60"),
        ("ik", "--tip", "-50,-50,-620", "--pose", "15,20,-500,-15,10,-60"),
        ("ik", "--pose", "-.5,-1e1,-500,-15,-10,-60", "--tip", "50,-50,-620"),
    ],
)
def test_number_list_starting_with_minus_in_both_forms(
    command, flag, value, other_flag, other_value
):
    separate = _main([command, flag, value, other_flag, other_value])
    attached = _main([command, f"{flag}={value}", other_flag, other_value])
    assert separate == attached
    code, out, err = separate
    assert code == 0 and err == ""
    assert len(out.strip().split(",")) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "--pose", "-12.5,x,-500,0,0,0", "--joints", "0,0,100"],
        ["fk", "--pose", "-12.5,0,-500", "--joints", "0,0,100"],
        ["fk", "--pose", "0,0,-500,0,0,0", "--joints", "-x"],
        ["ik", "--pose", "0,0,-500,0,0,0", "--tip", "-1,,-600"],
        ["ik", "--pose", "-nan,0,-500,0,0,0", "--tip", "0,0,-600"],
    ],
)
def test_bad_value_after_a_list_flag_is_one_error_line(argv):
    code, out, err = _main(argv)
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert sum("error:" in line for line in lines) == 1
    assert "error:" in lines[-1]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["fk", "ik"]), pose=_floats(6), point=_floats(3))
def test_separate_and_attached_lists_agree_on_arbitrary_floats(command, pose, point):
    point_flag = "--joints" if command == "fk" else "--tip"
    separate = _main([command, "--pose", pose, point_flag, point])
    assert separate == _main([command, f"--pose={pose}", f"{point_flag}={point}"])
    assert separate[0] in (0, 1, 2, 3)


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import rcmkin.cli\n"
        "print(len(built))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "0"


def test_main_builds_its_parser_at_most_once(monkeypatch):
    built, build = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for i in range(20):
            code, out, _ = _main(["profile", "--delta", str(5 + i)])
            assert code == 0 and out.startswith("shape=")
    finally:
        cli._parser.cache_clear()  # later tests rebuild from the real build_parser
    assert len(built) == 1  # built by the public build_parser, on the first call


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_dt_override_does_not_outlive_its_call(tmp_path):
    coarse, default = tmp_path / "coarse.csv", tmp_path / "default.csv"
    assert cli.main(["run", DEMO, "--out", str(coarse), "--dt", "0.05", "--quiet"]) == 0
    assert cli.main(["run", DEMO, "--out", str(default), "--quiet"]) == 0
    assert read_plan_csv(coarse)[1].shape[0] == 91
    assert read_plan_csv(default)[1].shape[0] == 451  # the demo's own dt = 0.01


def test_branch_override_does_not_outlive_its_call():
    pose, tip = "15,20,-500,-15,10,-60", "50,-50,-620"
    code, out, err = _main(["ik", "--pose", pose, "--tip", tip, "--branch", "mirror"])
    assert code == 2 and out == "" and "exceeds" in err  # infeasible on +/-90 deg travels
    joints = ik_full(PlatformPose(15, 20, -500, -15, 10, -60), [50, -50, -620],
                     left_geometry())
    principal = ",".join(format_number(v) for v in (joints.q1, joints.q2, joints.q3))
    assert _main(["ik", "--pose", pose, "--tip", tip]) == (0, principal + "\n", "")


def test_usage_error_leaves_the_next_call_unchanged():
    argv = ["fk", "--pose", "15,20,-500,-15,10,-60", "--joints", "0,0,100"]
    before = _main(argv)
    code, out, err = _main(["fk", "--pose", "15,20,-500,-15,10,-60"])
    assert code == 1 and out == "" and "required: --joints" in err
    assert _main(argv) == before
    assert before[0] == 0 and before[2] == ""


def test_help_goes_to_the_current_stdout():
    first, second = io.StringIO(), io.StringIO()
    for target in (first, second):
        with contextlib.redirect_stdout(target), pytest.raises(SystemExit) as done:
            cli.main(["fk", "--help"])
        assert done.value.code == 0
    assert first.getvalue().startswith("usage: rcmkin fk")
    assert second.getvalue() == first.getvalue()
