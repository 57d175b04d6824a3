from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmkin import (
    IkBranch,
    MotionType,
    PortSide,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    bundled_scenario,
    endoscope_tips,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from rcmkin import scenario as scenario_module
from rcmkin.transforms import euler_xyz

MINIMAL_TYPE4 = """
motion = type4
pose = 0 0 -500 0 0 0
tip_left = 10 -10 -600
"""


def test_bundled_demo_scenario_matches_reference_parameters():
    sc = bundled_scenario("reorientation_demo")
    assert sc.motion is MotionType.REORIENT
    assert (sc.pose.x, sc.pose.y, sc.pose.z) == (15.0, 20.0, -500.0)
    assert (sc.pose.psi, sc.pose.theta, sc.pose.phi) == (-15.0, 10.0, -60.0)
    assert sc.delta_psi == 15.0 and sc.delta_theta == 25.0
    assert sc.limits.omega_max == 10.0 and sc.limits.eps_max == 5.0
    assert sc.dt == 0.01
    assert sc.branch is IkBranch.PRINCIPAL
    assert len(sc.instruments) == 1
    inst = sc.instruments[0]
    assert inst.geometry.side is PortSide.LEFT
    assert np.array_equal(inst.tip, [50.0, -50.0, -620.0])
    assert inst.geometry.alpha == 10.0 and inst.geometry.beta == 10.0
    assert inst.geometry.radius == 110.0
    assert inst.geometry.offset == (-10.0, 0.0, 0.0)


def test_defaults_applied():
    sc = parse_scenario(MINIMAL_TYPE4)
    assert sc.dt == 0.01
    assert sc.limits.omega_max == 10.0
    assert sc.limits.eps_max == 5.0
    assert sc.instruments[0].geometry.alpha == 10.0
    assert sc.instruments[0].geometry.q3_max == 300.0
    assert sc.output == "plan.csv"


def test_empty_scenario_is_parse_error():
    with pytest.raises(ScenarioParseError):
        parse_scenario("")
    with pytest.raises(ScenarioParseError):
        parse_scenario("   \n# only a comment\n")


def test_negative_eps_max_names_field():
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(MINIMAL_TYPE4 + "eps_max = -5\n")
    assert err.value.field == "eps_max"
    assert "eps_max" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("motion = type4\nthis line is wrong\n")
    assert err.value.line == 2


def test_unknown_key_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL_TYPE4 + "not_a_key = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario(MINIMAL_TYPE4 + "dt = 0.01\ndt = 0.02\n")


def test_wrong_arity_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("motion = type4\npose = 1 2 3\ntip_left = 0 0 -600\n")


def test_type4_requires_a_tip():
    with pytest.raises(ScenarioValidationError):
        parse_scenario("motion = type4\npose = 0 0 -500 0 0 0\n")


def test_type2_requires_target():
    text = "motion = type2\npose = 0 0 -500 0 0 0\ninstrument = left\nstart_joints = 0 0 50\n"
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(text)
    assert err.value.field == "target_q3"


def test_gimbal_pose_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario("motion = type4\npose = 0 0 -500 0 89.99999 0\ntip_left = 0 0 -600\n")
    assert err.value.field == "pose"


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(MINIMAL_TYPE4)
    sc = load_scenario(path)
    assert sc.motion is MotionType.REORIENT


def test_run_scenario_type2():
    sc = parse_scenario(
        "motion = type2\npose = 0 0 -500 0 0 0\ninstrument = right\n"
        "start_joints = 0 0 20\ntarget_q3 = 120\nomega_max = 40\neps_max = 20\n"
    )
    plan, endo = run_scenario(sc)
    assert plan.kind is MotionType.INSERT
    assert endo is None
    assert plan.instruments[0].name == "right"
    assert plan.instruments[0].joints[-1, 2] == pytest.approx(120.0, abs=1e-12)


def test_run_scenario_type3():
    sc = parse_scenario(
        "motion = type3\npose = 0 0 -500 0 0 0\ninstrument = left\n"
        "start_joints = 0 0 150\ntarget_joints = 20 -10 180\n"
    )
    plan, _ = run_scenario(sc)
    assert plan.kind is MotionType.MANIPULATE
    assert np.allclose(plan.instruments[0].joints[-1], [20.0, -10.0, 180.0], atol=1e-12)


def test_run_scenario_with_endoscope_track():
    sc = parse_scenario(MINIMAL_TYPE4 + "delta_theta = 10\nendoscope_insertion = 80\n")
    plan, endo = run_scenario(sc)
    assert endo is not None and endo.shape == (plan.samples, 3)
    # At the start pose (identity rotation) the endoscope hangs straight down.
    assert np.allclose(endo[0], [0.0, 0.0, -580.0], atol=1e-12)
    # The endoscope tilts with the platform, unlike the held instrument tips.
    assert np.linalg.norm(endo[-1] - endo[0]) > 1.0


@pytest.mark.parametrize("insertion", [0.0, 40.0, 123.456])
def test_endoscope_tips_equal_the_euler_rotation_product(rng, insertion):
    n = 500
    pose_grid = np.column_stack([
        rng.uniform(-100, 100, (n, 2)), rng.uniform(-700, -300, n),
        rng.uniform(-89, 89, (n, 2)), rng.uniform(-180, 180, n),
    ])
    plan = SimpleNamespace(pose_grid=pose_grid)  # all endoscope_tips reads of a plan
    expected = [
        euler_xyz(*np.radians(row[3:])) @ [0.0, 0.0, -insertion] + row[:3] for row in pose_grid
    ]
    np.testing.assert_allclose(endoscope_tips(plan, insertion), expected, rtol=0, atol=1e-12)


def test_mirror_alpha_flag():
    sc = parse_scenario(MINIMAL_TYPE4 + "tip_right = -10 -10 -600\nmirror_alpha = false\n")
    right = next(i for i in sc.instruments if i.geometry.side is PortSide.RIGHT)
    assert right.geometry.alpha == 10.0
    assert right.geometry.offset == (10.0, 0.0, 0.0)


def test_start_joints_must_be_numeric():
    text = "motion = type3\npose = 0 0 -500 0 0 0\ninstrument = left\nstart_joints = a b c\ntarget_joints = 0 0 100\n"
    with pytest.raises(ScenarioParseError):
        parse_scenario(text)


_KEYS = sorted(scenario_module._KNOWN_KEYS) + ["unknown", "Pose", ""]
_WORDS = ["type2", "type3", "type4", "left", "right", "principal", "mirror", "true", "nan"]
_NUMBER = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_VALUE = st.one_of(
    st.lists(_NUMBER, min_size=1, max_size=7).map(" ".join),
    st.sampled_from(_WORDS),
    st.text(max_size=12),
)
_LINE = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(_KEYS), _VALUE),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(
    head=st.sampled_from(["", "motion = type4\npose = 0 0 -500 0 0 0", MINIMAL_TYPE4]),
    lines=st.lists(_LINE, max_size=14),
)
def test_parser_raises_only_scenario_errors(head, lines):
    try:
        result = parse_scenario("\n".join([head, *lines]))
    except ScenarioError:
        return
    assert isinstance(result, Scenario)
