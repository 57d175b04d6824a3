import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcmkin import (
    DegenerateInputError,
    IkBranch,
    JointLimitError,
    PlatformPose,
    PortSide,
    SphericalJoints,
    UnreachableError,
    fk_tip_fixed,
    ik_full,
    ik_tip_platform,
    left_geometry,
    mirrored,
)
from rcmkin.spherical import (
    MIN_TIP_NORM,
    REACH_TOL,
    check_ik,
    check_joints,
    fk_tip_fixed_chain,
    ik_faults,
    joint_faults,
)
from rcmkin.transforms import euler_xyz
from rcmkin.validation import _random_geometry, _random_joints, _random_pose, _worse

# Joints reaching the demo tip (50, -50, -620) from the demo pose, frozen
# from an independent damped least-squares solve of the tip residual.
DEMO_JOINTS = SphericalJoints(3.088924333053812, -38.869484058851796, 147.76873209766495)


def _random_setup(rng, swing=80.0):
    return _random_pose(rng), _random_geometry(rng), _random_joints(rng, margin=90.0 - swing)


def _module_tip(joints, geometry):
    """The chain's tip in the module frame: under the identity pose the
    platform frame is the fixed frame, and the port sits at the offset."""
    return fk_tip_fixed_chain(PlatformPose(0, 0, 0, 0, 0, 0), joints, geometry) - np.array(
        geometry.offset
    )


def test_module_matrix_straight_chain():
    # alpha = beta = q1 = q2 = 0: the module rotation is the identity, so the
    # insertion alone moves the tip, by (0, 0, -q3). No insertion leaves it
    # at the port, and insertions add.
    g = left_geometry(alpha=0.0, beta=0.0)
    for q3 in (0.0, 2.5, 5.0, 7.5, 100.0, 120.0):
        assert np.allclose(_module_tip(SphericalJoints(0, 0, q3), g), [0, 0, -q3], atol=1e-15)


def test_module_matrix_tilted_chain_symbolic_expansion():
    # At q1 = q2 = 0 the tip reduces to rot_y(alpha) rot_x(beta) (0, 0, -q3).
    g = left_geometry(alpha=10.0, beta=10.0)
    tip = _module_tip(SphericalJoints(0, 0, 100), g)
    a, b = math.radians(10), math.radians(10)
    expected = [
        -100 * math.sin(a) * math.cos(b),
        100 * math.sin(b),
        -100 * math.cos(a) * math.cos(b),
    ]
    assert np.allclose(tip, expected, atol=1e-12)
    assert np.allclose(tip, [-17.101, 17.365, -96.985], atol=1e-3)


def test_rcm_property_zero_insertion(rng):
    g = left_geometry(q3_min=0.0)
    for _ in range(50):
        joints = SphericalJoints(rng.uniform(-80, 80), rng.uniform(-80, 80), 0.0)
        assert np.allclose(_module_tip(joints, g), [0, 0, 0], atol=1e-15)


def test_tip_norm_equals_insertion(rng):
    for _ in range(1000):
        _, g, joints = _random_setup(rng)
        norm = np.linalg.norm(_module_tip(joints, g))
        assert norm == pytest.approx(joints.q3, rel=1e-12)


def test_tip_linear_in_insertion():
    g = left_geometry()
    base = _module_tip(SphericalJoints(25, -40, 100), g)
    doubled = _module_tip(SphericalJoints(25, -40, 200), g)
    assert np.allclose(doubled, 2.0 * base, atol=1e-12)


def test_joint_limit_errors():
    g = left_geometry()
    with pytest.raises(JointLimitError):
        _module_tip(SphericalJoints(95, 0, 100), g)
    with pytest.raises(JointLimitError):
        _module_tip(SphericalJoints(0, 0, 500), g)
    for nan_joints in ((math.nan, 0, 100), (0, math.nan, 100), (0, 0, math.nan)):
        with pytest.raises(JointLimitError):
            _module_tip(SphericalJoints(*nan_joints), g)


@pytest.mark.parametrize("end", [(None, None, 300.0), (90.0, None, None), (-90.0, None, None)])
def test_ik_accepts_a_joint_placed_at_its_travel_end(rng, end):
    # The tip FK puts there lies inside the travel; its IK returns the end
    # joint a few ulps either side of the end.
    pose, g = PlatformPose(0, 0, -500, 0, 0, 0), left_geometry()
    for _ in range(200):
        drawn = (rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(20, 280))
        joints = SphericalJoints(*(d if e is None else e for d, e in zip(drawn, end)))
        solved = ik_full(pose, fk_tip_fixed(pose, joints, g), g)
        gaps = np.subtract((solved.q1, solved.q2, solved.q3), (joints.q1, joints.q2, joints.q3))
        assert np.abs(gaps).max() <= 1e-9


@pytest.mark.parametrize(
    "joints, error",
    [
        ((90.0 * (1 + 1e-13), 0.0, 100.0), None),
        ((-90.0 * (1 + 1e-13), 0.0, 100.0), None),
        ((0.0, 90.0 * (1 + 1e-13), 100.0), None),
        ((0.0, 0.0, 300.0 * (1 + 1e-13)), None),
        # Value and travel end print differently, however close the rejection.
        ((90.0 * (1 + 2e-12), 0.0, 100.0), "q1 = 90.00000000018 deg exceeds +/-90 deg"),
        ((0.0, -90.0 * (1 + 2e-12), 100.0), "q2 = -90.00000000018 deg exceeds +/-90 deg"),
        ((0.0, 0.0, 300.0 * (1 + 2e-12)), "q3 = 300.0000000006 mm outside [0, 300] mm"),
        ((0.0, 0.0, -1e-9), "q3 = -1e-09 mm outside [0, 300] mm"),
    ],
)
def test_check_joints_and_joint_faults_agree_at_the_travel_ends(joints, error):
    g = left_geometry()
    grid = SphericalJoints(*(np.array([q]) for q in joints))
    assert joint_faults(grid, g).tolist() == [error is not None]
    if error is None:
        check_joints(SphericalJoints(*joints), g)
    else:
        with pytest.raises(JointLimitError) as err:
            check_joints(SphericalJoints(*joints), g)
        assert str(err.value) == error


_REACH = 1.0 + REACH_TOL


@pytest.mark.parametrize(
    "q3, sin_q2, error",
    [
        (MIN_TIP_NORM, 0.0, None),
        (math.nextafter(MIN_TIP_NORM, math.inf), 0.0, None),
        (math.nextafter(MIN_TIP_NORM, 0.0), 0.0,
         (DegenerateInputError, "tip vector norm 1e-09 mm is below 1e-09 mm")),
        (100.0, _REACH, None),
        (100.0, -_REACH, None),
        (100.0, math.nextafter(_REACH, 0.0), None),
        (100.0, math.nextafter(_REACH, math.inf),
         (UnreachableError, "tip direction outside the insertion cone (|sin q2| = 1)")),
        (100.0, -math.nextafter(_REACH, math.inf),
         (UnreachableError, "tip direction outside the insertion cone (|sin q2| = 1)")),
        # NaN passes the direction and reach checks and fails the travel.
        (100.0, math.nan, None),
        (math.nan, 0.0, (JointLimitError, "q3 = nan mm outside [0, 300] mm")),
    ],
)
def test_check_ik_and_ik_faults_agree_at_the_edges(q3, sin_q2, error):
    g = left_geometry()
    grid = SphericalJoints(np.array([0.0]), np.array([0.0]), np.array([q3]))
    assert ik_faults(grid, np.array([sin_q2]), g).tolist() == [error is not None]
    if error is None:
        check_ik(SphericalJoints(0.0, 0.0, q3), sin_q2, g)
    else:
        with pytest.raises(error[0]) as err:
            check_ik(SphericalJoints(0.0, 0.0, q3), sin_q2, g)
        assert str(err.value) == error[1]


def test_fk_trivial_straight_down():
    pose = PlatformPose(0, 0, 0, 0, 0, 0)
    g = left_geometry(alpha=0.0, beta=0.0)
    tip = fk_tip_fixed(pose, SphericalJoints(0, 0, 100), g)
    assert np.allclose(tip, [-10, 0, -100], atol=1e-15)


def test_fk_dual_paths_agree(rng):
    worst = 0.0
    for _ in range(2000):
        pose, g, joints = _random_setup(rng)
        diff = np.abs(fk_tip_fixed(pose, joints, g) - fk_tip_fixed_chain(pose, joints, g))
        worst = _worse(worst, float(diff.max()))
    assert worst < 1e-12


def test_demo_tip_round_trip(demo_pose, demo_geometry, demo_tip):
    joints = ik_full(demo_pose, demo_tip, demo_geometry)
    assert joints.q1 == pytest.approx(DEMO_JOINTS.q1, abs=1e-9)
    assert joints.q2 == pytest.approx(DEMO_JOINTS.q2, abs=1e-9)
    assert joints.q3 == pytest.approx(DEMO_JOINTS.q3, abs=1e-9)
    assert np.allclose(fk_tip_fixed(demo_pose, joints, demo_geometry), demo_tip, atol=1e-9)


def test_ik_trivial_inverse():
    g = left_geometry(alpha=0.0, beta=0.0)
    joints = ik_tip_platform([0, 0, -100], g)
    assert (joints.q1, joints.q2, joints.q3) == pytest.approx((0, 0, 100), abs=1e-12)


def test_ik_inverts_tilted_chain_example():
    g = left_geometry(alpha=10.0, beta=10.0)
    v = _module_tip(SphericalJoints(0, 0, 100), g)
    joints = ik_tip_platform(v, g)
    assert (joints.q1, joints.q2, joints.q3) == pytest.approx((0, 0, 100), abs=1e-9)


def test_ik_full_trivial(demo_geometry):
    pose = PlatformPose(0, 0, 0, 0, 0, 0)
    g = left_geometry(alpha=0.0, beta=0.0)
    joints = ik_full(pose, [-10, 0, -100], g)
    assert (joints.q1, joints.q2, joints.q3) == pytest.approx((0, 0, 100), abs=1e-12)


def test_ik_unreachable_outside_cone():
    g = left_geometry(alpha=0.0, beta=10.0)
    with pytest.raises(UnreachableError):
        ik_tip_platform([100.0, 0.0, 0.0], g)


def test_ik_degenerate_zero_vector():
    with pytest.raises(DegenerateInputError):
        ik_tip_platform([0.0, 0.0, 1e-12], left_geometry())
    with pytest.raises(DegenerateInputError):
        ik_tip_platform([0.0, 0.0, 0.0], left_geometry())


@pytest.mark.parametrize("coordinate", [1e300, -math.inf, math.nan])
def test_ik_full_rejects_coordinates_that_could_overflow(demo_pose, coordinate):
    with pytest.raises(UnreachableError):
        ik_full(demo_pose, [coordinate, 0.0, -600.0], left_geometry())


def test_ik_joint_limit_propagates():
    g = left_geometry(alpha=0.0, beta=0.0, q3_max=50.0)
    with pytest.raises(JointLimitError):
        ik_tip_platform([0, 0, -100], g)


def test_fk_ik_round_trip_bulk(rng):
    worst = 0.0
    worst_joint = 0.0
    flips = 0
    for _ in range(10000):
        pose, g, joints = _random_setup(rng, swing=85.0)
        tip = fk_tip_fixed(pose, joints, g)
        solved = ik_full(pose, tip, g, IkBranch.PRINCIPAL)
        if abs(solved.q2 - joints.q2) > 1e-6:
            flips += 1
        for got, want in zip((solved.q1, solved.q2, solved.q3), (joints.q1, joints.q2, joints.q3)):
            worst_joint = _worse(worst_joint, abs(got - want))
        worst = _worse(worst, float(np.abs(fk_tip_fixed(pose, solved, g) - tip).max()))
    assert worst <= 1e-9
    assert worst_joint <= 1e-8  # joints recovered, not merely tip-equivalent
    assert flips == 0


def test_mirror_branch_round_trips(rng):
    # Sample q2 beyond 90 deg so the mirror branch is the recovering one.
    g = left_geometry(q2_limit=170.0)
    for _ in range(200):
        joints = SphericalJoints(
            rng.uniform(-80, 80),
            rng.choice([-1, 1]) * rng.uniform(95, 165),
            rng.uniform(20, 280),
        )
        v = _module_tip(joints, g)
        solved = ik_tip_platform(v, g, IkBranch.MIRROR)
        assert np.allclose(_module_tip(solved, g), v, atol=1e-9)
        assert solved.q2 == pytest.approx(joints.q2, abs=1e-9)


def _angle_gap(a, b):
    """|a - b| in degrees, modulo full turns: 180 and -180 are the same q1."""
    return abs(math.remainder(a - b, 360.0))


# The ulp-level travel-end cases hypothesis has found: q3 = q3_max is drawn,
# and the closed-form IK returns it a few ulps past the end.
_AT_Q3_MAX = dict(pose=PlatformPose(0, 0, -300, 0, 0, 0), alpha=0.0, beta=2.0, spacing=5.0,
                  branch=IkBranch.PRINCIPAL, q1=0.0, q2_offset=2.0, q2_sign=-1.0, q3=300.0)


@settings(max_examples=300, deadline=None)
@example(**_AT_Q3_MAX)
@example(**{**_AT_Q3_MAX, "beta": 0.0})
@example(**{**_AT_Q3_MAX, "beta": 5.0})
@example(**{**_AT_Q3_MAX, "pose": PlatformPose(0, 0, -300, 0, 0, 32.5)})
@given(
    pose=st.builds(
        PlatformPose,
        st.floats(-100, 100), st.floats(-100, 100), st.floats(-700, -300),
        st.floats(-60, 60), st.floats(-60, 60), st.floats(-180, 180),
    ),
    alpha=st.floats(-30, 30),
    beta=st.floats(0, 30),
    spacing=st.floats(5, 20),
    branch=st.sampled_from(IkBranch),
    q1=st.floats(-180, 180),
    q2_offset=st.floats(1, 90),  # |q2| stays 1 deg or more off the singular 90 deg
    q2_sign=st.sampled_from([-1.0, 1.0]),
    q3=st.floats(1, 300),
)
def test_fk_ik_round_trip_on_both_branches(
    pose, alpha, beta, spacing, branch, q1, q2_offset, q2_sign, q3
):
    # Full q1/q2 travel, so that every joint set on either branch is feasible.
    g = left_geometry(alpha=alpha, beta=beta, port_spacing=spacing,
                      q1_limit=180.0, q2_limit=180.0)
    magnitude = 90.0 - q2_offset if branch is IkBranch.PRINCIPAL else 90.0 + q2_offset
    joints = SphericalJoints(q1, q2_sign * magnitude, q3)
    tip = fk_tip_fixed(pose, joints, g)
    solved = ik_full(pose, tip, g, branch)
    assert _angle_gap(solved.q1, joints.q1) <= 1e-8
    assert _angle_gap(solved.q2, joints.q2) <= 1e-8
    assert abs(solved.q3 - joints.q3) <= 1e-9
    assert np.abs(fk_tip_fixed(pose, solved, g) - tip).max() <= 1e-9


def test_chain_is_independent_of_the_direction_cosine_expansion(monkeypatch, rng):
    # Criterion 6 and dual-path-fk compare two routes; the chain must not
    # run any piece of the expansion it is checked against.
    setups = [(pose, joints, g) for pose, g, joints in (_random_setup(rng) for _ in range(200))]
    expected = [fk_tip_fixed(*setup) for setup in setups]

    def forbidden(*args, **kwargs):
        raise AssertionError("the chain ran a piece of the expansion")

    for module in [m for name, m in sys.modules.items() if name.startswith("rcmkin")]:
        for name in ("insertion", "tip_position", "tip_vector", "euler_entries"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(PlatformPose, "rotation_entries", property(forbidden))
    with pytest.raises(AssertionError):
        fk_tip_fixed(*setups[0])
    for setup, tip in zip(setups, expected):
        assert np.abs(fk_tip_fixed_chain(*setup) - tip).max() <= 1e-12


def test_rcm_invariance_zero_insertion_matches_port(demo_pose, rng):
    g = left_geometry()
    # The left port sits at (-10, 0, 0) in the platform frame.
    port = euler_xyz(*demo_pose.angles_rad) @ [-10.0, 0.0, 0.0] + demo_pose.position
    for _ in range(100):
        joints = SphericalJoints(rng.uniform(-80, 80), rng.uniform(-80, 80), 0.0)
        assert np.allclose(fk_tip_fixed(demo_pose, joints, g), port, atol=1e-12)
        assert np.allclose(fk_tip_fixed_chain(demo_pose, joints, g), port, atol=1e-12)


def test_mirrored_geometry_reflects_tip(rng):
    left = left_geometry(alpha=10.0, beta=10.0)
    right = mirrored(left)
    assert right.alpha == -10.0
    assert right.offset == (10.0, 0.0, 0.0)
    assert (left.side, right.side) == (PortSide.LEFT, PortSide.RIGHT)
    assert mirrored(right) == left
    for _ in range(200):
        q1, q2 = rng.uniform(-80, 80, 2)
        q3 = rng.uniform(20, 280)
        tip_l = _module_tip(SphericalJoints(q1, q2, q3), left)
        tip_r = _module_tip(SphericalJoints(q1, -q2, q3), right)
        assert np.allclose(tip_r, tip_l * [-1, 1, 1], atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        left_geometry(beta=-1.0)
    with pytest.raises(ValueError):
        left_geometry(alpha=90.0)
    with pytest.raises(ValueError):
        left_geometry(q3_min=10.0, q3_max=5.0)


def test_geometry_bounds_the_lengths_of_the_tip_map():
    # Port offsets and the stroke below MAX_COORDINATE, with a platform
    # position below it too, keep every tip finite.
    for overrides in ({"port_spacing": 1e300}, {"port_spacing": -math.inf},
                      {"q3_max": 1e300}, {"q3_max": math.inf}):
        with pytest.raises(ValueError):
            left_geometry(**overrides)
    big = 0.999e300
    g = left_geometry(port_spacing=big, q3_max=big)
    pose = PlatformPose(-big, big, big, 45.0, 45.0, 45.0)
    for joints in (SphericalJoints(0.0, 0.0, big), SphericalJoints(-60.0, 60.0, big)):
        assert np.isfinite(fk_tip_fixed(pose, joints, g)).all()
    with pytest.raises(UnreachableError):
        fk_tip_fixed(PlatformPose(1e300, 0.0, 0.0, 0.0, 0.0, 0.0), SphericalJoints(0, 0, 1), g)


@pytest.mark.parametrize("field", ["radius", "q3_min", "q3_max", "q1_limit", "q2_limit"])
def test_geometry_rejects_nan(field):
    with pytest.raises(ValueError):
        left_geometry(**{field: math.nan})
