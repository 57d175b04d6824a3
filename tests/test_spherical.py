import math

import numpy as np
import pytest

from rcmkin import (
    DegenerateInputError,
    IkBranch,
    JointLimitError,
    PlatformPose,
    SphericalJoints,
    UnreachableError,
    fk_tip_fixed,
    fk_tip_fixed_chain,
    ik_full,
    ik_tip_platform,
    left_geometry,
    mirrored,
    module_matrix,
    rcm_fixed,
    tip_in_platform,
)

# Joints reaching the demo tip (50, -50, -620) from the demo pose, frozen
# from an independent damped least-squares solve of the tip residual.
DEMO_JOINTS = SphericalJoints(3.088924333053812, -38.869484058851796, 147.76873209766495)


def _random_setup(rng, swing=80.0):
    pose = PlatformPose(
        rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-700, -300),
        rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(-180, 180),
    )
    g = left_geometry(alpha=rng.uniform(0, 30), beta=rng.uniform(0, 30),
                      port_spacing=rng.uniform(5, 20))
    joints = SphericalJoints(
        rng.uniform(-swing, swing), rng.uniform(-swing, swing), rng.uniform(20, 280)
    )
    return pose, g, joints


def test_module_matrix_straight_chain():
    g = left_geometry(alpha=0.0, beta=0.0)
    m = module_matrix(SphericalJoints(0, 0, 100), g)
    assert np.allclose(m[:3, :3], np.eye(3), atol=1e-15)
    assert np.allclose(m[:3, 3], [0, 0, -100], atol=1e-15)


def test_module_matrix_tilted_chain_symbolic_expansion():
    # At q1 = q2 = 0 the tip reduces to rot_y(alpha) rot_x(beta) (0, 0, -q3).
    g = left_geometry(alpha=10.0, beta=10.0)
    tip = tip_in_platform(SphericalJoints(0, 0, 100), g)
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
        assert np.allclose(tip_in_platform(joints, g), [0, 0, 0], atol=1e-15)


def test_tip_norm_equals_insertion(rng):
    for _ in range(1000):
        _, g, joints = _random_setup(rng)
        norm = np.linalg.norm(tip_in_platform(joints, g))
        assert norm == pytest.approx(joints.q3, rel=1e-12)


def test_tip_linear_in_insertion():
    g = left_geometry()
    base = tip_in_platform(SphericalJoints(25, -40, 100), g)
    doubled = tip_in_platform(SphericalJoints(25, -40, 200), g)
    assert np.allclose(doubled, 2.0 * base, atol=1e-12)


def test_joint_limit_errors():
    g = left_geometry()
    with pytest.raises(JointLimitError):
        module_matrix(SphericalJoints(95, 0, 100), g)
    with pytest.raises(JointLimitError):
        module_matrix(SphericalJoints(0, 0, 500), g)
    for nan_joints in ((math.nan, 0, 100), (0, math.nan, 100), (0, 0, math.nan)):
        with pytest.raises(JointLimitError):
            module_matrix(SphericalJoints(*nan_joints), g)


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
        worst = max(worst, diff.max())
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
    v = tip_in_platform(SphericalJoints(0, 0, 100), g)
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
        worst_joint = max(
            worst_joint,
            abs(solved.q1 - joints.q1),
            abs(solved.q2 - joints.q2),
            abs(solved.q3 - joints.q3),
        )
        worst = max(worst, np.abs(fk_tip_fixed(pose, solved, g) - tip).max())
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
        v = tip_in_platform(joints, g)
        solved = ik_tip_platform(v, g, IkBranch.MIRROR)
        assert np.allclose(tip_in_platform(solved, g), v, atol=1e-9)
        assert solved.q2 == pytest.approx(joints.q2, abs=1e-9)


def test_rcm_invariance_zero_insertion_matches_port(demo_pose, rng):
    g = left_geometry()
    for _ in range(100):
        joints = SphericalJoints(rng.uniform(-80, 80), rng.uniform(-80, 80), 0.0)
        tip = fk_tip_fixed(demo_pose, joints, g)
        assert np.allclose(tip, rcm_fixed(demo_pose, g.port), atol=1e-12)


def test_mirrored_geometry_reflects_tip(rng):
    left = left_geometry(alpha=10.0, beta=10.0)
    right = mirrored(left)
    assert right.alpha == -10.0
    assert right.port.offset == (10.0, 0.0, 0.0)
    for _ in range(200):
        q1, q2 = rng.uniform(-80, 80, 2)
        q3 = rng.uniform(20, 280)
        tip_l = tip_in_platform(SphericalJoints(q1, q2, q3), left)
        tip_r = tip_in_platform(SphericalJoints(q1, -q2, q3), right)
        assert np.allclose(tip_r, tip_l * [-1, 1, 1], atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        left_geometry(beta=-1.0)
    with pytest.raises(ValueError):
        left_geometry(alpha=90.0)
    with pytest.raises(ValueError):
        left_geometry(q3_min=10.0, q3_max=5.0)


@pytest.mark.parametrize("field", ["radius", "q3_min", "q3_max", "q1_limit", "q2_limit"])
def test_geometry_rejects_nan(field):
    with pytest.raises(ValueError):
        left_geometry(**{field: math.nan})
