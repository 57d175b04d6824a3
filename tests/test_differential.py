import math

import numpy as np
import pytest

from rcmkin import (
    SIGMA_MIN,
    InputRates,
    PlatformPose,
    SingularConfigurationError,
    SphericalJoints,
    compensation_accels,
    compensation_rates,
    fk_tip_fixed,
    ik_full,
    jacobian_rate,
    jacobians,
    left_geometry,
    mirrored,
)
from rcmkin.differential import singular_guards
from rcmkin.errors import raise_first, rejected
from rcmkin.validation import (
    _random_geometry,
    _random_joints,
    _random_pose,
    _worse,
    finite_difference_b,
)


def _random_case(rng):
    return _random_pose(rng), _random_geometry(rng), _random_joints(rng)


def test_a_is_negative_identity(demo_pose, demo_geometry):
    pair = jacobians(demo_pose, SphericalJoints(5, -30, 150), demo_geometry)
    assert np.array_equal(pair.a, -np.eye(3))
    assert pair.b.shape == (3, 5)


def test_insertion_column_trivial_case():
    pose = PlatformPose(0, 0, 0, 0, 0, 0)
    g = left_geometry(alpha=0.0, beta=0.0)
    pair = jacobians(pose, SphericalJoints(0, 0, 100), g)
    assert np.allclose(pair.b[:, 2], [0, 0, -1], atol=1e-15)


def test_insertion_column_is_unit_tip_direction(rng):
    for _ in range(200):
        pose, g, joints = _random_case(rng)
        pair = jacobians(pose, joints, g)
        tip_dir = fk_tip_fixed(pose, joints, g)
        rcm_dir = fk_tip_fixed(pose, SphericalJoints(joints.q1, joints.q2, 0.0), g)
        unit = (tip_dir - rcm_dir) / joints.q3
        assert np.allclose(pair.b[:, 2], unit, atol=1e-12)


def test_analytic_b_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(1000):
        pose, g, joints = _random_case(rng)
        analytic = jacobians(pose, joints, g).b
        numeric = finite_difference_b(pose, joints, g)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = _worse(worst, float(rel.max()))
    assert worst <= 1e-6


def test_compensation_zero_rates(demo_pose, demo_geometry, demo_tip):
    joints = ik_full(demo_pose, demo_tip, demo_geometry)
    pair = jacobians(demo_pose, joints, demo_geometry)
    assert compensation_rates(pair, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_compensation_rates_linear(demo_pose, demo_geometry, demo_tip):
    joints = ik_full(demo_pose, demo_tip, demo_geometry)
    pair = jacobians(demo_pose, joints, demo_geometry)
    one = np.array(compensation_rates(pair, 3.0, -2.0))
    scaled = np.array(compensation_rates(pair, 7.5 * 3.0, 7.5 * -2.0))
    assert np.allclose(scaled, 7.5 * one, rtol=1e-12)


def test_compensation_rates_match_ik_trajectory_derivative(
    demo_pose, demo_geometry, demo_tip
):
    # Differentiate the exact per-sample IK along a smooth pose path.
    def pose_at(t):
        return PlatformPose(
            demo_pose.x, demo_pose.y, demo_pose.z,
            demo_pose.psi + 15.0 * (t / 4.5) ** 2,
            demo_pose.theta + 25.0 * math.sin(t / 4.5 * math.pi / 2),
            demo_pose.phi,
        )

    def joints_at(t):
        j = ik_full(pose_at(t), demo_tip, demo_geometry)
        return np.array([j.q1, j.q2, j.q3])

    t0, h = 2.25, 1e-4
    numeric = (joints_at(t0 + h) - joints_at(t0 - h)) / (2 * h)
    psi_dot = 15.0 * 2 * t0 / 4.5**2
    theta_dot = 25.0 * math.cos(t0 / 4.5 * math.pi / 2) * math.pi / 9.0
    joints = ik_full(pose_at(t0), demo_tip, demo_geometry)
    pair = jacobians(pose_at(t0), joints, demo_geometry)
    analytic = compensation_rates(pair, psi_dot, theta_dot)
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_compensated_tip_velocity_vanishes(rng):
    for _ in range(100):
        pose, g, joints = _random_case(rng)
        pair = jacobians(pose, joints, g)
        if abs(pair.sigma) < 1e-3:
            continue
        psi_dot, theta_dot = rng.uniform(-10, 10, 2)
        qd = compensation_rates(pair, psi_dot, theta_dot)
        rates = InputRates(qd[0], qd[1], qd[2], psi_dot, theta_dot)
        speed = np.linalg.norm(pair.b @ rates.rates_internal())
        assert speed <= 1e-9


def test_compensation_accels_zero_case(demo_pose, demo_geometry, demo_tip):
    joints = ik_full(demo_pose, demo_tip, demo_geometry)
    pair = jacobians(demo_pose, joints, demo_geometry)
    rates = InputRates(0, 0, 0, 0, 0)
    b_dot = jacobian_rate(demo_pose, joints, demo_geometry, rates)
    assert np.array_equal(b_dot, np.zeros((3, 5)))
    assert compensation_accels(pair, b_dot, rates) == (0.0, 0.0, 0.0)


def test_compensation_accels_match_second_difference(
    demo_pose, demo_geometry, demo_tip, demo_limits
):
    # Cruise phase of the demo reorientation: constant profile rates.
    from rcmkin import plan_type4

    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.001,
                      [(demo_geometry, demo_tip)])
    track = plan.instruments[0]
    # t = 2.1 s: theta cruises and psi ramps, away from any profile kink.
    mid = int(round(2.1 / 0.001))
    h = plan.time[mid + 1] - plan.time[mid]
    second = (track.joints[mid + 1] - 2 * track.joints[mid] + track.joints[mid - 1]) / h**2
    assert np.allclose(track.accels[mid], second, atol=1e-4)


def test_acceleration_residual_direct_substitution(rng):
    # A xddot + Adot xdot + B qddot + Bdot qdot with the tip at rest.
    for _ in range(50):
        pose, g, joints = _random_case(rng)
        pair = jacobians(pose, joints, g)
        if abs(pair.sigma) < 1e-3:
            continue
        psi_dot, theta_dot = rng.uniform(-10, 10, 2)
        psi_dd, theta_dd = rng.uniform(-5, 5, 2)
        qd = compensation_rates(pair, psi_dot, theta_dot)
        rates = InputRates(qd[0], qd[1], qd[2], psi_dot, theta_dot,
                           psi_ddot=psi_dd, theta_ddot=theta_dd)
        b_dot = jacobian_rate(pose, joints, g, rates)
        qdd = compensation_accels(pair, b_dot, rates)
        full = InputRates(qd[0], qd[1], qd[2], psi_dot, theta_dot,
                          qdd[0], qdd[1], qdd[2], psi_dd, theta_dd)
        residual = pair.b @ full.accels_internal() + b_dot @ full.rates_internal()
        assert np.linalg.norm(residual) <= 1e-8


def test_tip_rates_forward_relation(demo_pose, demo_geometry, demo_tip):
    joints = ik_full(demo_pose, demo_tip, demo_geometry)
    pair = jacobians(demo_pose, joints, demo_geometry)
    rates = InputRates(1.0, -2.0, 3.0, 0.5, -0.25)
    tip_vel = pair.b @ rates.rates_internal()
    # Velocity oracle: finite difference of the tip along the rate direction.
    h = 1e-6
    j_plus = SphericalJoints(joints.q1 + h * rates.q1_dot,
                             joints.q2 + h * rates.q2_dot,
                             joints.q3 + h * rates.q3_dot)
    pose_plus = PlatformPose(demo_pose.x, demo_pose.y, demo_pose.z,
                             demo_pose.psi + h * rates.psi_dot,
                             demo_pose.theta + h * rates.theta_dot,
                             demo_pose.phi)
    j_minus = SphericalJoints(joints.q1 - h * rates.q1_dot,
                              joints.q2 - h * rates.q2_dot,
                              joints.q3 - h * rates.q3_dot)
    pose_minus = PlatformPose(demo_pose.x, demo_pose.y, demo_pose.z,
                              demo_pose.psi - h * rates.psi_dot,
                              demo_pose.theta - h * rates.theta_dot,
                              demo_pose.phi)
    numeric = (fk_tip_fixed(pose_plus, j_plus, demo_geometry)
               - fk_tip_fixed(pose_minus, j_minus, demo_geometry)) / (2 * h)
    assert np.allclose(tip_vel, numeric, atol=1e-6)


def test_singularity_measure_analytic_oracle(rng):
    # sigma is the determinant of the joint block of B with its two angle
    # columns divided by q3: computed here from B itself, not the closed form.
    for _ in range(300):
        pose, g, joints = _random_case(rng)
        pair = jacobians(pose, joints, g)
        oracle = np.linalg.det(pair.b[:, :3]) / joints.q3**2
        assert pair.sigma == pytest.approx(oracle, abs=1e-12)


def test_singularity_measure_vanishes_at_q2_90(demo_pose):
    g = left_geometry(q2_limit=95.0)
    measure = abs(jacobians(demo_pose, SphericalJoints(10, 90, 150), g).sigma)
    assert measure <= 1e-12


def test_singularity_measure_mirror_symmetric(demo_pose, rng):
    left = left_geometry(alpha=10.0, beta=10.0)
    right = mirrored(left)
    for _ in range(100):
        q1, q2 = rng.uniform(-80, 80, 2)
        q3 = rng.uniform(20, 280)
        m_left = abs(jacobians(demo_pose, SphericalJoints(q1, q2, q3), left).sigma)
        m_right = abs(jacobians(demo_pose, SphericalJoints(q1, -q2, q3), right).sigma)
        assert m_left == pytest.approx(m_right, abs=1e-12)


def test_compensation_raises_near_singularity(demo_pose):
    g = left_geometry(q2_limit=95.0)
    joints = SphericalJoints(10.0, 90.0 - 1e-7, 150.0)
    pair = jacobians(demo_pose, joints, g)
    assert abs(pair.sigma) < 1e-8
    with pytest.raises(SingularConfigurationError):
        compensation_rates(pair, 1.0, 1.0)


def test_determinant_sweep_decays_toward_singularity(demo_pose):
    g = left_geometry(q2_limit=95.0)
    measures = [
        abs(jacobians(demo_pose, SphericalJoints(10, q2, 150), g).sigma)
        for q2 in (0.0, 30.0, 60.0, 85.0, 89.9, 90.0)
    ]
    assert all(a > b for a, b in zip(measures, measures[1:]))
    assert measures[-1] <= 1e-12


_SINGULAR = "normalized joint-block |det| = 1.000e-08 <= 1e-08"
_FLIPPED = ("joint-block determinant changed sign since the previous sample; "
            "the motion crosses a singularity between samples")


@pytest.mark.parametrize(
    "previous, sigma, error",
    [
        (None, SIGMA_MIN, _SINGULAR),
        (None, -SIGMA_MIN, _SINGULAR),
        (None, math.nextafter(SIGMA_MIN, 1.0), None),
        (None, -math.nextafter(SIGMA_MIN, 1.0), None),
        (0.5, -0.5, _FLIPPED),
        (-0.5, 0.5, _FLIPPED),
        (0.0, -0.5, None),
        (-0.5, -0.5, None),
        # NaN trips neither comparison.
        (None, math.nan, None),
        (0.5, math.nan, None),
    ],
)
def test_singularity_checks_and_singular_faults_agree_at_the_edges(previous, sigma, error):
    before = math.nan if previous is None else previous
    assert rejected(singular_guards(np.array([sigma]), before)).tolist() == [error is not None]
    if error is None:
        raise_first(singular_guards(sigma, before))
    else:
        with pytest.raises(SingularConfigurationError) as err:
            raise_first(singular_guards(sigma, before))
        assert str(err.value) == error
