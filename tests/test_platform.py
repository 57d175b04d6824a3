import math

import numpy as np
import pytest

from rcmkin import (
    GimbalProximityError,
    PlatformPose,
    SphericalJoints,
    fk_tip_fixed,
    left_geometry,
    right_geometry,
)
from rcmkin.platform import GIMBAL_MARGIN_DEG, check_pose, near_gimbal
from rcmkin.spherical import fk_tip_fixed_chain
from rcmkin.transforms import euler_xyz


def _euler_entries(psi, theta, phi):
    # Direction cosines written out independently of the library builders.
    cps, sps = math.cos(psi), math.sin(psi)
    ct, st = math.cos(theta), math.sin(theta)
    cph, sph = math.cos(phi), math.sin(phi)
    return np.array([
        [ct * cph, -ct * sph, st],
        [cps * sph + sps * st * cph, cps * cph - sps * st * sph, -sps * ct],
        [sps * sph - cps * st * cph, sps * cph + cps * st * sph, cps * ct],
    ])


def _port(pose, geometry, q1=0.0, q2=0.0):
    # With no insertion the tip sits at the module's entry port, whatever q1, q2.
    return fk_tip_fixed(pose, SphericalJoints(q1, q2, 0.0), geometry)


def test_identity_pose_gives_identity_matrix():
    pose = PlatformPose(0, 0, 0, 0, 0, 0)
    assert np.array_equal(euler_xyz(*pose.angles_rad), np.eye(3))
    assert np.array_equal(pose.position, [0.0, 0.0, 0.0])


def test_demo_pose_translation_column(demo_pose):
    assert np.array_equal(demo_pose.position, [15.0, 20.0, -500.0])


def test_demo_pose_rotation_block_matches_direction_cosines(demo_pose):
    expected = _euler_entries(*demo_pose.angles_rad)
    assert np.abs(euler_xyz(*demo_pose.angles_rad) - expected).max() < 1e-15


def test_gimbal_guard():
    with pytest.raises(GimbalProximityError):
        check_pose(PlatformPose(0, 0, 0, 0, 89.9999, 0))
    with pytest.raises(GimbalProximityError):
        fk_tip_fixed_chain(PlatformPose(0, 0, 0, 0, 89.9999, 0), SphericalJoints(0, 0, 100),
                           left_geometry())
    # Just inside the margin is fine.
    check_pose(PlatformPose(0, 0, 0, 0, 89.9, 0))


_EDGE = 90.0 - GIMBAL_MARGIN_DEG


@pytest.mark.parametrize(
    "theta, rejected",
    [(_EDGE, True), (-_EDGE, True), (math.nextafter(_EDGE, 0.0), False), (0.0, False)],
)
def test_check_pose_and_near_gimbal_agree_at_the_margin(theta, rejected):
    assert near_gimbal(np.array([theta])).tolist() == [rejected]
    if rejected:
        with pytest.raises(GimbalProximityError):
            check_pose(PlatformPose(0, 0, 0, 0, theta, 0))
    else:
        check_pose(PlatformPose(0, 0, 0, 0, theta, 0))


def test_pose_rejects_non_finite():
    with pytest.raises(ValueError):
        PlatformPose(0, 0, float("nan"), 0, 0, 0)


def test_rcm_identity_pose_left_port():
    pose = PlatformPose(0, 0, 0, 0, 0, 0)
    assert np.array_equal(_port(pose, left_geometry()), [-10.0, 0.0, 0.0])


def test_rcm_pure_translation_pose_right_port():
    pose = PlatformPose(15, 20, -500, 0, 0, 0)
    assert np.array_equal(_port(pose, right_geometry()), [25.0, 20.0, -500.0])


def test_rcm_demo_pose_against_matrix_product_oracle(demo_pose):
    # Independent 4x4 multiply from the explicit direction cosines.
    r = _euler_entries(*demo_pose.angles_rad)
    expected = r @ np.array([-10.0, 0.0, 0.0]) + demo_pose.position
    assert np.allclose(_port(demo_pose, left_geometry()), expected, atol=1e-12)


def test_port_separation_is_rigid(rng):
    left, right = left_geometry(), right_geometry()
    for _ in range(200):
        pose = PlatformPose(*rng.uniform(-100, 100, 3), *rng.uniform(-80, 80, 3))
        q1, q2 = rng.uniform(-80, 80, 2)
        gap = _port(pose, left, q1, q2) - _port(pose, right, q1, q2)
        assert np.linalg.norm(gap) == pytest.approx(20.0, abs=1e-12)
