import math

import numpy as np
from conftest import is_rotation

from rcmkin import PlatformPose, SphericalJoints, left_geometry
from rcmkin import platform as tf
from rcmkin.spherical import fk_tip_fixed_chain
from rcmkin.validation import _euler_xyz_angles, _worse, euler_quaternion_oracle


def test_rot_builders_identity_at_zero():
    for build in (tf.rot_x, tf.rot_y, tf.rot_z):
        assert np.array_equal(build(0.0), np.eye(3))


def test_euler_entries_equal_euler_xyz_for_floats_and_arrays(rng):
    angles = rng.uniform(-math.pi, math.pi, (3, 50))
    cos_sin = [f(a) for a in angles for f in (np.cos, np.sin)]
    grid = np.stack(tf.euler_entries(*cos_sin), axis=-1).reshape(-1, 3, 3)
    for i in range(angles.shape[1]):
        single = tf.euler_xyz(*angles[:, i].tolist())
        floats = [f(a) for a in angles[:, i].tolist() for f in (math.cos, math.sin)]
        assert np.allclose(np.reshape(tf.euler_entries(*floats), (3, 3)), single, rtol=0, atol=1e-15)
        assert np.allclose(grid[i], single, rtol=0, atol=1e-15)


def test_rot_x_right_hand_rule():
    assert np.allclose(tf.rot_x(math.pi / 2) @ [0, 1, 0], [0, 0, 1], atol=1e-15)


def test_rot_y_right_hand_rule():
    assert np.allclose(tf.rot_y(math.pi / 2) @ [0, 0, 1], [1, 0, 0], atol=1e-15)


def test_rot_z_right_hand_rule():
    assert np.allclose(tf.rot_z(math.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_rot_x_angle_addition(rng):
    for a, b in rng.uniform(-math.pi, math.pi, (50, 2)):
        assert np.allclose(tf.rot_x(a) @ tf.rot_x(b), tf.rot_x(a + b), atol=1e-14)


def test_rot_y_transpose_is_negative_angle(rng):
    for a in rng.uniform(-math.pi, math.pi, 50):
        assert np.allclose(tf.rot_y(a).T, tf.rot_y(-a), atol=1e-15)


def test_builders_are_rotations(rng):
    for a in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
        for build in (tf.rot_x, tf.rot_y, tf.rot_z):
            assert is_rotation(build(a))


def test_euler_xyz_is_rotation(rng):
    for psi, theta, phi in rng.uniform(-math.pi, math.pi, (100, 3)):
        assert is_rotation(tf.euler_xyz(psi, theta, phi))


def _straight_chain_tip(q3, pose=PlatformPose(0, 0, -500, 0, 0, 0)):
    # alpha = beta = q1 = q2 = 0: the module rotation is the identity, so the
    # tip is the port moved by the insertion translation alone.
    geometry = left_geometry(alpha=0.0, beta=0.0, q3_min=0.0)
    return fk_tip_fixed_chain(pose, SphericalJoints(0.0, 0.0, q3), geometry)


def test_trans_z_identity_and_translation():
    port = np.array([-10.0, 0.0, -500.0])
    assert np.array_equal(_straight_chain_tip(0.0), port)
    assert np.array_equal(_straight_chain_tip(120.0) - port, [0, 0, -120.0])


def test_trans_z_composition():
    step = _straight_chain_tip(7.5) - _straight_chain_tip(2.5)
    assert np.allclose(step, _straight_chain_tip(5.0) - _straight_chain_tip(0.0), atol=1e-12)


def test_euler_xyz_trivial_cases():
    assert np.array_equal(tf.euler_xyz(0, 0, 0), np.eye(3))
    psi = 0.3
    assert np.allclose(tf.euler_xyz(psi, 0, 0), tf.rot_x(psi), atol=1e-15)


def test_euler_xyz_matches_quaternion_oracle(rng):
    worst = 0.0
    for psi, theta, phi in rng.uniform(-math.pi, math.pi, (1000, 3)):
        diff = np.abs(tf.euler_xyz(psi, theta, phi) - euler_quaternion_oracle(psi, theta, phi))
        worst = _worse(worst, float(diff.max()))
    assert worst < 1e-12


def test_euler_roundtrip_away_from_degeneracy(rng):
    for _ in range(500):
        angles = (
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6),
            rng.uniform(-math.pi, math.pi),
        )
        recovered = _euler_xyz_angles(tf.euler_xyz(*angles))
        assert np.allclose(angles, recovered, atol=1e-9)


def test_last_column_reads_translation():
    # With no insertion the chain's translation column is the port carried
    # by a rotated, shifted platform: R offset + p.
    pose = PlatformPose(4.0, -5.0, 6.0, math.degrees(1.0), 0.0, 0.0)
    expected = tf.rot_x(1.0) @ [-10.0, 0.0, 0.0] + [4.0, -5.0, 6.0]
    assert np.allclose(_straight_chain_tip(0.0, pose), expected, atol=1e-12)


def test_is_rotation_rejects_reflection_and_scale():
    reflection = np.diag([-1.0, 1.0, 1.0])
    assert not is_rotation(reflection)
    assert not is_rotation(1.0000001 * np.eye(3))
