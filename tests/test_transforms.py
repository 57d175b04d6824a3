import math

import numpy as np
from conftest import is_rotation

from rcmkin import transforms as tf
from rcmkin.validation import _euler_xyz_angles, _worse, euler_quaternion_oracle


def test_rot_builders_identity_at_zero():
    for build in (tf.rot_x, tf.rot_y, tf.rot_z):
        assert np.array_equal(build(0.0), np.eye(3))


def test_stacked_builders_equal_the_single_angle_ones(rng):
    angles = rng.uniform(-math.pi, math.pi, (4, 5))
    for build in (tf.rot_x, tf.rot_y, tf.rot_z):
        stacked = build(angles)
        assert stacked.shape == (4, 5, 3, 3)
        for index in np.ndindex(angles.shape):
            assert np.allclose(stacked[index], build(float(angles[index])), rtol=0.0, atol=1e-15)
    stacked = tf.euler_xyz(angles[0], angles[1], angles[2])
    for i in range(5):
        single = tf.euler_xyz(float(angles[0, i]), float(angles[1, i]), float(angles[2, i]))
        assert np.allclose(stacked[i], single, rtol=0.0, atol=1e-15)


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


def test_trans_z_identity_and_translation():
    assert np.array_equal(tf.trans_z(0.0), np.eye(4))
    assert np.array_equal(tf.last_column(tf.trans_z(-120.0)), [0, 0, -120.0])


def test_trans_z_composition():
    assert np.allclose(tf.trans_z(7.5) @ tf.trans_z(-2.5), tf.trans_z(5.0), atol=1e-15)


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
    m = np.eye(4)
    m[:3, :3] = tf.rot_x(1.0)
    m[:3, 3] = [4.0, -5.0, 6.0]
    assert np.array_equal(tf.last_column(m), [4.0, -5.0, 6.0])


def test_is_rotation_rejects_reflection_and_scale():
    reflection = np.diag([-1.0, 1.0, 1.0])
    assert not is_rotation(reflection)
    assert not is_rotation(1.0000001 * np.eye(3))
