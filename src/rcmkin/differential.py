"""Differential kinematics: tip-map Jacobians and their time derivative,
the fixed-tip compensation solver, the type-4 planner's kernel, and the
closed-form singularity measure.

Writing the tip map as F(X, Q) = f(Q) - X = 0 with inputs
Q = (q1, q2, q3, psi, theta) makes the end-effector Jacobian the constant
A = -I and B = df/dQ, so the velocity relation A Xdot + B Qdot = 0 reads
Xdot = B Qdot. B is expressed in millimetres and radians; degree conversion
happens only at this module's public boundaries.

The partials of the insertion direction m in (q1, q2) are written once,
elementwise (``_insertion_partials``), and both bodies of the relation read
them. ``_relation`` is the one body of B and B-dot: cross products with the
rotation axes over R's entries (``platform.euler_entries``) and the cosines
and sines its caller takes, as ``spherical.insertion`` and ``solve_ik`` do.
Floats give one configuration and (n,) columns n of them. ``jacobians`` and
``jacobian_rate`` evaluate it on one configuration by the math module; the
oracle suite (``validation``) evaluates it once on its drawn columns. They
are the paper's public velocity relation, the tests check the planners
against them, and ``compensation_*`` stay general 3x3 solves over them.

The reorientation planner does not build B. Premultiplying the relation by
R^T leaves every term in the platform frame as a few (n,) columns over a
block of the time grid: the platform's rotation and spin per block
(``platform.platform_rotation`` and ``platform_spin``), ``spherical.solve_ik``
for the joints and ``hold_motion`` for the rates, accelerations and tips, in
closed form. The normalized singularity measure is closed-form too, |sigma|
with sigma = -cos q2 cos beta. Its guards, the threshold and the sign change
between samples, are written once (``singular_guards``) for one sample and
grid columns alike; ``check_nonsingular`` and the planners' screens read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularConfigurationError, raise_first
from .platform import _DEG, PlatformPose, check_pose
from .spherical import SphericalGeometry, SphericalJoints, check_joints, insertion, tip_position

#: Abort threshold on the normalized joint-block determinant.
SIGMA_MIN = 1e-8

# Per-entry factor from (deg, deg, mm, deg, deg) to (rad, rad, mm, rad, rad).
_TO_INTERNAL = np.array([_DEG, _DEG, 1.0, _DEG, _DEG])

# Per-entry factor from solved (q1, q2, q3) in (rad, rad, mm) to (deg, deg, mm).
_TO_USER = np.array([180.0 / math.pi, 180.0 / math.pi, 1.0])


@dataclass(frozen=True)
class InputRates:
    """Rates and accelerations of the five coupled inputs.

    Angular entries in deg/s and deg/s^2, insertion in mm/s and mm/s^2.
    """

    q1_dot: float
    q2_dot: float
    q3_dot: float
    psi_dot: float
    theta_dot: float
    q1_ddot: float = 0.0
    q2_ddot: float = 0.0
    q3_ddot: float = 0.0
    psi_ddot: float = 0.0
    theta_ddot: float = 0.0

    def rates_internal(self) -> np.ndarray:
        """Input rate vector in radians and millimetres per second."""
        rates = (self.q1_dot, self.q2_dot, self.q3_dot, self.psi_dot, self.theta_dot)
        return _TO_INTERNAL * rates

    def accels_internal(self) -> np.ndarray:
        """Input acceleration vector in radians and millimetres per second^2."""
        accels = (self.q1_ddot, self.q2_ddot, self.q3_ddot, self.psi_ddot, self.theta_ddot)
        return _TO_INTERNAL * accels


@dataclass(frozen=True)
class JacobianPair:
    """The A (3x3) and B (3x5) matrices of the velocity relation.

    ``sigma`` is the signed determinant of the joint block of B with its
    angle columns taken per unit insertion depth (see ``signed_measure``).
    """

    a: np.ndarray
    b: np.ndarray
    sigma: float


# --- the velocity relation as elementwise closed forms ----------------------
#
# Every vector is a tuple of three entries: floats for one configuration,
# (n,) columns for a block of the grid. The module's vectors are taken in the
# frame after rot_y(alpha).


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _mix(*terms):
    """The sum of k v over the pairs (k, v) of ``terms``."""
    return tuple(sum(k * v[i] for k, v in terms) for i in range(3))


def _turn_y(v, c: float, s: float):
    """rot_y(angle) v, given cos and sin of the angle."""
    return (c * v[0] + s * v[2], v[1], c * v[2] - s * v[0])


def _rotate(r, v):
    """R v from R's entries ``r`` (``euler_entries``)."""
    r11, r12, r13, r21, r22, r23, r31, r32, r33 = r
    return (
        r11 * v[0] + r12 * v[1] + r13 * v[2],
        r21 * v[0] + r22 * v[1] + r23 * v[2],
        r31 * v[0] + r32 * v[1] + r33 * v[2],
    )


def _insertion_partials(c1, s1, c2, s2, geometry: SphericalGeometry):
    """m (``spherical.insertion``) and its partials m1, m2, m11, m12 and m22
    in (q1, q2), from the cosines and sines of q1 and q2."""
    _, _, cb, sb = geometry.tilts
    m = insertion(c1, s1, c2, s2, geometry)
    m2 = (-c2 * cb, -s1 * s2 * cb, c1 * s2 * cb)
    return (
        m,
        (0.0, -m[2], m[1]),
        m2,
        (0.0, -m[1], -m[2]),
        (0.0, -m2[2], m2[1]),
        (-m[0], sb * c1 - m[1], sb * s1 - m[2]),
    )


def _relation(r, c1, s1, c2, s2, cps, sps, q3, geometry: SphericalGeometry,
              rates=None) -> np.ndarray:
    """B (3, 5) over (q1, q2, q3, psi, theta) in radians and mm or, given the
    five input rates (radians and mm per second), B-dot, from R's entries
    ``r`` (``euler_entries``), the cosines and sines of q1, q2 and psi, and
    q3 (mm). Floats give one configuration; (...) columns, with a geometry
    whose ``tilts`` and ``offset`` may be columns too, give (3, 5, ...).

    With A = rot_y(alpha) and the arm u = R (offset + q3 A m), B's columns
    are R A (q3 m1), R A (q3 m2), R A m, e_x x u and e x u, where
    e = (0, cos psi, sin psi): dR/dpsi = [e_x]x R and dR/dtheta = [e]x R.
    B-dot is their product rule, d(R v)/dt = w x (R v) + R v' with the
    platform's angular velocity w = psi' e_x + theta' e, so
    u' = w x u + B_q q'; the theta column also turns with
    e' = psi' (0, -sin psi, cos psi).
    """
    ca, sa, _, _ = geometry.tilts
    m, m1, m2, m11, m12, m22 = _insertion_partials(c1, s1, c2, s2, geometry)
    e_x, e = (1.0, 0.0, 0.0), (0.0, cps, sps)

    def fixed(v):  # R A v
        return _rotate(r, _turn_y(v, ca, sa))

    joint = [fixed(_mix((q3, m1))), fixed(_mix((q3, m2))), fixed(m)]
    arm = _mix((1.0, _rotate(r, geometry.offset)), (q3, joint[2]))
    if rates is None:
        return np.array(joint + [_cross(e_x, arm), _cross(e, arm)]).swapaxes(0, 1)
    w1, w2, v3, w_psi, w_theta = rates
    w = (w_psi, w_theta * cps, w_theta * sps)
    inner = (
        _mix((v3, m1), (q3 * w1, m11), (q3 * w2, m12)),
        _mix((v3, m2), (q3 * w1, m12), (q3 * w2, m22)),
        _mix((w1, m1), (w2, m2)),
    )
    arm_dot = _mix((1.0, _cross(w, arm)), (w1, joint[0]), (w2, joint[1]), (v3, joint[2]))
    e_dot = (0.0, -w_psi * sps, w_psi * cps)
    return np.array(
        [_mix((1.0, _cross(w, j)), (1.0, fixed(d))) for j, d in zip(joint, inner)]
        + [_cross(e_x, arm_dot), _mix((1.0, _cross(e_dot, arm)), (1.0, _cross(e, arm_dot)))]
    ).swapaxes(0, 1)


def _configuration(pose: PlatformPose, joints: SphericalJoints) -> tuple:
    """``_relation``'s configuration arguments for one pose and joint set,
    by the math module, so that no numpy call runs per float."""
    q1, q2, psi = _DEG * joints.q1, _DEG * joints.q2, _DEG * pose.psi
    return (pose.rotation_entries, math.cos(q1), math.sin(q1), math.cos(q2), math.sin(q2),
            math.cos(psi), math.sin(psi), joints.q3)


def _joint_solve(b: np.ndarray, rhs: np.ndarray) -> tuple[float, float, float]:
    """Solve b_q x = rhs (3,); x with its angle entries in degrees."""
    return tuple((np.linalg.solve(b[:, :3], rhs) * _TO_USER).tolist())


def signed_measure(joints: SphericalJoints, geometry: SphericalGeometry):
    """Signed normalized determinant of the joint block, -cos q2 cos beta.

    It is independent of the pose, q1, q3 and alpha, so mirrored modules
    share it, and it vanishes at q2 = +/-90 deg. A joint grid gives an array.
    """
    return -np.cos(_DEG * joints.q2) * math.cos(math.radians(geometry.beta))


def singular_guards(sigma, before=math.nan) -> list:
    """The guards (``errors``) of the singularity measure, in order: |sigma|
    at or below SIGMA_MIN, then a sign change since the sample before.
    ``sigma`` is one sample's or an (n,) column; ``before`` is the sigma of
    the sample before it (before the column's first), NaN if none. A zero or
    NaN on either side of a step passes, as does a NaN |sigma|."""
    if isinstance(sigma, np.ndarray):
        before = np.concatenate(([before], sigma[:-1]))
    return [
        (abs(sigma) <= SIGMA_MIN, sigma, lambda s: SingularConfigurationError(
            f"normalized joint-block |det| = {abs(s):.3e} <= {SIGMA_MIN:g}")),
        (sigma * before < 0.0, sigma, lambda _: SingularConfigurationError(
            "joint-block determinant changed sign since the previous sample; "
            "the motion crosses a singularity between samples")),
    ]


def check_nonsingular(sigma: float) -> None:
    """Raise SingularConfigurationError when |sigma| is at or below SIGMA_MIN."""
    raise_first(singular_guards(sigma))


def jacobians(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> JacobianPair:
    """A and B of the velocity relation at one configuration."""
    check_pose(pose)
    check_joints(joints, geometry)
    b = _relation(*_configuration(pose, joints), geometry)
    return JacobianPair(a=-np.eye(3), b=b, sigma=signed_measure(joints, geometry))


def jacobian_rate(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    rates: InputRates,
) -> np.ndarray:
    """Time derivative of B along the current input rates."""
    return _relation(*_configuration(pose, joints), geometry, rates.rates_internal().tolist())


# --- the type-4 kernel: the velocity relation in the platform frame ---------
#
# Premultiplied by R^T, the relation with the tip held loses the platform
# rotation: u = R^T (tip - p) = offset + q3 m, u' = -W x u and
# u'' = -W' x u - W x u', with W the platform's angular velocity in its own
# frame. The joint rates solve [q3 m1, q3 m2, m] q' = u', where m1, m2 are
# the partials of m in q1 and q2; the accelerations solve the same system.


def hold_motion(
    rotation,
    spin,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    position,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint rates, joint accelerations and fixed-frame tips (n, 3) over a
    block whose joints hold the tip: what ``compensation_rates``,
    ``compensation_accels`` and ``fk_tip_fixed`` give on every sample.

    ``rotation`` and ``spin`` are the block's ``platform_rotation`` and
    ``platform_spin``, ``position`` the platform's (three floats, mm). Every
    sample must already have passed the singularity guard. The system
    [q3 m1, q3 m2, m] has determinant q3^2 sigma, and m is a unit vector
    normal to m1 and m2, so Cramer's rule reads q3' = m . r,
    q1' = r . (m2 x m) / (q3 sigma) and q2' = r . (m x m1) / (q3 sigma).
    """
    ca, sa, cb, sb = geometry.tilts
    q1, q2, q3 = _DEG * joints.q1, _DEG * joints.q2, joints.q3
    c1, s1, c2, s2 = np.cos(q1), np.sin(q1), np.cos(q2), np.sin(q2)
    m, m1, m2, m11, m12, m22 = _insertion_partials(c1, s1, c2, s2, geometry)
    offset = _turn_y(geometry.offset, ca, -sa)  # in the frame after rot_y(alpha)
    arm = tuple(o + q3 * c for o, c in zip(offset, m))
    w, w_dot = (_turn_y(v, ca, -sa) for v in spin)

    q3_sigma = q3 * (-c2 * cb)
    across_1 = (sb * m[0], sb * m[1] - c1, sb * m[2] - s1)  # m2 x m
    across_2 = (1.0 - m[0] * m[0], -m[0] * m[1], -m[0] * m[2])  # m x m1

    def solve(r):
        return _dot(r, across_1) / q3_sigma, _dot(r, across_2) / q3_sigma, _dot(r, m)

    u_dot = _cross(arm, w)
    u_ddot = tuple(a + b for a, b in zip(_cross(arm, w_dot), _cross(u_dot, w)))
    r1, r2, r3 = solve(u_dot)
    rhs = tuple(
        u - 2.0 * r3 * (r1 * d1 + r2 * d2) - q3 * (r1 * r1 * a + 2.0 * r1 * r2 * b + r2 * r2 * c)
        for u, d1, d2, a, b, c in zip(u_ddot, m1, m2, m11, m12, m22)
    )
    a1, a2, a3 = solve(rhs)

    return (
        np.column_stack((r1, r2, r3)) * _TO_USER,
        np.column_stack((a1, a2, a3)) * _TO_USER,
        np.column_stack(tip_position(rotation, m, q3, geometry, position)),
    )


def compensation_rates(
    pair: JacobianPair, psi_dot: float, theta_dot: float
) -> tuple[float, float, float]:
    """Joint rates that keep the tip stationary under platform angle rates.

    Solves b_q qdot = -b_a (psi_dot, theta_dot) from the velocity relation
    with zero tip velocity. Angle rates in deg/s in and out, q3 in mm/s.
    """
    check_nonsingular(pair.sigma)
    return _joint_solve(pair.b, -(pair.b[:, 3:] @ np.radians([psi_dot, theta_dot])))


def compensation_accels(
    pair: JacobianPair, b_dot: np.ndarray, rates: InputRates
) -> tuple[float, float, float]:
    """Joint accelerations that keep the tip fixed.

    From differentiating the velocity relation with the tip at rest:
    b_q qddot = -b_dot Qdot - b_a (psi_ddot, theta_ddot).
    """
    check_nonsingular(pair.sigma)
    rhs = -(b_dot @ rates.rates_internal())
    rhs -= pair.b[:, 3:] @ np.radians([rates.psi_ddot, rates.theta_ddot])
    return _joint_solve(pair.b, rhs)
