"""Differential kinematics: tip-map Jacobians and their time derivative,
the fixed-tip compensation solver, the type-4 planner's kernel, and the
closed-form singularity measure.

Writing the tip map as F(X, Q) = f(Q) - X = 0 with inputs
Q = (q1, q2, q3, psi, theta) makes the end-effector Jacobian the constant
A = -I and B = df/dQ, so the velocity relation A Xdot + B Qdot = 0 reads
Xdot = B Qdot. B is expressed in millimetres and radians; degree conversion
happens only at this module's public boundaries.

B and its time derivative B-dot are closed-form products of the tip map's
rotation factors (``platform_partials``, ``module_partials``): each
derivative in an angle inserts that axis's generator in front of its
rotation. ``jacobians``, ``jacobian_rate`` and ``compensation_*`` evaluate
them on one configuration: they are the paper's public velocity relation,
and the tests check the planners against them. ``tip_grid`` runs the same
products on stacks with the sample index leading, for the joint-space
planners' tip column.

The reorientation planner does not build B. Premultiplying the relation by
R^T leaves every term in the platform frame as a few (n,) columns over a
block of the time grid: ``platform_rotation`` and ``platform_spin`` per
block, ``hold_ik`` for the joints and ``hold_motion`` for the rates,
accelerations and tips, in closed form. The normalized singularity measure is
closed-form too, |sigma| with sigma = -cos q2 cos beta; ``singular_faults``
flags the samples of a grid that ``check_nonsingular`` or
``check_same_sign`` would reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularConfigurationError
from .platform import PlatformPose, check_pose
from .spherical import (
    MIN_TIP_NORM,
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    check_joints,
)
from .transforms import rot_x, rot_y, rot_z

#: Abort threshold on the normalized joint-block determinant.
SIGMA_MIN = 1e-8

# d/da rot_x(a) = _GEN_X @ rot_x(a), and likewise for Y.
_GEN_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_GEN_Y = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

_MINUS_Z = np.array([[0.0], [0.0], [-1.0]])  # a column

# Per-entry factor from (deg, deg, mm, deg, deg) to (rad, rad, mm, rad, rad).
_DEG = math.pi / 180.0
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


def _xy_partials(left, a, b, right, order: int) -> dict:
    """Partials d^(i+j)/da^i db^j of left @ rot_x(a) @ rot_y(b) @ right for
    i + j <= order, keyed (i, j), stacked over the shape of the angle arrays
    a and b (radians); ``left`` None stands for the identity."""
    xs = [rot_x(a)]
    ys = [rot_y(b) @ right]
    for _ in range(order):
        xs.append(_GEN_X @ xs[-1])
        ys.append(_GEN_Y @ ys[-1])
    if left is not None:
        xs = [left @ x for x in xs]
    return {
        (i, j): xs[i] @ ys[j] for i in range(order + 1) for j in range(order + 1 - i)
    }


def platform_partials(psi, theta, phi: float, order: int) -> dict:
    """Partials up to ``order`` of the platform rotation
    R = rot_x(psi) rot_y(theta) rot_z(phi) in (psi, theta), each (..., 3, 3)
    over the shape of psi and theta. Angles in degrees."""
    return _xy_partials(
        None, _DEG * psi, _DEG * theta, rot_z(math.radians(phi)), order
    )


def module_partials(q1, q2, geometry: SphericalGeometry, order: int) -> dict:
    """Partials up to ``order`` of the unit insertion direction
    m = rot_y(alpha) rot_x(q1) rot_y(q2) rot_x(beta) (-z) in (q1, q2), each a
    column (..., 3, 1) over the shape of q1 and q2. Angles in degrees."""
    return _xy_partials(
        rot_y(math.radians(geometry.alpha)),
        _DEG * q1,
        _DEG * q2,
        rot_x(math.radians(geometry.beta)) @ _MINUS_Z,
        order,
    )


def _rate(partials: dict, i: int, j: int, w1, w2):
    """Time derivative of partials[i, j] along the angle rates (w1, w2)."""
    return w1 * partials[i + 1, j] + w2 * partials[i, j + 1]


def _arm(m: dict, q3, geometry: SphericalGeometry):
    """Platform-frame tip arm offset + q3 m, a column."""
    return geometry.port.offset_vec[:, None] + q3 * m[0, 0]


def _joint_block(m: dict, q3):
    """Joint columns [q3 dm/dq1, q3 dm/dq2, m] of B before the rotation R."""
    return np.concatenate([q3 * m[1, 0], q3 * m[0, 1], m[0, 0]], axis=-1)


def _b_matrix(m: dict, r: dict, q3, geometry: SphericalGeometry) -> np.ndarray:
    """B (..., 3, 5) from the order-1 partials; q3 shaped (..., 1, 1)."""
    arm = _arm(m, q3, geometry)
    return np.concatenate(
        [r[0, 0] @ _joint_block(m, q3), r[1, 0] @ arm, r[0, 1] @ arm], axis=-1
    )


def _b_rate(m: dict, r: dict, q3, geometry: SphericalGeometry, rates) -> np.ndarray:
    """B-dot (..., 3, 5) from the order-2 partials along the input rates
    (..., 5) in radians and millimetres per second.

    The product rule applied to each column of B: every angle rate inserts
    one more generator in front of its rotation factor.
    """
    w1, w2, v3, w_psi, w_theta = np.moveaxis(rates[..., None, None], -3, 0)
    arm, block = _arm(m, q3, geometry), _joint_block(m, q3)
    m_dot = _rate(m, 0, 0, w1, w2)
    arm_dot = v3 * m[0, 0] + q3 * m_dot
    block_dot = np.concatenate(
        [
            v3 * m[1, 0] + q3 * _rate(m, 1, 0, w1, w2),
            v3 * m[0, 1] + q3 * _rate(m, 0, 1, w1, w2),
            m_dot,
        ],
        axis=-1,
    )
    return np.concatenate(
        [
            _rate(r, 0, 0, w_psi, w_theta) @ block + r[0, 0] @ block_dot,
            _rate(r, 1, 0, w_psi, w_theta) @ arm + r[1, 0] @ arm_dot,
            _rate(r, 0, 1, w_psi, w_theta) @ arm + r[0, 1] @ arm_dot,
        ],
        axis=-1,
    )


def _joint_solve(b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve b_q x = rhs over the stack (rhs columns (..., 3, 1)); x (..., 3)
    with its angle entries in degrees."""
    return np.linalg.solve(b[..., :3], rhs)[..., 0] * _TO_USER


def _joint_rates(b: np.ndarray, pose_rates) -> np.ndarray:
    """b_q qdot = -b_a (psi_dot, theta_dot); pose rates (..., 2) in deg/s."""
    return _joint_solve(b, -(b[..., 3:] @ np.radians(pose_rates)[..., None]))


def _joint_accels(b: np.ndarray, b_dot: np.ndarray, rates, pose_accels) -> np.ndarray:
    """b_q qddot = -b_dot Qdot - b_a (psi_ddot, theta_ddot); Qdot (..., 5) in
    radians and mm per second, pose accelerations (..., 2) in deg/s^2."""
    rhs = -(b_dot @ rates[..., None])
    rhs -= b[..., 3:] @ np.radians(pose_accels)[..., None]
    return _joint_solve(b, rhs)


def signed_measure(joints: SphericalJoints, geometry: SphericalGeometry):
    """Signed normalized determinant of the joint block, -cos q2 cos beta.

    It is independent of the pose, q1, q3 and alpha, so mirrored modules
    share it, and it vanishes at q2 = +/-90 deg. A joint grid gives an array.
    """
    return -np.cos(_DEG * joints.q2) * math.cos(math.radians(geometry.beta))


def _singular(sigma):
    """check_nonsingular's comparison, for a scalar or a grid; NaN passes."""
    return abs(sigma) <= SIGMA_MIN


def _sign_flipped(previous, sigma):
    """check_same_sign's comparison; a zero or NaN ``previous`` passes."""
    return sigma * previous < 0.0


def check_nonsingular(sigma: float) -> None:
    """Raise SingularConfigurationError when |sigma| is at or below SIGMA_MIN."""
    if _singular(sigma):
        raise SingularConfigurationError(
            f"normalized joint-block |det| = {abs(sigma):.3e} <= {SIGMA_MIN:g}"
        )


def check_same_sign(previous: float | None, sigma: float) -> None:
    """Raise SingularConfigurationError when sigma changed sign since the
    previous sample (None before the first)."""
    if previous is not None and _sign_flipped(previous, sigma):
        raise SingularConfigurationError(
            "joint-block determinant changed sign since the previous "
            "sample; the motion crosses a singularity between samples"
        )


def singular_faults(sigma: np.ndarray, previous: float | None) -> np.ndarray:
    """Mask of the samples of a sigma grid (n,) that check_nonsingular or
    check_same_sign rejects; ``previous`` is the sigma of the sample before
    the grid, or None."""
    before = np.concatenate(([np.nan if previous is None else previous], sigma[:-1]))
    return _singular(sigma) | _sign_flipped(before, sigma)


def jacobians(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> JacobianPair:
    """A and B of the velocity relation at one configuration."""
    check_pose(pose)
    check_joints(joints, geometry)
    m = module_partials(joints.q1, joints.q2, geometry, 1)
    r = platform_partials(pose.psi, pose.theta, pose.phi, 1)
    b = _b_matrix(m, r, joints.q3, geometry)
    return JacobianPair(a=-np.eye(3), b=b, sigma=signed_measure(joints, geometry))


def jacobian_rate(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    rates: InputRates,
) -> np.ndarray:
    """Time derivative of B along the current input rates."""
    m = module_partials(joints.q1, joints.q2, geometry, 2)
    r = platform_partials(pose.psi, pose.theta, pose.phi, 2)
    return _b_rate(m, r, joints.q3, geometry, rates.rates_internal())


# --- the type-4 kernel: the velocity relation in the platform frame ---------
#
# Premultiplied by R^T, the relation with the tip held loses the platform
# rotation: u = R^T (tip - p) = offset + q3 m, u' = -W x u and
# u'' = -W' x u - W x u', with W the platform's angular velocity in its own
# frame. The joint rates solve [q3 m1, q3 m2, m] q' = u', where m1, m2 are
# the partials of m in q1 and q2; the accelerations solve the same system.
# Every vector is a tuple of three (n,) columns over a block of the grid, and
# the module's vectors are taken in the frame after rot_y(alpha).


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _turn_y(v, c: float, s: float):
    """rot_y(angle) v, given cos and sin of the angle."""
    return (c * v[0] + s * v[2], v[1], c * v[2] - s * v[0])


def _alpha_frame(geometry: SphericalGeometry):
    """cos alpha, sin alpha and the port offset in the frame after rot_y(alpha)."""
    ca, sa = math.cos(math.radians(geometry.alpha)), math.sin(math.radians(geometry.alpha))
    return ca, sa, _turn_y(geometry.port.offset, ca, -sa)


def platform_rotation(psi, theta, phi: float):
    """The direction cosines of R = rot_x(psi) rot_y(theta) rot_z(phi) over
    grids of psi and theta (deg), phi held (deg): R's rows, each a tuple of
    three columns, expanded as in ``fk_tip_fixed``."""
    cps, sps = np.cos(_DEG * psi), np.sin(_DEG * psi)
    ct, st = np.cos(_DEG * theta), np.sin(_DEG * theta)
    cph, sph = math.cos(math.radians(phi)), math.sin(math.radians(phi))
    return (
        (ct * cph, -ct * sph, st),
        (cps * sph + sps * st * cph, cps * cph - sps * st * sph, -sps * ct),
        (sps * sph - cps * st * cph, sps * cph + cps * st * sph, cps * ct),
    )


def platform_spin(theta, phi: float, pose_rates: np.ndarray, pose_accels: np.ndarray):
    """The platform's angular velocity W and acceleration W' in its own
    frame (rad/s, rad/s^2) over a theta grid (deg), phi held, from the
    (psi, theta) rates and accelerations (n, 2) in deg/s and deg/s^2.

    W = psi' a + theta' b with a = R^T e_x = (ct cph, -ct sph, st) and
    b = rot_z(phi)^T e_y = (sph, cph, 0); b is fixed, so
    W' = psi'' a + theta'' b + psi' theta' da/dtheta.
    """
    ct, st = np.cos(_DEG * theta), np.sin(_DEG * theta)
    cph, sph = math.cos(math.radians(phi)), math.sin(math.radians(phi))
    w_psi, w_theta = _DEG * pose_rates.T
    e_psi, e_theta = _DEG * pose_accels.T
    a = (ct * cph, -ct * sph, st)
    a_theta = (-st * cph, st * sph, ct)
    w = (w_psi * a[0] + w_theta * sph, w_psi * a[1] + w_theta * cph, w_psi * a[2])
    turn = w_psi * w_theta
    w_dot = (
        e_psi * a[0] + e_theta * sph + turn * a_theta[0],
        e_psi * a[1] + e_theta * cph + turn * a_theta[1],
        e_psi * a[2] + turn * a_theta[2],
    )
    return w, w_dot


def hold_ik(
    rotation, tip_offset: np.ndarray, geometry: SphericalGeometry, branch: IkBranch
) -> tuple[SphericalJoints, np.ndarray]:
    """Unchecked closed-form IK over a block of platform rotations (the rows
    of ``platform_rotation``) for the tip at position + ``tip_offset`` (mm).

    ``ik_full``'s solution without its checks: returns the joint grid
    (deg, mm) and sin q2 before clamping, for ik_faults on the block or
    check_ik on one sample; rejected samples hold arbitrary values.
    """
    d = tip_offset.tolist()
    u = tuple(_dot(d, (rotation[0][j], rotation[1][j], rotation[2][j])) for j in range(3))
    ca, sa, offset = _alpha_frame(geometry)
    vx, vy, vz = (c - o for c, o in zip(_turn_y(u, ca, -sa), offset))
    q3 = np.hypot(np.hypot(vx, vy), vz)  # overflow-safe norm
    scale = -np.maximum(q3, MIN_TIP_NORM)
    wx, wy, wz = vx / scale, vy / scale, vz / scale  # -m
    cb = math.cos(math.radians(geometry.beta))
    sin_q2 = wx / cb
    q2 = np.arcsin(np.clip(sin_q2, -1.0, 1.0))
    if branch is IkBranch.MIRROR:
        q2 = math.pi - q2
        q2 = np.where(q2 > math.pi, q2 - 2.0 * math.pi, q2)
    ay = -math.sin(math.radians(geometry.beta))
    az = np.cos(q2) * cb
    q1 = np.where(
        np.hypot(ay, az) < 1e-15,
        0.0,  # tip along the q1 axis; q1 is free, pick zero
        np.arctan2(ay * wz - az * wy, ay * wy + az * wz),
    )
    return SphericalJoints(np.degrees(q1), np.degrees(q2), q3), sin_q2


def hold_motion(
    rotation,
    spin,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    position: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint rates, joint accelerations and fixed-frame tips (n, 3) over a
    block whose joints hold the tip: what ``compensation_rates``,
    ``compensation_accels`` and ``fk_tip_fixed`` give on every sample.

    ``rotation`` and ``spin`` are the block's ``platform_rotation`` and
    ``platform_spin``. Every sample must already have passed the singularity
    guard. The system [q3 m1, q3 m2, m] has determinant q3^2 sigma, and m is
    a unit vector normal to m1 and m2, so Cramer's rule reads q3' = m . r,
    q1' = r . (m2 x m) / (q3 sigma) and q2' = r . (m x m1) / (q3 sigma).
    """
    cb, sb = math.cos(math.radians(geometry.beta)), math.sin(math.radians(geometry.beta))
    q1, q2, q3 = _DEG * joints.q1, _DEG * joints.q2, joints.q3
    c1, s1, c2, s2 = np.cos(q1), np.sin(q1), np.cos(q2), np.sin(q2)
    # m = rot_x(q1) rot_y(q2) rot_x(beta) (-z) and its partials in (q1, q2).
    m = (-s2 * cb, c1 * sb + s1 * c2 * cb, s1 * sb - c1 * c2 * cb)
    m1 = (0.0, -m[2], m[1])
    m2 = (-c2 * cb, -s1 * s2 * cb, c1 * s2 * cb)
    m11 = (0.0, -m[1], -m[2])
    m12 = (0.0, -m2[2], m2[1])
    m22 = (-m[0], sb * c1 - m[1], sb * s1 - m[2])
    ca, sa, offset = _alpha_frame(geometry)
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

    arm = _turn_y(arm, ca, sa)
    tip = [_dot(row, arm) + p for row, p in zip(rotation, position.tolist())]
    return (
        np.column_stack((r1, r2, r3)) * _TO_USER,
        np.column_stack((a1, a2, a3)) * _TO_USER,
        np.column_stack(tip),
    )


def tip_grid(
    r: dict, m: dict, q3: np.ndarray, geometry: SphericalGeometry, position: np.ndarray
) -> np.ndarray:
    """Fixed-frame tips (n, 3) of a block, R (offset + q3 m) + p, from the
    partials' leading terms; q3 (n,)."""
    return (r[0, 0] @ _arm(m, q3[:, None, None], geometry))[..., 0] + position


def compensation_rates(
    pair: JacobianPair, psi_dot: float, theta_dot: float
) -> tuple[float, float, float]:
    """Joint rates that keep the tip stationary under platform angle rates.

    Solves b_q qdot = -b_a (psi_dot, theta_dot) from the velocity relation
    with zero tip velocity. Angle rates in deg/s in and out, q3 in mm/s.
    """
    check_nonsingular(pair.sigma)
    return tuple(_joint_rates(pair.b, np.array([psi_dot, theta_dot])).tolist())


def compensation_accels(
    pair: JacobianPair, b_dot: np.ndarray, rates: InputRates
) -> tuple[float, float, float]:
    """Joint accelerations that keep the tip fixed.

    From differentiating the velocity relation with the tip at rest:
    b_q qddot = -b_dot Qdot - b_a (psi_ddot, theta_ddot).
    """
    check_nonsingular(pair.sigma)
    pose_accels = np.array([rates.psi_ddot, rates.theta_ddot])
    return tuple(_joint_accels(pair.b, b_dot, rates.rates_internal(), pose_accels).tolist())
