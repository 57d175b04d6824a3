"""Differential kinematics: tip-map Jacobians and their time derivative,
the fixed-tip compensation solver, and the closed-form singularity measure.

Writing the tip map as F(X, Q) = f(Q) - X = 0 with inputs
Q = (q1, q2, q3, psi, theta) makes the end-effector Jacobian the constant
A = -I and B = df/dQ, so the velocity relation A Xdot + B Qdot = 0 reads
Xdot = B Qdot. B is expressed in millimetres and radians; degree conversion
happens only at this module's public boundaries.

B and its time derivative B-dot are closed-form products of the tip map's
rotation factors (``platform_partials``, ``module_partials``): each
derivative in an angle inserts that axis's generator in front of its
rotation. The kernels work on stacks with the sample index leading: the
planners call ``compensation_grid`` and ``tip_grid`` on a block of the time
grid, and ``jacobians``, ``jacobian_rate`` and ``compensation_*`` run the
same kernels on one configuration. The normalized singularity measure is
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
from .spherical import SphericalGeometry, SphericalJoints, check_joints
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


def compensation_grid(
    r: dict,
    m: dict,
    q3: np.ndarray,
    geometry: SphericalGeometry,
    pose_rates: np.ndarray,
    pose_accels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint rates and accelerations (n, 3) that hold the tip over a block:
    ``compensation_rates`` and ``compensation_accels`` on every sample.

    ``r`` and ``m`` are the block's order-2 partials, q3 (n,) its insertion
    depths, pose rates and accelerations (n, 2) in deg/s and deg/s^2. Every
    sample must already have passed the singularity guard.
    """
    q3 = q3[:, None, None]
    b = _b_matrix(m, r, q3, geometry)
    qd = _joint_rates(b, pose_rates)
    rates = _TO_INTERNAL * np.concatenate([qd, pose_rates], axis=-1)
    b_dot = _b_rate(m, r, q3, geometry, rates)
    return qd, _joint_accels(b, b_dot, rates, pose_accels)


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
