"""Differential kinematics: tip-map Jacobians and their time derivative,
the fixed-tip compensation solver, and the closed-form singularity measure.

Writing the tip map as F(X, Q) = f(Q) - X = 0 with inputs
Q = (q1, q2, q3, psi, theta) makes the end-effector Jacobian the constant
A = -I and B = df/dQ, so the velocity relation A Xdot + B Qdot = 0 reads
Xdot = B Qdot. B is expressed in millimetres and radians; degree conversion
happens only at this module's public boundaries.

B and its time derivative B-dot are closed-form products of the tip map's
rotation factors (see ``_chain``): each derivative in an angle inserts that
axis's generator in front of its rotation. The normalized singularity
measure is closed-form too, |sigma| with sigma = -cos q2 cos beta.
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

_MINUS_Z = np.array([0.0, 0.0, -1.0])

# Per-entry factor from (deg, deg, mm, deg, deg) to (rad, rad, mm, rad, rad).
_DEG = math.pi / 180.0
_TO_INTERNAL = np.array([_DEG, _DEG, 1.0, _DEG, _DEG])


@dataclass(frozen=True)
class TaskRates:
    """Tip velocity (mm/s) and acceleration (mm/s^2) in the fixed frame."""

    tip_vel: np.ndarray
    tip_acc: np.ndarray


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

    @property
    def b_q(self) -> np.ndarray:
        """Columns of B over the module joints (q1, q2, q3)."""
        return self.b[:, :3]

    @property
    def b_a(self) -> np.ndarray:
        """Columns of B over the platform angles (psi, theta)."""
        return self.b[:, 3:]


def _xy_partials(left, a: float, b: float, right, order: int) -> dict:
    """Partials d^(i+j)/da^i db^j of left @ rot_x(a) @ rot_y(b) @ right for
    i + j <= order, keyed (i, j); ``left`` None stands for the identity."""
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


def _chain(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry, order: int
) -> tuple[dict, dict]:
    """Partials up to ``order`` of the two rotation factors of the tip map
    f = R (offset + q3 m) + p: the unit insertion direction
    m = rot_y(alpha) rot_x(q1) rot_y(q2) rot_x(beta) (-z) in (q1, q2), and the
    platform rotation R = rot_x(psi) rot_y(theta) rot_z(phi) in (psi, theta)."""
    psi, theta, phi = pose.angles_rad
    m = _xy_partials(
        rot_y(math.radians(geometry.alpha)),
        math.radians(joints.q1),
        math.radians(joints.q2),
        rot_x(math.radians(geometry.beta)) @ _MINUS_Z,
        order,
    )
    return m, _xy_partials(None, psi, theta, rot_z(phi), order)


def _rate(partials: dict, i: int, j: int, w1: float, w2: float):
    """Time derivative of partials[i, j] along the angle rates (w1, w2)."""
    return w1 * partials[i + 1, j] + w2 * partials[i, j + 1]


def signed_measure(joints: SphericalJoints, geometry: SphericalGeometry) -> float:
    """Signed normalized determinant of the joint block, -cos q2 cos beta.

    It is independent of the pose, q1, q3 and alpha, so mirrored modules
    share it, and it vanishes at q2 = +/-90 deg.
    """
    return -math.cos(math.radians(joints.q2)) * math.cos(math.radians(geometry.beta))


def check_nonsingular(sigma: float) -> float:
    """Return |sigma|, raising SingularConfigurationError at or below SIGMA_MIN."""
    measure = abs(sigma)
    if measure <= SIGMA_MIN:
        raise SingularConfigurationError(
            f"normalized joint-block |det| = {measure:.3e} <= {SIGMA_MIN:g}"
        )
    return measure


def jacobians(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> JacobianPair:
    """A and B of the velocity relation at one configuration."""
    check_pose(pose)
    check_joints(joints, geometry)
    m, r = _chain(pose, joints, geometry, 1)
    q3 = joints.q3
    arm = geometry.port.offset_vec + q3 * m[0, 0]
    b = np.empty((3, 5))
    b[:, :3] = r[0, 0] @ np.array([q3 * m[1, 0], q3 * m[0, 1], m[0, 0]]).T
    b[:, 3] = r[1, 0] @ arm
    b[:, 4] = r[0, 1] @ arm
    return JacobianPair(a=-np.eye(3), b=b, sigma=signed_measure(joints, geometry))


def jacobian_rate(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    rates: InputRates,
) -> np.ndarray:
    """Time derivative of B along the current input rates.

    The product rule applied to each column of B: every angle rate inserts
    one more generator in front of its rotation factor.
    """
    w1, w2, v3, w_psi, w_theta = rates.rates_internal()
    m, r = _chain(pose, joints, geometry, 2)
    q3 = joints.q3
    arm = geometry.port.offset_vec + q3 * m[0, 0]
    m_dot = _rate(m, 0, 0, w1, w2)
    arm_dot = v3 * m[0, 0] + q3 * m_dot
    block = np.array([q3 * m[1, 0], q3 * m[0, 1], m[0, 0]]).T
    block_dot = np.array(
        [
            v3 * m[1, 0] + q3 * _rate(m, 1, 0, w1, w2),
            v3 * m[0, 1] + q3 * _rate(m, 0, 1, w1, w2),
            m_dot,
        ]
    ).T
    b_dot = np.empty((3, 5))
    b_dot[:, :3] = _rate(r, 0, 0, w_psi, w_theta) @ block + r[0, 0] @ block_dot
    b_dot[:, 3] = _rate(r, 1, 0, w_psi, w_theta) @ arm + r[1, 0] @ arm_dot
    b_dot[:, 4] = _rate(r, 0, 1, w_psi, w_theta) @ arm + r[0, 1] @ arm_dot
    return b_dot


def singularity_measure(pair: JacobianPair) -> float:
    """Normalized joint-block |det|, |cos q2 cos beta|; zero at a singularity."""
    return abs(pair.sigma)


def compensation_rates(
    pair: JacobianPair, psi_dot: float, theta_dot: float
) -> tuple[float, float, float]:
    """Joint rates that keep the tip stationary under platform angle rates.

    Solves b_q qdot = -b_a (psi_dot, theta_dot) from the velocity relation
    with zero tip velocity. Angle rates in deg/s in and out, q3 in mm/s.
    """
    check_nonsingular(pair.sigma)
    omega = np.radians([psi_dot, theta_dot])
    qdot = np.linalg.solve(pair.b_q, -pair.b_a @ omega)
    return math.degrees(qdot[0]), math.degrees(qdot[1]), float(qdot[2])


def compensation_accels(
    pair: JacobianPair, b_dot: np.ndarray, rates: InputRates
) -> tuple[float, float, float]:
    """Joint accelerations that keep the tip fixed.

    From differentiating the velocity relation with the tip at rest:
    b_q qddot = -b_dot Qdot - b_a (psi_ddot, theta_ddot).
    """
    check_nonsingular(pair.sigma)
    rhs = -(b_dot @ rates.rates_internal())
    rhs -= pair.b_a @ np.radians([rates.psi_ddot, rates.theta_ddot])
    qddot = np.linalg.solve(pair.b_q, rhs)
    return math.degrees(qddot[0]), math.degrees(qddot[1]), float(qddot[2])


def tip_rates(pair: JacobianPair, b_dot: np.ndarray, rates: InputRates) -> TaskRates:
    """Forward velocity relation: tip velocity B Qdot and acceleration
    B Qddot + Bdot Qdot for the given input rates."""
    qdot = rates.rates_internal()
    return TaskRates(
        tip_vel=pair.b @ qdot,
        tip_acc=pair.b @ rates.accels_internal() + b_dot @ qdot,
    )
