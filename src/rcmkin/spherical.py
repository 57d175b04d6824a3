"""Forward and inverse kinematics of one spherical RCM instrument module.

The module is a Y-X-Y-X rotation stack (fixed tilt alpha, active q1, active
q2, fixed tilt beta) followed by tool insertion along the local -Z axis by
q3. All rotation axes meet at the entry port, so q3 = 0 leaves the tip at
the remote center regardless of q1 and q2.

Two forward-kinematics routes are provided on purpose: ``fk_tip_fixed``
evaluates the scalar direction-cosine expansion of the tip map, while
``fk_tip_fixed_chain`` composes the homogeneous transforms. They must agree
to floating-point level and are cross-checked in the test suite.

The closed-form IK has a scalar body (``ik_tip_platform``, ``ik_full``) and
an array form over a block of platform rotations (``ik_grid``), which the
planners use. Its checks come in two forms with the same comparisons:
``check_ik`` raises for one solved sample, ``ik_faults`` flags the samples
of a grid that ``check_ik`` would reject.

Interface units are degrees and millimetres; radians appear only internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, JointLimitError, UnreachableError
from .platform import (
    DEFAULT_PORT_SPACING,
    PlatformPose,
    PortSide,
    RcmPort,
    check_pose,
    left_port,
    platform_matrix,
)
from .transforms import euler_xyz, last_column, rot_x, rot_y, trans_z, vec3

#: Relative slack on |sin q2| <= cos(beta) before a tip is called unreachable.
REACH_TOL = 1e-12

#: Below this tip-vector norm (mm) the insertion direction is undefined.
MIN_TIP_NORM = 1e-9

#: Bound (mm) on the magnitude of tip and platform coordinates given to
#: ``ik_full``; below it no step of the IK can overflow.
MAX_COORDINATE = 1e300


class IkBranch(Enum):
    """Arcsine branch for q2: PRINCIPAL keeps q2 in [-90, 90] deg, MIRROR
    takes the supplementary solution."""

    PRINCIPAL = "principal"
    MIRROR = "mirror"


@dataclass(frozen=True)
class SphericalGeometry:
    """Fixed geometry of one instrument module.

    alpha/beta are the outer/inner tilt angles of the rotation stack in
    degrees (alpha changes sign on the mirrored module). ``radius`` is the
    physical sphere radius of the linkage; it bounds the hardware envelope
    but does not enter the tip map. q1/q2 travels are symmetric about zero.
    """

    port: RcmPort
    alpha: float = 10.0
    beta: float = 10.0
    radius: float = 110.0
    q3_min: float = 0.0
    q3_max: float = 300.0
    q1_limit: float = 90.0
    q2_limit: float = 90.0

    def __post_init__(self):
        if not abs(self.alpha) < 90.0:
            raise ValueError("alpha magnitude must be below 90 deg")
        if not 0.0 <= self.beta < 90.0:
            raise ValueError("beta must lie in [0, 90) deg")
        # Written so that NaN fails every test.
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not self.q3_min >= 0.0:
            raise ValueError("q3_min must be non-negative")
        if not self.q3_max > self.q3_min:
            raise ValueError("q3_max must exceed q3_min")
        if not (self.q1_limit > 0.0 and self.q2_limit > 0.0):
            raise ValueError("joint travel limits must be positive")


@dataclass(frozen=True)
class SphericalJoints:
    """Active joint values: q1, q2 in degrees, q3 insertion depth in mm.

    The grid kernels fill the fields with arrays of one shape, one entry per
    sample of the time grid.
    """

    q1: float
    q2: float
    q3: float


def left_geometry(
    alpha: float = 10.0,
    beta: float = 10.0,
    port_spacing: float = DEFAULT_PORT_SPACING,
    **overrides,
) -> SphericalGeometry:
    """Geometry of the left module with its port at -spacing on X'."""
    return SphericalGeometry(port=left_port(port_spacing), alpha=alpha, beta=beta, **overrides)


def right_geometry(
    alpha: float = 10.0,
    beta: float = 10.0,
    port_spacing: float = DEFAULT_PORT_SPACING,
    **overrides,
) -> SphericalGeometry:
    """Geometry of the right module, mirrored from the left-handed values."""
    return mirrored(left_geometry(alpha, beta, port_spacing, **overrides))


def mirrored(geometry: SphericalGeometry, negate_alpha: bool = True) -> SphericalGeometry:
    """Opposite-hand twin of a module: the port X offset changes sign, and by
    default so does alpha (the platform is symmetric about its Y'Z' plane)."""
    ox, oy, oz = geometry.port.offset
    side = {PortSide.LEFT: PortSide.RIGHT, PortSide.RIGHT: PortSide.LEFT}.get(
        geometry.port.side, geometry.port.side
    )
    port = RcmPort((-ox, oy, oz), side)
    alpha = -geometry.alpha if negate_alpha else geometry.alpha
    return replace(geometry, port=port, alpha=alpha)


def check_joints(joints: SphericalJoints, geometry: SphericalGeometry) -> None:
    """Raise JointLimitError naming the first joint outside its travel; NaN
    lies outside every travel."""
    if not abs(joints.q1) <= geometry.q1_limit:
        raise JointLimitError(
            f"q1 = {joints.q1:.6g} deg exceeds +/-{geometry.q1_limit:g} deg"
        )
    if not abs(joints.q2) <= geometry.q2_limit:
        raise JointLimitError(
            f"q2 = {joints.q2:.6g} deg exceeds +/-{geometry.q2_limit:g} deg"
        )
    if not geometry.q3_min <= joints.q3 <= geometry.q3_max:
        raise JointLimitError(
            f"q3 = {joints.q3:.6g} mm outside [{geometry.q3_min:g}, {geometry.q3_max:g}] mm"
        )


def joint_faults(joints: SphericalJoints, geometry: SphericalGeometry) -> np.ndarray:
    """Mask of the samples of a joint grid that check_joints rejects (the same
    comparisons, so NaN is flagged too)."""
    return (
        ~(np.abs(joints.q1) <= geometry.q1_limit)
        | ~(np.abs(joints.q2) <= geometry.q2_limit)
        | ~((geometry.q3_min <= joints.q3) & (joints.q3 <= geometry.q3_max))
    )


def module_matrix(joints: SphericalJoints, geometry: SphericalGeometry) -> np.ndarray:
    """Homogeneous transform of the instrument tip in the module frame:
    rot_y(alpha) . rot_x(q1) . rot_y(q2) . rot_x(beta) . trans_z(-q3)."""
    check_joints(joints, geometry)
    rotation = (
        rot_y(math.radians(geometry.alpha))
        @ rot_x(math.radians(joints.q1))
        @ rot_y(math.radians(joints.q2))
        @ rot_x(math.radians(geometry.beta))
    )
    m = np.eye(4)
    m[:3, :3] = rotation
    return m @ trans_z(-joints.q3)


def tip_in_platform(joints: SphericalJoints, geometry: SphericalGeometry) -> np.ndarray:
    """Tip position in the module frame; its norm equals q3."""
    return last_column(module_matrix(joints, geometry))


def _tip_components(joints: SphericalJoints, geometry: SphericalGeometry) -> tuple[float, float, float]:
    # Scalar closed form of tip_in_platform, used by the expansion-path FK.
    ca, sa = math.cos(math.radians(geometry.alpha)), math.sin(math.radians(geometry.alpha))
    cb, sb = math.cos(math.radians(geometry.beta)), math.sin(math.radians(geometry.beta))
    c1, s1 = math.cos(math.radians(joints.q1)), math.sin(math.radians(joints.q1))
    c2, s2 = math.cos(math.radians(joints.q2)), math.sin(math.radians(joints.q2))
    swing = s1 * sb - c1 * cb * c2
    return (
        joints.q3 * (-ca * cb * s2 + sa * swing),
        joints.q3 * (c1 * sb + s1 * cb * c2),
        joints.q3 * (sa * cb * s2 + ca * swing),
    )


def fk_tip_fixed(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> np.ndarray:
    """Instrument tip in the fixed frame (scalar direction-cosine expansion)."""
    check_pose(pose)
    check_joints(joints, geometry)
    psi, theta, phi = pose.angles_rad
    cps, sps = math.cos(psi), math.sin(psi)
    ct, st = math.cos(theta), math.sin(theta)
    cph, sph = math.cos(phi), math.sin(phi)
    r11, r12, r13 = ct * cph, -ct * sph, st
    r21 = cps * sph + sps * st * cph
    r22 = cps * cph - sps * st * sph
    r23 = -sps * ct
    r31 = sps * sph - cps * st * cph
    r32 = sps * cph + cps * st * sph
    r33 = cps * ct
    xl, yl, zl = _tip_components(joints, geometry)
    ox, oy, oz = geometry.port.offset
    ax, ay, az = xl + ox, yl + oy, zl + oz
    return vec3(
        ax * r11 + ay * r12 + az * r13 + pose.x,
        ax * r21 + ay * r22 + az * r23 + pose.y,
        ax * r31 + ay * r32 + az * r33 + pose.z,
    )


def fk_tip_fixed_chain(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> np.ndarray:
    """Instrument tip in the fixed frame via homogeneous-transform composition."""
    port = np.eye(4)
    port[:3, 3] = geometry.port.offset
    return last_column(platform_matrix(pose) @ port @ module_matrix(joints, geometry))


def check_ik(joints: SphericalJoints, sin_q2: float, geometry: SphericalGeometry) -> None:
    """The checks of the closed-form IK on one solved sample, in order: a
    defined insertion direction, a reachable tip, joints within travel."""
    if joints.q3 < MIN_TIP_NORM:
        raise DegenerateInputError(
            f"tip vector norm {joints.q3:.3g} mm is below {MIN_TIP_NORM:g} mm"
        )
    if abs(sin_q2) > 1.0 + REACH_TOL:
        raise UnreachableError(
            f"tip direction outside the insertion cone (|sin q2| = {abs(sin_q2):.9g})"
        )
    check_joints(joints, geometry)


def ik_faults(
    joints: SphericalJoints, sin_q2: np.ndarray, geometry: SphericalGeometry
) -> np.ndarray:
    """Mask of the samples of an ik_grid solution that check_ik rejects."""
    return (
        (joints.q3 < MIN_TIP_NORM)
        | (np.abs(sin_q2) > 1.0 + REACH_TOL)
        | joint_faults(joints, geometry)
    )


def ik_grid(
    rotation: np.ndarray,
    position: np.ndarray,
    tip_fixed,
    geometry: SphericalGeometry,
    branch: IkBranch = IkBranch.PRINCIPAL,
) -> tuple[SphericalJoints, np.ndarray]:
    """Unchecked closed-form IK over stacked platform rotations (n, 3, 3).

    The array form of ``ik_full`` without its checks: returns the joint grid
    and sin q2 before clamping, for ik_faults on the whole grid or check_ik
    on one sample; rejected samples hold arbitrary values.
    """
    d = np.asarray(tip_fixed, dtype=float) - position
    v = np.swapaxes(rotation, -1, -2) @ d - geometry.port.offset_vec
    q3 = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])  # overflow-safe norm
    w = (v / -np.maximum(q3, MIN_TIP_NORM)[:, None]) @ rot_y(
        -math.radians(geometry.alpha)
    ).T
    cb = math.cos(math.radians(geometry.beta))
    sin_q2 = w[:, 0] / cb
    q2 = np.arcsin(np.clip(sin_q2, -1.0, 1.0))
    if branch is IkBranch.MIRROR:
        q2 = math.pi - q2
        q2 = np.where(q2 > math.pi, q2 - 2.0 * math.pi, q2)
    ay = -math.sin(math.radians(geometry.beta))
    az = np.cos(q2) * cb
    q1 = np.where(
        np.hypot(ay, az) < 1e-15,
        0.0,  # tip along the q1 axis; q1 is free, pick zero
        np.arctan2(ay * w[:, 2] - az * w[:, 1], ay * w[:, 1] + az * w[:, 2]),
    )
    return SphericalJoints(np.degrees(q1), np.degrees(q2), q3), sin_q2


def ik_tip_platform(
    v, geometry: SphericalGeometry, branch: IkBranch = IkBranch.PRINCIPAL
) -> SphericalJoints:
    """Closed-form joints for a tip vector given in the module frame.

    q3 is the tip distance. Rotating the unit insertion direction back by
    alpha leaves sin(q2) on the X component (scaled by cos beta); the branch
    picks the principal or supplementary arcsine solution. q1 then aligns
    the remaining Y-Z direction by atan2. ``ik_grid`` is the same solution
    over arrays; one sample of it costs twice this scalar body.
    """
    v = np.asarray(v, dtype=float)
    q3 = math.hypot(*v.tolist())  # overflow-safe norm
    w = rot_y(-math.radians(geometry.alpha)) @ (-v / max(q3, MIN_TIP_NORM))
    cb = math.cos(math.radians(geometry.beta))
    sin_q2 = float(w[0]) / cb
    q2 = math.asin(min(1.0, max(-1.0, sin_q2)))
    if branch is IkBranch.MIRROR:
        q2 = math.pi - q2
        if q2 > math.pi:
            q2 -= 2.0 * math.pi
    ay = -math.sin(math.radians(geometry.beta))
    az = math.cos(q2) * cb
    if math.hypot(ay, az) < 1e-15:
        q1 = 0.0  # tip along the q1 axis; q1 is free, pick zero
    else:
        q1 = math.atan2(ay * w[2] - az * w[1], ay * w[1] + az * w[2])
    joints = SphericalJoints(math.degrees(q1), math.degrees(q2), q3)
    check_ik(joints, sin_q2, geometry)
    return joints


def ik_full(
    pose: PlatformPose,
    tip_fixed,
    geometry: SphericalGeometry,
    branch: IkBranch = IkBranch.PRINCIPAL,
) -> SphericalJoints:
    """Joints placing the tip at a fixed-frame target under the given pose.

    Inverts the tip map in two steps: map the target back into the module
    frame, then solve the module chain in closed form.
    """
    check_pose(pose)
    tip = np.asarray(tip_fixed, dtype=float)
    if not all(abs(c) < MAX_COORDINATE for c in (*tip.tolist(), pose.x, pose.y, pose.z)):
        raise UnreachableError(
            f"tip and platform coordinates must be finite and below "
            f"{MAX_COORDINATE:g} mm in magnitude"
        )
    rotation = euler_xyz(*pose.angles_rad)
    v = rotation.T @ (tip - pose.position) - geometry.port.offset_vec
    return ik_tip_platform(v, geometry, branch)
