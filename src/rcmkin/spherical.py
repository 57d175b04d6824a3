"""Forward and inverse kinematics of one spherical RCM instrument module.

The module is a Y-X-Y-X rotation stack (fixed tilt alpha, active q1, active
q2, fixed tilt beta) followed by tool insertion along the local -Z axis by
q3. All rotation axes meet at the entry port, so q3 = 0 leaves the tip at
the remote center regardless of q1 and q2.

The tip map and its inverse are written once, as elementwise arithmetic
that runs on floats for one configuration and on (n,) columns for a grid:
``insertion`` (the unit insertion direction m), ``tip_position``
(R (offset + q3 rot_y(alpha) m) + p), ``tip_vector`` (R^T d - offset) and
``solve_ik`` (the closed-form IK on ``IK_SCALAR`` or ``IK_GRID``).
``fk_tip_fixed_chain`` multiplies 4x4 homogeneous transforms of the (3, 3)
builders of ``platform`` instead, in one function; no planner or query runs
it, it is the independent route the oracle suite (``rcmkin validate``)
checks the expansion against.

The IK's checks are written once, as guard lists (``errors``) over one
solved sample or grid columns: ``joint_guards`` for the travels and
``ik_guards`` for the IK. ``check_joints`` and ``check_ik`` raise the first
that a configuration fails; the planners' screens read the same lists.

Interface units are degrees and millimetres; radians appear only internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, JointLimitError, UnreachableError, raise_first
from .platform import (
    DEFAULT_PORT_SPACING,
    MAX_COORDINATE,
    PlatformPose,
    PortSide,
    check_pose,
    euler_xyz,
    rot_x,
    rot_y,
)

#: Relative slack on |sin q2| <= cos(beta) before a tip is called unreachable.
REACH_TOL = 1e-12

#: Relative slack at each joint's travel end, as REACH_TOL gives the reach
#: check: the closed-form IK of a tip placed with a joint at its end returns
#: that joint a few ulps either side of the end.
TRAVEL_TOL = 1e-12

#: Below this tip-vector norm (mm) the insertion direction is undefined.
MIN_TIP_NORM = 1e-9

#: Degrees per radian, as math.degrees and np.degrees multiply by it.
_TO_DEG = 180.0 / math.pi


class IkBranch(Enum):
    """Arcsine branch for q2: PRINCIPAL keeps q2 in [-90, 90] deg, MIRROR
    takes the supplementary solution."""

    PRINCIPAL = "principal"
    MIRROR = "mirror"


@dataclass(frozen=True)
class SphericalGeometry:
    """Fixed geometry of one instrument module.

    ``offset`` is the entry port's position in the platform frame (mm) and
    ``side`` the platform side it sits on. alpha/beta are the outer/inner
    tilt angles of the rotation stack in degrees (alpha changes sign on the
    mirrored module). ``radius`` is the physical sphere radius of the
    linkage; it bounds the hardware envelope but does not enter the tip map.
    q1/q2 travels are symmetric about zero.
    """

    offset: tuple[float, float, float]
    side: PortSide
    alpha: float = 10.0
    beta: float = 10.0
    radius: float = 110.0
    q3_min: float = 0.0
    q3_max: float = 300.0
    q1_limit: float = 90.0
    q2_limit: float = 90.0

    def __post_init__(self):
        object.__setattr__(self, "offset", tuple(float(v) for v in self.offset))
        if not all(abs(v) < MAX_COORDINATE for v in self.offset):
            raise ValueError(
                f"port offset must be finite and below {MAX_COORDINATE:g} mm in magnitude"
            )
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
        if not self.q3_max < MAX_COORDINATE:
            raise ValueError(f"q3_max must be below {MAX_COORDINATE:g} mm")
        if not (self.q1_limit > 0.0 and self.q2_limit > 0.0):
            raise ValueError("joint travel limits must be positive")

    @cached_property
    def tilts(self) -> tuple[float, float, float, float]:
        """cos alpha, sin alpha, cos beta and sin beta."""
        alpha, beta = math.radians(self.alpha), math.radians(self.beta)
        return math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta)

    @cached_property
    def travel(self) -> tuple[float, float, float, float]:
        """The largest |q1| and |q2| and the q3 range, each widened by a
        relative TRAVEL_TOL."""
        hi, lo = 1.0 + TRAVEL_TOL, 1.0 - TRAVEL_TOL
        return self.q1_limit * hi, self.q2_limit * hi, self.q3_min * lo, self.q3_max * hi


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
    return SphericalGeometry(
        (-port_spacing, 0.0, 0.0), PortSide.LEFT, alpha=alpha, beta=beta, **overrides
    )


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
    ox, oy, oz = geometry.offset
    side = PortSide.RIGHT if geometry.side is PortSide.LEFT else PortSide.LEFT
    alpha = -geometry.alpha if negate_alpha else geometry.alpha
    return replace(geometry, offset=(-ox, oy, oz), side=side, alpha=alpha)


def joint_guards(joints: SphericalJoints, geometry: SphericalGeometry) -> list:
    """The guards (``errors``) on q1, q2 and q3 outside their travels, for
    one configuration or grid columns alike. A joint within a relative
    TRAVEL_TOL of a travel end is inside; NaN lies outside every travel."""
    q1_max, q2_max, q3_min, q3_max = geometry.travel
    q1, q2, q3 = joints.q1, joints.q2, joints.q3
    return [
        ((abs(q1) <= q1_max) ^ True, q1, lambda q: JointLimitError(
            f"q1 = {q:.14g} deg exceeds +/-{geometry.q1_limit:.14g} deg")),
        ((abs(q2) <= q2_max) ^ True, q2, lambda q: JointLimitError(
            f"q2 = {q:.14g} deg exceeds +/-{geometry.q2_limit:.14g} deg")),
        (((q3_min <= q3) & (q3 <= q3_max)) ^ True, q3, lambda q: JointLimitError(
            f"q3 = {q:.14g} mm outside [{geometry.q3_min:.14g}, {geometry.q3_max:.14g}] mm")),
    ]


def check_joints(joints: SphericalJoints, geometry: SphericalGeometry) -> None:
    """Raise JointLimitError naming the first joint outside its travel."""
    raise_first(joint_guards(joints, geometry))


def insertion(c1, s1, c2, s2, geometry: SphericalGeometry):
    """The unit insertion direction m = rot_x(q1) rot_y(q2) rot_x(beta) (-z),
    in the frame after rot_y(alpha), from the cosines and sines of q1 and q2."""
    _, _, cb, sb = geometry.tilts
    return (-s2 * cb, c1 * sb + s1 * c2 * cb, s1 * sb - c1 * c2 * cb)


def tip_position(r, m, q3, geometry: SphericalGeometry, position):
    """The fixed-frame tip R (offset + q3 rot_y(alpha) m) + p, a list of
    three entries, from R's entries ``r`` (``platform.euler_entries``),
    ``insertion``'s m, the insertion depth q3 (mm) and the platform position
    p (three floats, mm)."""
    ca, sa, _, _ = geometry.tilts
    ox, oy, oz = geometry.offset
    mx, my, mz = m
    ax = ox + q3 * (ca * mx + sa * mz)
    ay = oy + q3 * my
    az = oz + q3 * (ca * mz - sa * mx)
    r11, r12, r13, r21, r22, r23, r31, r32, r33 = r
    px, py, pz = position
    return [
        r11 * ax + r12 * ay + r13 * az + px,
        r21 * ax + r22 * ay + r23 * az + py,
        r31 * ax + r32 * ay + r33 * az + pz,
    ]


def fk_tip_fixed(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> np.ndarray:
    """Instrument tip in the fixed frame (scalar direction-cosine expansion)."""
    check_pose(pose)
    check_coordinates(pose.position)
    check_joints(joints, geometry)
    q1, q2 = math.radians(joints.q1), math.radians(joints.q2)
    m = insertion(math.cos(q1), math.sin(q1), math.cos(q2), math.sin(q2), geometry)
    position = (pose.x, pose.y, pose.z)
    return np.array(tip_position(pose.rotation_entries, m, joints.q3, geometry, position))


def fk_tip_fixed_chain(
    pose: PlatformPose, joints: SphericalJoints, geometry: SphericalGeometry
) -> np.ndarray:
    """Instrument tip in the fixed frame via homogeneous-transform composition:
    platform . port . (module . insertion), where the module rotation is
    rot_y(alpha) . rot_x(q1) . rot_y(q2) . rot_x(beta) and the insertion a
    translation by -q3 along Z."""
    check_pose(pose)
    check_joints(joints, geometry)
    platform, port, module, insert = (np.eye(4) for _ in range(4))
    platform[:3, :3] = euler_xyz(*pose.angles_rad)
    platform[:3, 3] = pose.position
    port[:3, 3] = geometry.offset
    module[:3, :3] = (
        rot_y(math.radians(geometry.alpha))
        @ rot_x(math.radians(joints.q1))
        @ rot_y(math.radians(joints.q2))
        @ rot_x(math.radians(geometry.beta))
    )
    insert[2, 3] = -joints.q3
    return (platform @ port @ (module @ insert))[:3, 3]


def _degenerate_error(q3) -> DegenerateInputError:
    return DegenerateInputError(f"tip vector norm {q3:.3g} mm is below {MIN_TIP_NORM:g} mm")


def _unreachable_error(s) -> UnreachableError:
    return UnreachableError(f"tip direction outside the insertion cone (|sin q2| = {abs(s):.9g})")


def ik_guards(joints: SphericalJoints, sin_q2, geometry: SphericalGeometry) -> list:
    """The guards of the closed-form IK on solved joints and sin q2 before
    clamping (``solve_ik``), one sample or grid columns, in order: an
    undefined insertion direction (q3 below MIN_TIP_NORM), an unreachable tip
    (|sin q2| past 1 + REACH_TOL), then ``joint_guards``. NaN trips neither
    of the first two; it fails the travel."""
    return [
        (joints.q3 < MIN_TIP_NORM, joints.q3, _degenerate_error),
        (abs(sin_q2) > 1.0 + REACH_TOL, sin_q2, _unreachable_error),
        *joint_guards(joints, geometry),
    ]


def check_ik(joints: SphericalJoints, sin_q2: float, geometry: SphericalGeometry) -> None:
    """Raise the first failing check of the closed-form IK on one solved
    sample (``ik_guards``)."""
    raise_first(ik_guards(joints, sin_q2, geometry))


def check_coordinates(*points: np.ndarray) -> None:
    """Raise UnreachableError unless every coordinate of the tip and platform
    positions (each (3,), mm) is finite and below MAX_COORDINATE in magnitude."""
    if not all(abs(c) < MAX_COORDINATE for point in points for c in point.tolist()):
        raise UnreachableError(
            f"tip and platform coordinates must be finite and below "
            f"{MAX_COORDINATE:g} mm in magnitude"
        )


#: The functions hypot, clip, asin, cos, atan2 and where (as numpy spells
#: them) that solve_ik takes from its caller: for one tip from math and the
#: builtins, so that no numpy call runs per float, and for a grid from numpy.
IK_SCALAR = (
    math.hypot, lambda x, lo, hi: min(hi, max(lo, x)), math.asin, math.cos, math.atan2,
    lambda condition, a, b: a if condition else b,
)
IK_GRID = (np.hypot, np.clip, np.arcsin, np.cos, np.arctan2, np.where)


def tip_vector(r, d, geometry: SphericalGeometry):
    """R^T d - offset: the tip vector in the module frame, a tuple of three
    entries, for the tip at p + d (``d`` three floats, mm) under the platform
    rotation's entries ``r`` (``platform.euler_entries``)."""
    r11, r12, r13, r21, r22, r23, r31, r32, r33 = r
    dx, dy, dz = d
    ox, oy, oz = geometry.offset
    return (
        r11 * dx + r21 * dy + r31 * dz - ox,
        r12 * dx + r22 * dy + r32 * dz - oy,
        r13 * dx + r23 * dy + r33 * dz - oz,
    )


def solve_ik(v, geometry: SphericalGeometry, branch: IkBranch, ops) -> tuple:
    """Unchecked closed-form joints (deg, mm) for the tip vector v (three
    entries, mm, in the module frame), and sin q2 before clamping for
    ``ik_guards``; ``ops`` is IK_SCALAR or IK_GRID. A rejected tip
    gets arbitrary joints.

    q3 is the tip distance. Rotating the unit insertion direction back by
    alpha leaves sin(q2) on the X component (scaled by cos beta); the branch
    picks the principal or supplementary arcsine solution, wrapped into
    (-180, 180] deg. q1 then aligns the remaining Y-Z direction by atan2.
    """
    hypot, clip, asin, cos, atan2, where = ops
    vx, vy, vz = v
    q3 = hypot(hypot(vx, vy), vz)  # overflow-safe norm
    scale = -clip(q3, MIN_TIP_NORM, math.inf)
    ux, uy, uz = vx / scale, vy / scale, vz / scale
    ca, sa, cb, sb = geometry.tilts
    wx, wy, wz = ca * ux - sa * uz, uy, sa * ux + ca * uz  # -m
    sin_q2 = wx / cb
    q2 = asin(clip(sin_q2, -1.0, 1.0))
    if branch is IkBranch.MIRROR:
        q2 = math.pi - q2
        q2 = where(q2 > math.pi, q2 - 2.0 * math.pi, q2)
    az = cos(q2) * cb
    q1 = where(
        hypot(sb, az) < 1e-15,
        0.0,  # tip along the q1 axis; q1 is free, pick zero
        atan2(-sb * wz - az * wy, -sb * wy + az * wz),
    )
    return SphericalJoints(_TO_DEG * q1, _TO_DEG * q2, q3), sin_q2


def ik_tip_platform(
    v, geometry: SphericalGeometry, branch: IkBranch = IkBranch.PRINCIPAL
) -> SphericalJoints:
    """Closed-form joints for a tip vector given in the module frame
    (``solve_ik``), checked by check_ik."""
    joints, sin_q2 = solve_ik(np.asarray(v, dtype=float).tolist(), geometry, branch, IK_SCALAR)
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
    tip, position = np.asarray(tip_fixed, dtype=float), pose.position
    check_coordinates(tip, position)
    v = tip_vector(pose.rotation_entries, (tip - position).tolist(), geometry)
    return ik_tip_platform(v, geometry, branch)
