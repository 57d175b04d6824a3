"""Differential kinematics: the type-4 planner's compensation kernel and the
closed-form singularity measure.

Writing the tip map as F(X, Q) = f(Q) - X = 0 with inputs
Q = (q1, q2, q3, psi, theta) makes the end-effector Jacobian the constant
A = -I and B = df/dQ, so the velocity relation A Xdot + B Qdot = 0 reads
Xdot = B Qdot. With the tip held, the joint block of B gives the joint rates
and, differentiated once more, the accelerations that compensate a platform
motion.

The reorientation planner does not build B. Premultiplying the relation by
R^T leaves every term in the platform frame as a few (n,) columns over a
block of the time grid: the platform's rotation and spin per block
(``platform.platform_rotation`` and ``platform_spin``), ``spherical.solve_ik``
for the joints and ``hold_motion`` for the rates, accelerations and tips, in
closed form. The partials of the insertion direction m in (q1, q2) are
written once, elementwise (``_insertion_partials``). B and B-dot themselves,
with the general 3x3 solves over them, are the oracle suite's independent
route to the same rates and accelerations (``validation.jacobians``,
``validation.compensation_rates``), and ``rcmkin validate`` checks this
kernel against them.

The normalized singularity measure is closed-form too, |sigma| with
sigma = -cos q2 cos beta. Its guards, the threshold and the sign change
between samples, are written once (``singular_guards``) for one sample and
grid columns alike; ``check_nonsingular`` and the planners' screens read them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularConfigurationError, raise_first
from .platform import _DEG
from .spherical import SphericalGeometry, SphericalJoints, insertion, tip_position

#: Abort threshold on the normalized joint-block determinant.
SIGMA_MIN = 1e-8

# Per-entry factor from solved (q1, q2, q3) in (rad, rad, mm) to (deg, deg, mm).
_TO_USER = np.array([180.0 / math.pi, 180.0 / math.pi, 1.0])


# --- elementwise closed forms ----------------------------------------------
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


def _turn_y(v, c: float, s: float):
    """rot_y(angle) v, given cos and sin of the angle."""
    return (c * v[0] + s * v[2], v[1], c * v[2] - s * v[0])


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


def signed_measure(joints: SphericalJoints, geometry: SphericalGeometry):
    """Signed normalized determinant of the joint block, -cos q2 cos beta.

    It is independent of the pose, q1, q3 and alpha, so mirrored modules
    share it, and it vanishes at q2 = +/-90 deg. A joint grid gives an array,
    as does a geometry whose ``tilts`` are columns.
    """
    return -np.cos(_DEG * joints.q2) * geometry.tilts[2]


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
    block whose joints hold the tip: the 3x3 solves over B and B-dot
    (``validation.compensation_rates`` and ``compensation_accels``) and
    ``spherical.fk_tip_fixed`` give the same on every sample.

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
