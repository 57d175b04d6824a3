"""Self-check oracles: independent recomputations of the core kinematic maps.

Each check pits an implementation against an algorithmically independent
route on seeded random inputs, and reports the worst observed error against
a fixed tolerance. Every check draws its n configurations as (n,) columns,
one generator call per field (``_draw``), and runs both routes on the
columns at once, except that dual-path-fk runs its second route once per
configuration:

- euler-quaternion: ``transforms.euler_entries`` against the rotation
  rebuilt by quaternion composition (``euler_quaternion_oracle``);
- euler-roundtrip: angle extraction (``_euler_xyz_angles``) inverts
  ``euler_entries`` away from the degeneracy;
- dual-path-fk: the direction-cosine tip map (``spherical.insertion``,
  ``tip_position``) against the homogeneous chain ``fk_tip_fixed_chain``;
- fk-ik-roundtrip: ``tip_position``, ``tip_vector`` and ``solve_ik`` on
  ``IK_GRID`` return the sampled tip; a sample ``ik_faults`` rejects, or a
  branch flip, reads inf;
- jacobian-fd: the analytic B (``differential._relation``, the body of
  ``jacobians``) against central finite differences of the column tip map;
- jacobian-rate-fd: the analytic B-dot (the body of ``jacobian_rate``)
  against central differences of the column B along each configuration's
  drawn input rates;
- numeric-ik: the closed-form IK against a batched Gauss-Newton root of the
  column tip residual.

Each configuration keeps its own random geometry: the column bodies read it
through ``_Geometries``, which holds only what they read (``tilts``,
``offset`` and ``travel``) as (n,) columns. Only the homogeneous chain
takes objects, so it alone runs per configuration. No check calls the scalar
queries ``fk_tip_fixed``, ``ik_full``, ``jacobians`` or ``jacobian_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import differential
from .differential import InputRates
from .platform import PlatformPose
from .spherical import (
    IK_GRID,
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    fk_tip_fixed_chain,
    ik_faults,
    insertion,
    left_geometry,
    solve_ik,
    tip_position,
    tip_vector,
)
from .transforms import euler_entries

DEFAULT_SEED = 20240901


@dataclass(frozen=True)
class OracleResult:
    name: str
    max_err: float
    tol: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name:<22} max_err={self.max_err:.3e} "
            f"tol={self.tol:.0e} n={self.samples}"
        )


def _worse(worst: float, err: float) -> float:
    """The larger of two errors; a NaN error, once seen, is kept (the builtin
    max(0.0, nan) is 0.0, which would pass a check that met NaN)."""
    return err if err > worst or math.isnan(err) else worst


def _largest(errors: np.ndarray) -> float:
    """The largest entry of an error array, 0.0 for an empty one; a NaN entry
    gives NaN, as ``_worse`` keeps it."""
    return float(np.max(errors, initial=0.0))


# --- quaternion algebra (w, x, y, z), used only as an oracle ---------------
#
# Written elementwise: float angles give one rotation, (n,) columns n.


def _quat_axis(angle, axis: int) -> list:
    q = [np.cos(angle / 2.0), 0.0, 0.0, 0.0]
    q[1 + axis] = np.sin(angle / 2.0)
    return q


def _quat_mul(p, q) -> tuple:
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def _quat_matrix(q) -> np.ndarray:
    norm = np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    w, x, y, z = (c / norm for c in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def euler_quaternion_oracle(psi, theta, phi) -> np.ndarray:
    """X-Y-Z Euler rotation rebuilt through quaternion composition: (3, 3)
    for float angles, (3, 3, n) for (n,) columns."""
    q = _quat_mul(_quat_mul(_quat_axis(psi, 0), _quat_axis(theta, 1)), _quat_axis(phi, 2))
    return _quat_matrix(q)


def _euler_xyz_angles(r: np.ndarray) -> tuple:
    """Extract (psi, theta, phi) from an X-Y-Z Euler rotation matrix (3, 3),
    or from a stack (3, 3, n) as three (n,) columns.

    Valid away from theta = +/-pi/2, where the parametrization degenerates
    and psi/phi are no longer separable.
    """
    theta = np.arcsin(np.clip(r[0, 2], -1.0, 1.0))
    psi = np.arctan2(-r[1, 2], r[2, 2])
    phi = np.arctan2(-r[0, 1], r[0, 0])
    return psi, theta, phi


# --- random sampling --------------------------------------------------------

#: Ranges of the drawn pose fields x, y, z (mm) and psi, theta, phi (deg),
#: and of the drawn geometry's alpha, beta (deg) and port spacing (mm).
_POSE_RANGES = ((-100, 100), (-100, 100), (-700, -300), (-60, 60), (-60, 60), (-180, 180))
_SHAPE_RANGES = ((0, 30), (0, 30), (5, 20))


def _joint_ranges(margin: float) -> tuple:
    swing = 90.0 - margin
    return (-swing, swing), (-swing, swing), (20, 280)


def _draw(rng: np.random.Generator, ranges, n: int) -> np.ndarray:
    """n uniform draws per range, one generator call per field: rows (k, n).
    With n = 1 the stream is consumed as by one scalar call per field."""
    return np.array([rng.uniform(lo, hi, n) for lo, hi in ranges])


def _draw_configurations(rng: np.random.Generator, n: int, margin: float = 10.0) -> tuple:
    """Pose rows (6, n), geometry rows (alpha, beta, spacing; 3, n) and joint
    rows (q1, q2, q3; 3, n) of n random configurations. With n = 1 the
    values are those of ``_random_pose``, ``_random_geometry`` and
    ``_random_joints`` called in that order."""
    return (
        _draw(rng, _POSE_RANGES, n),
        _draw(rng, _SHAPE_RANGES, n),
        _draw(rng, _joint_ranges(margin), n),
    )


def _random_pose(rng: np.random.Generator) -> PlatformPose:
    return PlatformPose(*_draw(rng, _POSE_RANGES, 1)[:, 0].tolist())


def _random_geometry(rng: np.random.Generator) -> SphericalGeometry:
    return left_geometry(*_draw(rng, _SHAPE_RANGES, 1)[:, 0].tolist())


def _random_joints(rng: np.random.Generator, margin: float = 10.0) -> SphericalJoints:
    return SphericalJoints(*_draw(rng, _joint_ranges(margin), 1)[:, 0].tolist())


def _objects(poses: np.ndarray, shapes: np.ndarray, joints: np.ndarray) -> zip:
    """(PlatformPose, SphericalJoints, SphericalGeometry) per configuration,
    the arguments of the routes that take objects."""
    return zip(
        [PlatformPose(*row) for row in poses.T.tolist()],
        [SphericalJoints(*row) for row in joints.T.tolist()],
        [left_geometry(*row) for row in shapes.T.tolist()],
    )


# --- column tip map ---------------------------------------------------------


class _Geometries:
    """Stand-in for ``left_geometry(alpha, beta, spacing)`` over (n,) columns:
    the ``tilts`` and ``offset`` that the tip, IK and B bodies read, as
    columns, and the ``travel`` that ``ik_faults`` reads (every drawn
    geometry has the default travels)."""

    def __init__(self, alpha, beta, spacing):
        a, b = np.radians(alpha), np.radians(beta)
        zero = np.zeros_like(spacing)
        self.tilts = (np.cos(a), np.sin(a), np.cos(b), np.sin(b))
        self.offset = (-spacing, zero, zero)
        self.travel = left_geometry().travel


def _euler(angles: np.ndarray) -> tuple:
    """The nine entries of euler_xyz (``euler_entries``) for angle rows (psi,
    theta, phi) in radians, floats or columns."""
    c, s = np.cos(angles), np.sin(angles)
    return euler_entries(c[0], s[0], c[1], s[1], c[2], s[2])


def _rotation(pose: np.ndarray) -> tuple:
    """R's nine entries for pose rows (x, y, z, psi, theta, phi; mm and deg)."""
    return _euler(np.radians(pose[3:]))


def _tip(r, pose: np.ndarray, joints: np.ndarray, geometry) -> np.ndarray:
    """The fixed-frame tip (``insertion``, ``tip_position``), rows (3, ...),
    under R's entries ``r`` and pose rows ``pose``, for joint rows (q1, q2,
    q3; deg and mm) and a geometry or its column stand-in."""
    angles = np.radians(joints[:2])
    c, s = np.cos(angles), np.sin(angles)
    m = insertion(c[0], s[0], c[1], s[1], geometry)
    return np.array(tip_position(r, m, joints[2], geometry, pose[:3]))


def _closed_form_ik(r, pose: np.ndarray, tips: np.ndarray, geometry) -> tuple:
    """Principal-branch joint rows (3, n) for tip rows, and the mask of the
    configurations ``ik_faults`` rejects."""
    solved, sin_q2 = solve_ik(
        tip_vector(r, tips - pose[:3], geometry), geometry, IkBranch.PRINCIPAL, IK_GRID
    )
    return np.array([solved.q1, solved.q2, solved.q3]), ik_faults(solved, sin_q2, geometry)


# --- checks -----------------------------------------------------------------


def check_euler_quaternion(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """euler_entries against the quaternion-composition oracle."""
    rng = np.random.default_rng(seed)
    angles = _draw(rng, ((-math.pi, math.pi),) * 3, n)
    diff = np.abs(np.reshape(_euler(angles), (3, 3, n)) - euler_quaternion_oracle(*angles))
    return OracleResult("euler-quaternion", _largest(diff), 1e-12, n)


def check_euler_roundtrip(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Angle extraction inverts euler_entries away from the degeneracy."""
    rng = np.random.default_rng(seed + 1)
    limits = ((-math.pi, math.pi), (-math.pi / 2 + 1e-5, math.pi / 2 - 1e-5), (-math.pi, math.pi))
    angles = _draw(rng, limits, n)
    recovered = _euler_xyz_angles(np.reshape(_euler(angles), (3, 3, n)))
    return OracleResult("euler-roundtrip", _largest(np.abs(angles - recovered)), 1e-9, n)


def check_dual_path_fk(n: int = 10000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Direction-cosine expansion against homogeneous-chain evaluation."""
    rng = np.random.default_rng(seed + 2)
    poses, shapes, joints = _draw_configurations(rng, n)
    tips = _tip(_rotation(poses), poses, joints, _Geometries(*shapes))
    chain = [fk_tip_fixed_chain(*config) for config in _objects(poses, shapes, joints)]
    diff = np.abs(tips.T - np.reshape(chain, (n, 3)))
    return OracleResult("dual-path-fk", _largest(diff), 1e-12, n)


def check_fk_ik_roundtrip(n: int = 10000, seed: int = DEFAULT_SEED) -> OracleResult:
    """FK of the IK solution returns the sampled tip; principal branch only."""
    rng = np.random.default_rng(seed + 3)
    poses, shapes, joints = _draw_configurations(rng, n)
    g, r = _Geometries(*shapes), _rotation(poses)
    tips = _tip(r, poses, joints, g)
    solved, faults = _closed_form_ik(r, poses, tips, g)
    flips = np.abs(solved[1] - joints[1]) > 1e-6
    if faults.any() or flips.any():
        worst = math.inf  # a rejected tip or a branch flip is a hard failure
    else:
        worst = _largest(np.abs(_tip(r, poses, solved, g) - tips))
    return OracleResult("fk-ik-roundtrip", worst, 1e-9, n)


def _rows(pose: PlatformPose, joints: SphericalJoints) -> tuple[np.ndarray, np.ndarray]:
    """Pose rows (6,) and joint rows (3,) of one configuration."""
    rows = [pose.x, pose.y, pose.z, pose.psi, pose.theta, pose.phi]
    return np.array(rows), np.array([joints.q1, joints.q2, joints.q3])


def _b(pose: np.ndarray, joints: np.ndarray, geometry, rates=None) -> np.ndarray:
    """The analytic B (``differential._relation``), rows (3, 5, ...), at pose
    rows (6, ...) and joint rows (3, ...) for a geometry or its column
    stand-in; given input rate rows (5, ...) in radians and mm per second,
    B-dot."""
    angles = np.radians(np.concatenate([pose[3:], joints[:2]]))  # psi theta phi q1 q2
    c, s = np.cos(angles), np.sin(angles)
    r = euler_entries(c[0], s[0], c[1], s[1], c[2], s[2])
    return differential._relation(r, c[3], s[3], c[4], s[4], c[0], s[0], joints[2], geometry,
                                  rates)


def _finite_difference_b(pose, joints, geometry, step: float = 1e-6) -> np.ndarray:
    """Central-difference B (3, 5, ...) over (q1, q2, q3, psi, theta), radians
    and mm, of the tip map at pose rows (6, ...) and joint rows (3, ...); each
    of those five inputs moves by +step and -step in turn, radians as degrees."""
    inputs = np.concatenate([pose, joints])  # x, y, z, psi, theta, phi, q1, q2, q3
    moves = np.zeros((9, 10) + (1,) * (inputs.ndim - 1))
    for k, row in enumerate((6, 7, 8, 3, 4)):
        h = step if row == 8 else math.degrees(step)
        moves[row, 2 * k], moves[row, 2 * k + 1] = h, -h
    moved = inputs[:, None] + moves
    tips = _tip(_rotation(moved[:6]), moved[:6], moved[6:], geometry)
    return (tips[:, 0::2] - tips[:, 1::2]) / (2 * step)


def finite_difference_b(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference B over (q1, q2, q3, psi, theta), radians and mm."""
    return _finite_difference_b(*_rows(pose, joints), geometry, step)


def _finite_difference_b_rate(pose, joints, geometry, rates, step: float = 1e-5) -> np.ndarray:
    """Central-difference B-dot (3, 5, ...) along input rate rows (5, ...) in
    radians and mm per second: the analytic B at pose rows (6, ...) and joint
    rows (3, ...) moved by +h and -h times the rates, radians as degrees.
    Each configuration's h is scaled so its largest perturbed input moves by
    ``step``; a configuration at rest gets zeros."""
    scale = np.abs(rates).max(axis=0)
    h = step / np.maximum(scale, 1e-15)
    d = h * rates
    shift = np.zeros((9,) + d.shape[1:])  # x, y, z, psi, theta, phi, q1, q2, q3
    shift[[6, 7, 3, 4]] = np.degrees(d[[0, 1, 3, 4]])
    shift[8] = d[2]
    moved = np.concatenate([pose, joints])[:, None] + np.stack([shift, -shift], axis=1)
    b = _b(moved[:6], moved[6:], geometry)
    return np.where(scale < 1e-15, 0.0, (b[:, :, 0] - b[:, :, 1]) / (2.0 * h))


def finite_difference_b_rate(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    rates: InputRates,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference time derivative of B along the input rates; the
    step is scaled so the largest perturbed input moves by ``step``."""
    return _finite_difference_b_rate(*_rows(pose, joints), geometry, rates.rates_internal(),
                                     step)


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """The largest entrywise |analytic - numeric| / max(1, |analytic|)."""
    return _largest(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic)))


def check_jacobian_fd(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Analytic B against central finite differences of the tip map."""
    rng = np.random.default_rng(seed + 4)
    poses, shapes, joints = _draw_configurations(rng, n)
    g = _Geometries(*shapes)
    worst = _relative_error(_b(poses, joints, g), _finite_difference_b(poses, joints, g))
    return OracleResult("jacobian-fd", worst, 1e-6, n)


def check_jacobian_rate_fd(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Analytic B-dot against central finite differences of B along each
    configuration's input rates."""
    rng = np.random.default_rng(seed + 6)
    poses, shapes, joints = _draw_configurations(rng, n)
    rates = differential._TO_INTERNAL[:, None] * _draw(rng, ((-20, 20),) * 5, n)
    g = _Geometries(*shapes)
    worst = _relative_error(_b(poses, joints, g, rates),
                            _finite_difference_b_rate(poses, joints, g, rates))
    return OracleResult("jacobian-rate-fd", worst, 1e-6, n)


def _gauss_newton(residual, x0: np.ndarray) -> np.ndarray:
    """Roots (k, n) of ``residual`` from the columns of ``x0`` by Gauss-Newton
    steps on a central-difference Jacobian (step 1e-6).

    ``residual`` maps rows (k, p, n) to rows (k, p, n): the iterate and its
    2k moved copies. Each column stops once its step has fallen to 1e-13 of
    its iterate. A column that has not stopped within 50 iterations, or
    every running column once a Jacobian is singular, gets an inf root.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    moves = np.zeros((k, 2 * k + 1))
    for i in range(k):
        moves[i, 2 * i + 1 : 2 * i + 3] = 1e-6, -1e-6
    running = np.arange(n)
    for _ in range(50):
        if running.size == 0:
            return x
        f = residual(x[:, None] + moves[:, :, None])[..., running]
        jac = (f[:, 1::2] - f[:, 2::2]) / 2e-6
        try:
            dx = np.linalg.solve(np.moveaxis(jac, -1, 0), -f[:, 0].T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError:
            break
        x[:, running] += dx
        scale = np.maximum(1.0, np.abs(x[:, running]).max(axis=0))
        running = running[~(np.abs(dx).max(axis=0) <= 1e-13 * scale)]
    x[:, running] = math.inf
    return x


def check_numeric_ik(n: int = 100, seed: int = DEFAULT_SEED) -> OracleResult:
    """Closed-form IK against a Gauss-Newton root of the tip residual.

    The solver starts from a deliberately offset guess; converging back to
    the closed-form joints verifies they are a locally unique root. Its
    Jacobian differences the tip map, not the analytic B, and a case that
    does not converge fails the check, as does one the closed form rejects.
    """
    rng = np.random.default_rng(seed + 5)
    poses, shapes, joints = _draw_configurations(rng, n, margin=20.0)
    g, r = _Geometries(*shapes), _rotation(poses)
    tips = _tip(r, poses, joints, g)
    closed, faults = _closed_form_ik(r, poses, tips, g)
    if faults.any():
        worst = math.inf
    else:
        target = tips[:, None]
        root = _gauss_newton(
            lambda q: _tip(r, poses, q, g) - target, closed + np.array([[2.0], [-2.0], [5.0]])
        )
        worst = _largest(np.abs(root - closed))
    return OracleResult("numeric-ik", worst, 1e-6, n)


def run_all(seed: int = DEFAULT_SEED) -> list[OracleResult]:
    """Run the full oracle suite with its reference sample counts."""
    return [
        check_euler_quaternion(seed=seed),
        check_euler_roundtrip(seed=seed),
        check_dual_path_fk(seed=seed),
        check_fk_ik_roundtrip(seed=seed),
        check_jacobian_fd(seed=seed),
        check_jacobian_rate_fd(seed=seed),
        check_numeric_ik(seed=seed),
    ]


def format_report(results: list[OracleResult]) -> str:
    lines = [r.line() for r in results]
    bad = sum(not r.passed for r in results)
    lines.append(
        "all oracles passed" if bad == 0 else f"{bad} oracle(s) FAILED"
    )
    return "\n".join(lines)
