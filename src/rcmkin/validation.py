"""Self-check oracles: independent recomputations of the core kinematic maps.

Each check pits an implementation against an algorithmically independent
route -- quaternion algebra, the homogeneous-transform chain FK, central
finite differences of the tip map and of B, numeric root finding -- on
seeded random inputs, and reports the worst observed error against a fixed
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import differential
from .differential import InputRates
from .platform import PlatformPose
from .spherical import (
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    fk_tip_fixed,
    fk_tip_fixed_chain,
    ik_full,
    left_geometry,
)
from .transforms import euler_xyz

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


# --- quaternion algebra (w, x, y, z), used only as an oracle ---------------


def _quat_axis(angle: float, axis: int) -> np.ndarray:
    q = np.zeros(4)
    q[0] = math.cos(angle / 2.0)
    q[1 + axis] = math.sin(angle / 2.0)
    return q


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ]
    )


def _quat_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def euler_quaternion_oracle(psi: float, theta: float, phi: float) -> np.ndarray:
    """X-Y-Z Euler rotation rebuilt through quaternion composition."""
    q = _quat_mul(_quat_mul(_quat_axis(psi, 0), _quat_axis(theta, 1)), _quat_axis(phi, 2))
    return _quat_matrix(q)


def _euler_xyz_angles(r: np.ndarray) -> tuple[float, float, float]:
    """Extract (psi, theta, phi) from an X-Y-Z Euler rotation matrix.

    Valid away from theta = +/-pi/2, where the parametrization degenerates
    and psi/phi are no longer separable.
    """
    theta = math.asin(min(1.0, max(-1.0, float(r[0, 2]))))
    psi = math.atan2(-r[1, 2], r[2, 2])
    phi = math.atan2(-r[0, 1], r[0, 0])
    return psi, theta, phi


# --- random sampling --------------------------------------------------------


def _random_pose(rng: np.random.Generator) -> PlatformPose:
    return PlatformPose(
        rng.uniform(-100, 100),
        rng.uniform(-100, 100),
        rng.uniform(-700, -300),
        rng.uniform(-60, 60),
        rng.uniform(-60, 60),
        rng.uniform(-180, 180),
    )


def _random_geometry(rng: np.random.Generator) -> SphericalGeometry:
    return left_geometry(
        alpha=rng.uniform(0, 30),
        beta=rng.uniform(0, 30),
        port_spacing=rng.uniform(5, 20),
    )


def _random_joints(rng: np.random.Generator, margin: float = 10.0) -> SphericalJoints:
    swing = 90.0 - margin
    return SphericalJoints(
        rng.uniform(-swing, swing), rng.uniform(-swing, swing), rng.uniform(20, 280)
    )


# --- checks -----------------------------------------------------------------


def check_euler_quaternion(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """euler_xyz against the quaternion-composition oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        psi, theta, phi = rng.uniform(-math.pi, math.pi, 3)
        diff = np.abs(euler_xyz(psi, theta, phi) - euler_quaternion_oracle(psi, theta, phi))
        worst = _worse(worst, float(diff.max()))
    return OracleResult("euler-quaternion", worst, 1e-12, n)


def check_euler_roundtrip(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Angle extraction inverts euler_xyz away from the degeneracy."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(n):
        angles = (
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2 + 1e-5, math.pi / 2 - 1e-5),
            rng.uniform(-math.pi, math.pi),
        )
        recovered = _euler_xyz_angles(euler_xyz(*angles))
        worst = _worse(worst, float(np.abs(np.subtract(angles, recovered)).max()))
    return OracleResult("euler-roundtrip", worst, 1e-9, n)


def check_dual_path_fk(n: int = 10000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Direction-cosine expansion against homogeneous-chain evaluation."""
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(n):
        pose, g = _random_pose(rng), _random_geometry(rng)
        joints = _random_joints(rng)
        diff = np.abs(fk_tip_fixed(pose, joints, g) - fk_tip_fixed_chain(pose, joints, g))
        worst = _worse(worst, float(diff.max()))
    return OracleResult("dual-path-fk", worst, 1e-12, n)


def check_fk_ik_roundtrip(n: int = 10000, seed: int = DEFAULT_SEED) -> OracleResult:
    """FK of the IK solution returns the sampled tip; principal branch only."""
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    flips = 0
    for _ in range(n):
        pose, g = _random_pose(rng), _random_geometry(rng)
        joints = _random_joints(rng)
        tip = fk_tip_fixed(pose, joints, g)
        solved = ik_full(pose, tip, g, IkBranch.PRINCIPAL)
        if abs(solved.q2 - joints.q2) > 1e-6:
            flips += 1
        worst = _worse(worst, float(np.abs(fk_tip_fixed(pose, solved, g) - tip).max()))
    if flips:
        worst = math.inf  # a branch flip is a hard failure, not a small error
    return OracleResult("fk-ik-roundtrip", worst, 1e-9, n)


def _shifted(
    pose: PlatformPose, joints: SphericalJoints, d: np.ndarray
) -> tuple[PlatformPose, SphericalJoints]:
    """Pose and joints moved by d over (q1, q2, q3, psi, theta), radians and mm."""
    dq1, dq2, dq3, dpsi, dtheta = d.tolist()  # plain floats: fast scalar FK
    dq1, dq2, dpsi, dtheta = map(math.degrees, (dq1, dq2, dpsi, dtheta))
    return (
        PlatformPose(pose.x, pose.y, pose.z, pose.psi + dpsi, pose.theta + dtheta, pose.phi),
        SphericalJoints(joints.q1 + dq1, joints.q2 + dq2, joints.q3 + dq3),
    )


def finite_difference_b(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference B over (q1, q2, q3, psi, theta), radians and mm."""

    def tip(d: np.ndarray) -> np.ndarray:
        return fk_tip_fixed(*_shifted(pose, joints, d), geometry)

    return np.column_stack([(tip(d) - tip(-d)) / (2 * step) for d in step * np.eye(5)])


def finite_difference_b_rate(
    pose: PlatformPose,
    joints: SphericalJoints,
    geometry: SphericalGeometry,
    rates: InputRates,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference time derivative of B along the input rates; the
    step is scaled so the largest perturbed input moves by ``step``."""
    qdot = rates.rates_internal()
    scale = float(np.abs(qdot).max())
    if scale < 1e-15:
        return np.zeros((3, 5))
    h = step / scale

    def b_at(d: np.ndarray) -> np.ndarray:
        return differential.jacobians(*_shifted(pose, joints, d), geometry).b

    return (b_at(h * qdot) - b_at(-h * qdot)) / (2.0 * h)


def check_jacobian_fd(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Analytic B against central finite differences of the tip map."""
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for _ in range(n):
        pose, g = _random_pose(rng), _random_geometry(rng)
        joints = _random_joints(rng)
        analytic = differential.jacobians(pose, joints, g).b
        numeric = finite_difference_b(pose, joints, g)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = _worse(worst, float(rel.max()))
    return OracleResult("jacobian-fd", worst, 1e-6, n)


def check_jacobian_rate_fd(n: int = 1000, seed: int = DEFAULT_SEED) -> OracleResult:
    """Analytic B-dot against central finite differences of B."""
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for _ in range(n):
        pose, g = _random_pose(rng), _random_geometry(rng)
        joints = _random_joints(rng)
        rates = InputRates(*rng.uniform(-20, 20, 5))
        analytic = differential.jacobian_rate(pose, joints, g, rates)
        numeric = finite_difference_b_rate(pose, joints, g, rates)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = _worse(worst, float(rel.max()))
    return OracleResult("jacobian-rate-fd", worst, 1e-6, n)


def _gauss_newton(residual, x0) -> np.ndarray | None:
    """Root of ``residual`` from ``x0`` by Gauss-Newton steps on a
    central-difference Jacobian (step 1e-6); None if within 50 iterations no
    step has fallen to 1e-13 of the iterate."""
    x = np.asarray(x0, dtype=float)
    for _ in range(50):
        jac = np.column_stack(
            [(residual(x + d) - residual(x - d)) / 2e-6 for d in 1e-6 * np.eye(x.size)]
        )
        dx = np.linalg.lstsq(jac, -residual(x), rcond=None)[0]
        x = x + dx
        if np.abs(dx).max() <= 1e-13 * max(1.0, float(np.abs(x).max())):
            return x
    return None


def check_numeric_ik(n: int = 100, seed: int = DEFAULT_SEED) -> OracleResult:
    """Closed-form IK against a Gauss-Newton root of the tip residual.

    The solver starts from a deliberately offset guess; converging back to
    the closed-form joints verifies they are a locally unique root. Its
    Jacobian differences the tip map, not the analytic B, and a case that
    does not converge fails the check.
    """
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(n):
        pose, g = _random_pose(rng), _random_geometry(rng)
        joints = _random_joints(rng, margin=20.0)
        tip = fk_tip_fixed(pose, joints, g)
        closed = ik_full(pose, tip, g, IkBranch.PRINCIPAL)

        def residual(q, pose=pose, g=g, tip=tip):
            return fk_tip_fixed(pose, SphericalJoints(*q.tolist()), g) - tip

        root = _gauss_newton(residual, [closed.q1 + 2.0, closed.q2 - 2.0, closed.q3 + 5.0])
        if root is None:
            worst = math.inf
            break
        worst = _worse(worst, float(np.abs(root - [closed.q1, closed.q2, closed.q3]).max()))
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
