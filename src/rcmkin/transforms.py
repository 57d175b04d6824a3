"""3D rotation builders and 4x4 homogeneous transforms.

Right-handed frames, column-vector convention, angles in radians. Matrices
are plain float64 numpy arrays: (3, 3) for rotations, (4, 4) for rigid
transforms with the fixed bottom row (0, 0, 0, 1).
"""

from __future__ import annotations

import math

import numpy as np

ROTATION_TOL = 1e-12


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def rot_x(angle: float) -> np.ndarray:
    """Rotation about the X axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    """Rotation about the Y axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    """Rotation about the Z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_xyz(psi: float, theta: float, phi: float) -> np.ndarray:
    """X-Y-Z Euler rotation: rot_x(psi) @ rot_y(theta) @ rot_z(phi)."""
    return rot_x(psi) @ rot_y(theta) @ rot_z(phi)


def euler_xyz_angles(r: np.ndarray) -> tuple[float, float, float]:
    """Extract (psi, theta, phi) from an X-Y-Z Euler rotation matrix.

    Valid away from theta = +/-pi/2, where the parametrization degenerates
    and psi/phi are no longer separable.
    """
    theta = math.asin(min(1.0, max(-1.0, float(r[0, 2]))))
    psi = math.atan2(-r[1, 2], r[2, 2])
    phi = math.atan2(-r[0, 1], r[0, 0])
    return psi, theta, phi


def trans_z(d: float) -> np.ndarray:
    """Homogeneous translation by d along the Z axis."""
    m = np.eye(4)
    m[2, 3] = d
    return m


def apply_point(m: np.ndarray, p) -> np.ndarray:
    """Apply a homogeneous transform to a 3D point."""
    return m[:3, :3] @ np.asarray(p, dtype=float) + m[:3, 3]


def last_column(m: np.ndarray) -> np.ndarray:
    """Translation part of a homogeneous transform."""
    return m[:3, 3].copy()


def is_rotation(r: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """True when r is orthonormal with determinant +1 within tol."""
    if r.shape != (3, 3):
        return False
    residual = float(np.abs(r.T @ r - np.eye(3)).max())
    det = float(np.cross(r[:, 0], r[:, 1]) @ r[:, 2])  # triple product of the columns
    return residual <= tol and abs(det - 1.0) <= tol
