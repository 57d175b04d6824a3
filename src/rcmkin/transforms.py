"""3D rotation builders and 4x4 homogeneous transforms.

Right-handed frames, column-vector convention, angles in radians. Matrices
are plain float64 numpy arrays: (3, 3) for rotations, (4, 4) for rigid
transforms with the fixed bottom row (0, 0, 0, 1). The rotation builders
also take arrays of angles and return stacks of shape (..., 3, 3), which is
how the planners evaluate a whole block of the time grid at once.
"""

from __future__ import annotations

import math

import numpy as np

ROTATION_TOL = 1e-12


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def _stacked_rotation(angles: np.ndarray, axis: int) -> np.ndarray:
    """Rotations (..., 3, 3) about coordinate axis ``axis``, filled into one
    preallocated array."""
    c, s = np.cos(angles), np.sin(angles)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    r = np.zeros(c.shape + (3, 3))
    r[..., axis, axis] = 1.0
    r[..., j, j] = r[..., k, k] = c
    r[..., k, j] = s
    r[..., j, k] = -s
    return r


# The one-angle bodies below stay literal: filling an array costs them about
# half again, and the oracles and queries build single rotations.


def rot_x(angle) -> np.ndarray:
    """Rotation about the X axis; an array of angles gives a stack."""
    if isinstance(angle, np.ndarray) and angle.ndim:
        return _stacked_rotation(angle, 0)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle) -> np.ndarray:
    """Rotation about the Y axis; an array of angles gives a stack."""
    if isinstance(angle, np.ndarray) and angle.ndim:
        return _stacked_rotation(angle, 1)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle) -> np.ndarray:
    """Rotation about the Z axis; an array of angles gives a stack."""
    if isinstance(angle, np.ndarray) and angle.ndim:
        return _stacked_rotation(angle, 2)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_xyz(psi, theta, phi) -> np.ndarray:
    """X-Y-Z Euler rotation: rot_x(psi) @ rot_y(theta) @ rot_z(phi); stacked
    like the rotations when the angles are arrays."""
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
