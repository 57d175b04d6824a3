"""3D rotation builders and 4x4 homogeneous transforms.

Right-handed frames, column-vector convention, angles in radians. Matrices
are plain float64 numpy arrays: (3, 3) for rotations, (4, 4) for rigid
transforms with the fixed bottom row (0, 0, 0, 1). The builders take one
angle each; they serve the oracles, the homogeneous-chain FK and the
queries. ``euler_entries`` writes the X-Y-Z Euler rotation as the
arithmetic of its direction cosines instead, which runs alike on floats for
one pose and on arrays for a grid of poses.
"""

from __future__ import annotations

import math

import numpy as np


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


def euler_entries(cps, sps, ct, st, cph, sph):
    """The nine entries of euler_xyz(psi, theta, phi), row by row, from the
    cosines and sines of psi, theta and phi: floats give one rotation, arrays
    (or floats mixed with arrays) a grid of rotations."""
    return (
        ct * cph, -ct * sph, st,
        cps * sph + sps * st * cph, cps * cph - sps * st * sph, -sps * ct,
        sps * sph - cps * st * cph, sps * cph + cps * st * sph, cps * ct,
    )


def trans_z(d: float) -> np.ndarray:
    """Homogeneous translation by d along the Z axis."""
    m = np.eye(4)
    m[2, 3] = d
    return m


def last_column(m: np.ndarray) -> np.ndarray:
    """Translation part of a homogeneous transform."""
    return m[:3, 3].copy()
