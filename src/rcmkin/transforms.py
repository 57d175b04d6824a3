"""3D rotation builders and the entries of the X-Y-Z Euler rotation.

Right-handed frames, column-vector convention, angles in radians. The
builders take one angle each and return (3, 3) float64 arrays; they serve
only the homogeneous-chain FK that the oracle suite checks the tip map
against (``spherical.fk_tip_fixed_chain``), which writes its 4x4 transforms
itself. The queries, the planners and the velocity relation read
``euler_entries`` instead, which writes the X-Y-Z Euler rotation as the
arithmetic of its direction cosines and runs alike on floats for one pose
and on arrays for a grid of poses.
"""

from __future__ import annotations

import math

import numpy as np


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
