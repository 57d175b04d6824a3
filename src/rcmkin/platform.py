"""Mobile-platform pose, its gimbal check and its rotation in every form.

The platform carries the endoscope through its reference point and the two
instrument RCM ports offset along its X' axis (each module's
``SphericalGeometry.offset`` and ``side``). Poses are position (mm) plus
X-Y-Z Euler angles (degrees); the pitch angle is kept away from +/-90 deg
where that parametrization degenerates (``gimbal_guard``).

The rotation R = rot_x(psi) rot_y(theta) rot_z(phi) is written once, as the
arithmetic of its direction cosines (``euler_entries``), which runs alike on
floats for one pose and on arrays for a grid. The queries read it through
``PlatformPose.rotation_entries``; the planners, the endoscope column and the
oracle suite through ``platform_rotation``, angles in degrees as floats or
grid columns. ``platform_spin`` is the platform's angular velocity and
acceleration in its own frame over a grid. The (3, 3) builders ``rot_x`` to
``euler_xyz`` (radians) serve only the homogeneous-chain FK that the oracle
suite checks the tip map against (``spherical.fk_tip_fixed_chain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GimbalProximityError, raise_first

#: Degrees of clearance required between |theta| and the 90 deg degeneracy.
GIMBAL_MARGIN_DEG = 1e-3

#: Default half-spacing of the instrument ports on the platform X' axis (mm).
DEFAULT_PORT_SPACING = 10.0

#: Bound (mm) on the magnitude of every length the tip map adds up: tip and
#: platform coordinates, port offsets and the insertion stroke. Below it no
#: step of the tip map or the IK can overflow.
MAX_COORDINATE = 1e300

#: Radians per degree, as math.radians and np.radians multiply by it.
_DEG = math.pi / 180.0


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


def platform_rotation(psi, theta, phi):
    """The entries of R (``euler_entries``) over grids of psi, theta and phi
    (deg); each may also be a float, held over the grid."""
    psi, theta, phi = _DEG * psi, _DEG * theta, _DEG * phi
    return euler_entries(
        np.cos(psi), np.sin(psi), np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    )


def platform_spin(theta, phi: float, pose_rates: np.ndarray, pose_accels: np.ndarray):
    """The platform's angular velocity W and acceleration W' in its own
    frame (rad/s, rad/s^2) over a theta grid (deg), phi held, from the
    (psi, theta) rates and accelerations (n, 2) in deg/s and deg/s^2.

    W = psi' a + theta' b with a = R^T e_x = (ct cph, -ct sph, st) and
    b = rot_z(phi)^T e_y = (sph, cph, 0); b is fixed, so
    W' = psi'' a + theta'' b + psi' theta' da/dtheta.
    """
    ct, st = np.cos(_DEG * theta), np.sin(_DEG * theta)
    cph, sph = math.cos(math.radians(phi)), math.sin(math.radians(phi))
    w_psi, w_theta = _DEG * pose_rates.T
    e_psi, e_theta = _DEG * pose_accels.T
    a = (ct * cph, -ct * sph, st)
    a_theta = (-st * cph, st * sph, ct)
    w = (w_psi * a[0] + w_theta * sph, w_psi * a[1] + w_theta * cph, w_psi * a[2])
    turn = w_psi * w_theta
    w_dot = (
        e_psi * a[0] + e_theta * sph + turn * a_theta[0],
        e_psi * a[1] + e_theta * cph + turn * a_theta[1],
        e_psi * a[2] + turn * a_theta[2],
    )
    return w, w_dot


class PortSide(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class PlatformPose:
    """Pose of the platform reference point: x, y, z in mm; psi, theta, phi
    are the X-Y-Z Euler angles in degrees."""

    x: float
    y: float
    z: float
    psi: float
    theta: float
    phi: float

    def __post_init__(self):
        for name in ("x", "y", "z", "psi", "theta", "phi"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"pose field {name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def angles_rad(self) -> tuple[float, float, float]:
        return (
            math.radians(self.psi),
            math.radians(self.theta),
            math.radians(self.phi),
        )

    @property
    def rotation_entries(self):
        """The nine entries of R = euler_xyz(*angles_rad), row by row."""
        psi, theta, phi = self.angles_rad
        return euler_entries(
            math.cos(psi), math.sin(psi), math.cos(theta), math.sin(theta),
            math.cos(phi), math.sin(phi),
        )


def _gimbal_error(t) -> GimbalProximityError:
    return GimbalProximityError(
        f"|theta| = {abs(t):.6g} deg is within {GIMBAL_MARGIN_DEG:g} deg of the 90 deg degeneracy")


def gimbal_guard(theta):
    """The guard (``errors``) on a pitch (deg), a float or a grid column,
    within the gimbal margin of +/-90 deg."""
    return abs(theta) >= 90.0 - GIMBAL_MARGIN_DEG, theta, _gimbal_error


def check_pose(pose: PlatformPose) -> None:
    """Raise when the pose pitch sits within the gimbal margin of +/-90 deg."""
    raise_first((gimbal_guard(pose.theta),))
