"""Mobile-platform pose and its gimbal check.

The platform carries the endoscope through its reference point and the two
instrument RCM ports offset along its X' axis (each module's
``SphericalGeometry.offset`` and ``side``). Poses are position (mm) plus
X-Y-Z Euler angles (degrees); the pitch angle is kept away from +/-90 deg
where that parametrization degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GimbalProximityError
from .transforms import euler_entries

#: Degrees of clearance required between |theta| and the 90 deg degeneracy.
GIMBAL_MARGIN_DEG = 1e-3

#: Default half-spacing of the instrument ports on the platform X' axis (mm).
DEFAULT_PORT_SPACING = 10.0

#: Bound (mm) on the magnitude of every length the tip map adds up: tip and
#: platform coordinates, port offsets and the insertion stroke. Below it no
#: step of the tip map or the IK can overflow.
MAX_COORDINATE = 1e300


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


def near_gimbal(theta):
    """Whether a pitch (deg) sits within the gimbal margin of +/-90 deg; a
    grid of pitches gives a mask. check_pose and the planners' screens read it."""
    return abs(theta) >= 90.0 - GIMBAL_MARGIN_DEG


def check_pose(pose: PlatformPose) -> None:
    """Raise when the pose pitch sits within the gimbal margin of +/-90 deg."""
    if near_gimbal(pose.theta):
        raise GimbalProximityError(
            f"|theta| = {abs(pose.theta):.6g} deg is within "
            f"{GIMBAL_MARGIN_DEG:g} deg of the 90 deg degeneracy"
        )
