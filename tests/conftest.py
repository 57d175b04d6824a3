import numpy as np
import pytest

from rcmkin import PlatformPose, ProfileLimits, left_geometry

ROTATION_TOL = 1e-12


def is_rotation(r: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """True when r is orthonormal with determinant +1 within tol."""
    if r.shape != (3, 3):
        return False
    residual = float(np.abs(r.T @ r - np.eye(3)).max())
    det = float(np.cross(r[:, 0], r[:, 1]) @ r[:, 2])  # triple product of the columns
    return residual <= tol and abs(det - 1.0) <= tol


@pytest.fixture
def demo_pose():
    # Start pose of the bundled reorientation demo.
    return PlatformPose(15.0, 20.0, -500.0, -15.0, 10.0, -60.0)


@pytest.fixture
def demo_geometry():
    return left_geometry(alpha=10.0, beta=10.0, port_spacing=10.0)


@pytest.fixture
def demo_tip():
    return np.array([50.0, -50.0, -620.0])


@pytest.fixture
def demo_limits():
    return ProfileLimits(omega_max=10.0, eps_max=5.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
