"""Exception types shared by the kinematics and planning modules, and the
readers of a guard: a rejection rule written once, as a triple (flags,
values, error) over one sample or a grid's (n,) columns. ``flags`` marks the
rejected samples; ``error(value)`` builds the exception from a sample's entry
of ``values``. A guard list holds a limit's guards in check order.
"""

from functools import reduce
from operator import or_


class KinematicsError(Exception):
    """Base class for kinematic and planning failures."""

    #: Time of the motion-plan sample that triggered the failure, if any.
    sample_time: float | None = None

    def at_sample(self, t: float) -> "KinematicsError":
        """This error as raised at the motion-plan sample of time t (s)."""
        timed = type(self)(f"at sample t = {t:.9g} s: {self}")
        timed.sample_time = t
        return timed


class GimbalProximityError(KinematicsError):
    """Platform pitch too close to the Euler parametrization degeneracy."""


class JointLimitError(KinematicsError):
    """A joint value lies outside its configured travel."""


class UnreachableError(KinematicsError):
    """Requested tip position lies outside the module workspace."""


class DegenerateInputError(KinematicsError):
    """Input too degenerate to solve (e.g. a zero-length tip vector)."""


class SingularConfigurationError(KinematicsError):
    """Normalized Jacobian determinant at or below the singularity threshold."""


class ProfileRangeError(KinematicsError):
    """Sample time outside a velocity profile's domain."""


class InvalidLimitsError(KinematicsError):
    """Motion limits or sampling step are not strictly positive, or are too
    large for a plan in floating point."""


class ScenarioError(Exception):
    """Base class for scenario-configuration failures."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ScenarioValidationError(ScenarioError):
    """Well-formed scenario violating an invariant; carries the field name."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def raise_first(guards) -> None:
    """Raise the error of the first guard in ``guards`` that flags its one
    sample."""
    for flags, value, error in guards:
        if flags:
            raise error(value)


def rejected(guards):
    """The samples of a grid that any guard in ``guards`` flags."""
    return reduce(or_, [flags for flags, _, _ in guards])
