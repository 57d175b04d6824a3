"""Exception types shared by the kinematics and planning modules."""


class KinematicsError(Exception):
    """Base class for kinematic and planning failures."""

    #: Time of the motion-plan sample that triggered the failure, if any.
    sample_time: float | None = None


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
