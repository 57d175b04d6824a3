"""Kinematics and batch simulation for a parallel-platform surgical robot
whose instruments ride spherical remote-center-of-motion modules.

The platform pose is the interface to the positioning robot; this package
maps poses and module joints to instrument tips (forward and closed-form
inverse), differentiates that map for rate/acceleration compensation, and
plans reorientation motions that keep instrument tips stationary.
"""

from .differential import (
    SIGMA_MIN,
    InputRates,
    JacobianPair,
    compensation_accels,
    compensation_rates,
    jacobian_rate,
    jacobians,
)
from .errors import (
    DegenerateInputError,
    GimbalProximityError,
    InvalidLimitsError,
    JointLimitError,
    KinematicsError,
    ProfileRangeError,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    SingularConfigurationError,
    UnreachableError,
)
from .platform import (
    GIMBAL_MARGIN_DEG,
    PlatformPose,
    PortSide,
    check_pose,
)
from .scenario import (
    InstrumentSetup,
    Scenario,
    bundled_scenario,
    endoscope_tips,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from .spherical import (
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    check_joints,
    fk_tip_fixed,
    ik_full,
    ik_tip_platform,
    left_geometry,
    mirrored,
    right_geometry,
)
from .trajectory import (
    InstrumentTrack,
    MotionPlan,
    MotionType,
    ProfileLimits,
    ProfileShape,
    TrapezoidProfile,
    plan_profile,
    plan_type2_insert,
    plan_type3_manipulate,
    plan_type4,
    sample_profile,
    stretch_profile,
)
__version__ = "0.1.0"
