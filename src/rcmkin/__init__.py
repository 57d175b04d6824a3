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
    TaskRates,
    compensation_accels,
    compensation_rates,
    jacobian_rate,
    jacobians,
    singularity_measure,
    tip_rates,
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
    RcmPort,
    check_pose,
    endoscope_port,
    left_port,
    platform_matrix,
    rcm_fixed,
    right_port,
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
    fk_tip_fixed_chain,
    ik_full,
    ik_tip_platform,
    left_geometry,
    mirrored,
    module_matrix,
    right_geometry,
    tip_in_platform,
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
from .transforms import (
    apply_point,
    euler_xyz,
    euler_xyz_angles,
    is_rotation,
    last_column,
    rot_x,
    rot_y,
    rot_z,
    trans_z,
    vec3,
)

__version__ = "0.1.0"
