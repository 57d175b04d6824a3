"""Trapezoidal velocity profiling and the motion planners.

The reorientation planner (type 4) tilts the platform by (delta_psi,
delta_theta) while every configured instrument holds its tip position:
joints come from per-sample closed-form IK (drift free), rates from the
compensation solver, accelerations from the differentiated velocity
relation. Insertion (type 2) and joint-space (type 3) planners run plain
synchronized trapezoids without compensation and without building B.

Plans are rejected -- with the offending sample time attached -- when a
sample is unreachable, violates a joint limit, or is singular, or when the
signed singularity measure sigma = -cos q2 cos beta changes sign between
consecutive samples (the plan would cross a singularity between them).
Along a type 2/3 trapezoid q2 is monotone, so a +/-90 deg crossing is
caught at the first sample past it. A type 4 plan holds one IK branch, on
which cos q2 keeps its sign, so only the |sigma| threshold can fire there.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import differential
from .differential import (
    InputRates,
    check_nonsingular,
    jacobian_rate,
    jacobians,
    signed_measure,
)
from .errors import (
    InvalidLimitsError,
    KinematicsError,
    ProfileRangeError,
    SingularConfigurationError,
)
from .platform import PlatformPose, check_pose
from .spherical import (
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    check_joints,
    fk_tip_fixed,
    ik_full,
)

#: Grid-snapping slack when deciding how many dt steps cover a duration.
_GRID_TOL = 1e-9

#: Most samples one time grid may hold; larger requests fail before allocating.
MAX_SAMPLES = 1_000_000


class MotionType(Enum):
    INSERT = 2
    MANIPULATE = 3
    REORIENT = 4


class ProfileShape(Enum):
    TRAPEZOID = "trapezoid"
    TRIANGLE = "triangle"
    NULL = "null"


@dataclass(frozen=True)
class ProfileLimits:
    """Peak rate and acceleration of a profile, in the moved coordinate's
    units per second (deg/s for angles, mm/s for insertion)."""

    omega_max: float
    eps_max: float

    def __post_init__(self):
        if not (self.omega_max > 0.0 and math.isfinite(self.omega_max)):
            raise InvalidLimitsError("omega_max must be a positive finite rate")
        if not (self.eps_max > 0.0 and math.isfinite(self.eps_max)):
            raise InvalidLimitsError("eps_max must be a positive finite acceleration")


@dataclass(frozen=True)
class TrapezoidProfile:
    """Rest-to-rest trapezoidal velocity profile for a signed displacement.

    ``accel`` is the signed ramp acceleration actually used; triangles never
    reach the rate limit and a null profile holds position (possibly for a
    stretched, nonzero duration).
    """

    delta: float
    t_acc: float
    t_cruise: float
    t_total: float
    peak_rate: float
    accel: float
    shape: ProfileShape


def plan_profile(delta: float, limits: ProfileLimits) -> TrapezoidProfile:
    """Minimum-time trapezoid for a signed displacement under the limits."""
    if not math.isfinite(delta):
        raise InvalidLimitsError("displacement must be finite")
    magnitude = abs(delta)
    if magnitude == 0.0:
        return TrapezoidProfile(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ProfileShape.NULL)
    sign = 1.0 if delta > 0 else -1.0
    omega, eps = limits.omega_max, limits.eps_max
    ramp_span = omega * omega / eps  # distance covered by ramp-up plus ramp-down
    if magnitude < ramp_span:
        peak = math.sqrt(magnitude * eps)
        t_acc = peak / eps
        return TrapezoidProfile(
            delta, t_acc, 0.0, 2.0 * t_acc, sign * peak, sign * eps, ProfileShape.TRIANGLE
        )
    t_acc = omega / eps
    t_cruise = (magnitude - ramp_span) / omega
    return TrapezoidProfile(
        delta,
        t_acc,
        t_cruise,
        2.0 * t_acc + t_cruise,
        sign * omega,
        sign * eps,
        ProfileShape.TRAPEZOID,
    )


def stretch_profile(profile: TrapezoidProfile, t_total: float) -> TrapezoidProfile:
    """Time-stretch a profile to a longer duration.

    Displacement and shape are preserved; rates scale by the time ratio and
    accelerations by its square, so the stretched profile still respects any
    limits the original did.
    """
    if t_total < profile.t_total - _GRID_TOL:
        raise InvalidLimitsError("cannot stretch a profile to a shorter duration")
    if profile.t_total == 0.0:
        # Null profile held for the requested duration.
        return replace(profile, t_cruise=t_total, t_total=t_total)
    scale = profile.t_total / t_total
    if scale == 1.0:
        return profile
    return TrapezoidProfile(
        profile.delta,
        profile.t_acc / scale,
        profile.t_cruise / scale,
        t_total,
        profile.peak_rate * scale,
        profile.accel * scale * scale,
        profile.shape,
    )


def sample_profile(profile: TrapezoidProfile, t: float) -> tuple[float, float, float]:
    """Displacement, rate, and acceleration at time t within the profile."""
    if not -_GRID_TOL <= t <= profile.t_total + _GRID_TOL:
        raise ProfileRangeError(
            f"t = {t:.9g} s outside the profile domain [0, {profile.t_total:.9g}] s"
        )
    t = min(max(t, 0.0), profile.t_total)
    accel, peak = profile.accel, profile.peak_rate
    if t < profile.t_acc:
        return 0.5 * accel * t * t, accel * t, accel
    if t < profile.t_acc + profile.t_cruise:
        ramp = 0.5 * accel * profile.t_acc * profile.t_acc
        return ramp + peak * (t - profile.t_acc), peak, 0.0
    tail = profile.t_total - t
    return profile.delta - 0.5 * accel * tail * tail, accel * tail, -accel


@dataclass(frozen=True)
class InstrumentTrack:
    """Per-instrument time histories of one plan (rows align with the grid)."""

    name: str
    geometry: SphericalGeometry
    joints: np.ndarray  # (n, 3): q1, q2 in deg, q3 in mm
    rates: np.ndarray  # (n, 3): deg/s, deg/s, mm/s
    accels: np.ndarray  # (n, 3)
    tip: np.ndarray  # (n, 3): fixed-frame tip, mm
    sing: np.ndarray  # (n,): normalized singularity measure


@dataclass(frozen=True)
class MotionPlan:
    """Time-sampled plan on a uniform grid with inclusive endpoints.

    First and last sample rates are zero (rest-to-rest profiles). For
    reorientation plans the tip rows are constant and the pose position and
    phi are bitwise constant; insertion/manipulation plans move the tips by
    design.
    """

    kind: MotionType
    dt: float
    time: np.ndarray  # (n,) seconds
    poses: tuple[PlatformPose, ...]
    pose_rates: np.ndarray  # (n, 2): psi_dot, theta_dot in deg/s
    pose_accels: np.ndarray  # (n, 2): deg/s^2
    instruments: tuple[InstrumentTrack, ...]

    @property
    def duration(self) -> float:
        return float(self.time[-1])

    @property
    def samples(self) -> int:
        return len(self.time)


def time_grid(t_total: float, dt: float) -> np.ndarray:
    """Uniform sample times over [0, t_total] with inclusive endpoints: the
    fewest steps no longer than dt, at most MAX_SAMPLES samples."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidLimitsError("dt must be a positive finite step")
    if t_total <= 0.0:
        return np.zeros(1)
    steps = t_total / dt - _GRID_TOL
    if steps > MAX_SAMPLES - 1:
        raise InvalidLimitsError(
            f"dt = {dt:.6g} s needs more than {MAX_SAMPLES} samples over {t_total:.9g} s"
        )
    steps = max(1, math.ceil(steps))
    times = t_total * np.arange(steps + 1) / steps
    times[-1] = t_total
    return times


@contextmanager
def _at_sample(t: float):
    """Re-raise a kinematic failure inside the block with the sample time."""
    try:
        yield
    except KinematicsError as exc:
        wrapped = type(exc)(f"at sample t = {t:.9g} s: {exc}")
        wrapped.sample_time = t
        raise wrapped from None


class _TrackBuilder:
    """Fills one instrument's track row by row and enforces the singularity
    guard."""

    def __init__(self, geometry: SphericalGeometry, samples: int):
        self.track = InstrumentTrack(
            geometry.port.side.value,
            geometry,
            np.empty((samples, 3)),
            np.zeros((samples, 3)),
            np.zeros((samples, 3)),
            np.empty((samples, 3)),
            np.empty(samples),
        )
        self._prev_sigma = None

    def guard(self, sigma: float) -> float:
        """|sigma| of this sample, checked against the threshold and against
        a sign change since the previous sample."""
        measure = check_nonsingular(sigma)
        if self._prev_sigma is not None and sigma * self._prev_sigma < 0.0:
            raise SingularConfigurationError(
                "joint-block determinant changed sign since the previous "
                "sample; the motion crosses a singularity between samples"
            )
        self._prev_sigma = sigma
        return measure

    def store(self, i, joints, rates, accels, tip, measure):
        track = self.track
        track.joints[i] = (joints.q1, joints.q2, joints.q3)
        track.rates[i] = rates
        track.accels[i] = accels
        track.tip[i] = tip
        track.sing[i] = measure


def plan_type4(
    start: PlatformPose,
    delta_psi: float,
    delta_theta: float,
    limits: ProfileLimits,
    dt: float,
    instruments: Sequence[tuple[SphericalGeometry, np.ndarray]],
    branch: IkBranch = IkBranch.PRINCIPAL,
) -> MotionPlan:
    """Reorient the platform while every instrument tip holds position.

    Both angles follow trapezoids stretched to the slower axis's duration,
    so the platform performs one synchronized motion. The pose position and
    phi are carried through untouched. ``instruments`` pairs each module's
    geometry with the fixed-frame tip it must preserve; the arcsine branch
    is held constant across the whole plan.
    """
    check_pose(start)
    profile_psi = plan_profile(delta_psi, limits)
    profile_theta = plan_profile(delta_theta, limits)
    t_total = max(profile_psi.t_total, profile_theta.t_total)
    profile_psi = stretch_profile(profile_psi, t_total)
    profile_theta = stretch_profile(profile_theta, t_total)

    times = time_grid(t_total, dt)
    n = len(times)
    poses: list[PlatformPose] = []
    pose_rates = np.empty((n, 2))
    pose_accels = np.empty((n, 2))
    targets = [np.asarray(tip, dtype=float) for _, tip in instruments]
    builders = [_TrackBuilder(g, n) for g, _ in instruments]

    for i, t in enumerate(times):
        s_psi, v_psi, a_psi = sample_profile(profile_psi, t)
        s_theta, v_theta, a_theta = sample_profile(profile_theta, t)
        pose = replace(start, psi=start.psi + s_psi, theta=start.theta + s_theta)
        poses.append(pose)
        pose_rates[i] = (v_psi, v_theta)
        pose_accels[i] = (a_psi, a_theta)

        for builder, target in zip(builders, targets):
            geometry = builder.track.geometry
            with _at_sample(t):
                joints = ik_full(pose, target, geometry, branch)
                pair = jacobians(pose, joints, geometry)
                measure = builder.guard(pair.sigma)
                qd = differential.compensation_rates(pair, v_psi, v_theta)
                rates = InputRates(
                    q1_dot=qd[0],
                    q2_dot=qd[1],
                    q3_dot=qd[2],
                    psi_dot=v_psi,
                    theta_dot=v_theta,
                    psi_ddot=a_psi,
                    theta_ddot=a_theta,
                )
                b_dot = jacobian_rate(pose, joints, geometry, rates)
                qdd = differential.compensation_accels(pair, b_dot, rates)
                tip_now = fk_tip_fixed(pose, joints, geometry)
            builder.store(i, joints, qd, qdd, tip_now, measure)

    return MotionPlan(
        kind=MotionType.REORIENT,
        dt=dt,
        time=times,
        poses=tuple(poses),
        pose_rates=pose_rates,
        pose_accels=pose_accels,
        instruments=tuple(b.track for b in builders),
    )


def _plan_joint_space(
    kind: MotionType,
    pose: PlatformPose,
    start: SphericalJoints,
    target: SphericalJoints,
    geometry: SphericalGeometry,
    limits: ProfileLimits,
    dt: float,
) -> MotionPlan:
    """Shared body of the insertion and joint-space planners."""
    check_pose(pose)
    check_joints(start, geometry)
    check_joints(target, geometry)
    profiles = [
        plan_profile(target.q1 - start.q1, limits),
        plan_profile(target.q2 - start.q2, limits),
        plan_profile(target.q3 - start.q3, limits),
    ]
    t_total = max(p.t_total for p in profiles)
    profiles = [stretch_profile(p, t_total) for p in profiles]

    times = time_grid(t_total, dt)
    n = len(times)
    builder = _TrackBuilder(geometry, n)
    origin = (start.q1, start.q2, start.q3)

    for i, t in enumerate(times):
        moved, rates, accels = zip(*(sample_profile(p, t) for p in profiles))
        joints = SphericalJoints(*(o + s for o, s in zip(origin, moved)))
        with _at_sample(t):
            tip_now = fk_tip_fixed(pose, joints, geometry)
            measure = builder.guard(signed_measure(joints, geometry))
        builder.store(i, joints, rates, accels, tip_now, measure)

    return MotionPlan(
        kind=kind,
        dt=dt,
        time=times,
        poses=tuple([pose] * n),
        pose_rates=np.zeros((n, 2)),
        pose_accels=np.zeros((n, 2)),
        instruments=(builder.track,),
    )


def plan_type2_insert(
    pose: PlatformPose,
    start: SphericalJoints,
    target_q3: float,
    geometry: SphericalGeometry,
    limits: ProfileLimits,
    dt: float,
) -> MotionPlan:
    """Insert or retract along the instrument axis: a q3 trapezoid with q1
    and q2 held; limits are interpreted in mm/s and mm/s^2."""
    target = replace(start, q3=float(target_q3))
    return _plan_joint_space(MotionType.INSERT, pose, start, target, geometry, limits, dt)


def plan_type3_manipulate(
    pose: PlatformPose,
    start: SphericalJoints,
    target: SphericalJoints,
    geometry: SphericalGeometry,
    limits: ProfileLimits,
    dt: float,
) -> MotionPlan:
    """Move the module joints to a target set: independent per-joint
    trapezoids synchronized to the slowest joint, no compensation."""
    return _plan_joint_space(MotionType.MANIPULATE, pose, start, target, geometry, limits, dt)
