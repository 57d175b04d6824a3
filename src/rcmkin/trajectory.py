"""Trapezoidal velocity profiling and the motion planners.

The reorientation planner (type 4) tilts the platform by (delta_psi,
delta_theta) while every configured instrument holds its tip position:
joints come from closed-form IK at every sample (drift free), rates and
accelerations from the velocity relation taken in the platform frame, where
it is a closed-form 3x3 system per sample (``differential.hold_motion``)
over the platform's rotation and spin (``platform.platform_rotation``,
``platform_spin``); B and B-dot (``validation.jacobians``,
``jacobian_rate``) are its oracle in ``rcmkin validate`` and the tests.
Insertion (type 2) and joint-space (type 3) planners run plain synchronized
trapezoids without compensation and without building B; their tips come
from ``spherical.tip_position``.

Both planners evaluate the time grid as array kernels, not sample by
sample, in blocks of at most ``_BLOCK`` samples so that memory stays bounded
up to ``MAX_SAMPLES``.

Plans are rejected -- with the offending sample time attached -- when a
sample is unreachable, violates a joint limit, or is singular, or when the
signed singularity measure sigma = -cos q2 cos beta changes sign between
consecutive samples (the plan would cross a singularity between them).
Along a type 2/3 trapezoid q2 is monotone, so a +/-90 deg crossing is
caught at the first sample past it. A type 4 plan holds one IK branch, on
which cos q2 keeps its sign, so only the |sigma| threshold can fire there.
The IK wraps q2 into (-180, 180]; on the mirror branch a type 4 plan
unwraps it by whole turns against the sample before, so q2 stays continuous
through +/-180 deg and is screened against its travel as it moves. The
screens read the guard lists that the scalar checks read
(``platform.gimbal_guard``, ``spherical.ik_guards`` and ``joint_guards``,
``differential.singular_guards``), one list per instrument over its grid
columns. A type 2/3 joint grid exists before any kinematics runs, so it is
screened once, whole, before any tip is computed. A type 4 plan solves IK
block by block and screens each block as it is solved, with sigma's sign and
q2 carried across blocks; a block's rates, accelerations and tips are
computed only after it passes, and are screened in turn for values past the
float range (limits near 1e308 can give them). ``_screen`` raises the error
of the earliest flagged sample, at equal samples the first instrument's, and
within that instrument's list the first guard's: the error, message and
sample time that checking sample by sample would.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from operator import or_
from typing import Sequence

import numpy as np

from .differential import hold_motion, signed_measure, singular_guards
from .errors import InvalidLimitsError, ProfileRangeError, rejected
from .platform import PlatformPose, check_pose, gimbal_guard, platform_rotation, platform_spin
from .spherical import (
    IK_GRID,
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    check_coordinates,
    check_joints,
    ik_guards,
    insertion,
    joint_guards,
    solve_ik,
    tip_position,
    tip_vector,
)

#: Grid-snapping slack when deciding how many dt steps cover a duration.
_GRID_TOL = 1e-9

#: Most samples one time grid may hold; larger requests fail before allocating.
MAX_SAMPLES = 1_000_000

#: Most samples the planners evaluate at once.
_BLOCK = 1024


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
        shape, peak, t_cruise = ProfileShape.TRIANGLE, math.sqrt(magnitude * eps), 0.0
    else:
        shape, peak, t_cruise = ProfileShape.TRAPEZOID, omega, (magnitude - ramp_span) / omega
    t_acc = peak / eps
    t_total = 2.0 * t_acc + t_cruise
    if not math.isfinite(t_total):  # a huge displacement under tiny limits overflows
        raise InvalidLimitsError(
            f"a displacement of {delta:.9g} under omega_max = {omega:.9g} and "
            f"eps_max = {eps:.9g} has no finite duration"
        )
    return TrapezoidProfile(delta, t_acc, t_cruise, t_total, sign * peak, sign * eps, shape)


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
    if scale < sys.float_info.min:  # 0 or subnormal: the stretch would lose its digits
        raise InvalidLimitsError(
            f"a {profile.t_total:.9g} s profile cannot be stretched to {t_total:.9g} s"
        )
    return TrapezoidProfile(
        profile.delta,
        profile.t_acc / scale,
        profile.t_cruise / scale,
        t_total,
        profile.peak_rate * scale,
        profile.accel * scale * scale,
        profile.shape,
    )


def sample_profile(profile: TrapezoidProfile, t):
    """Displacement, rate, and acceleration at time t within the profile.

    ``t`` may be an array of times; the three results then have its shape.
    """
    t = np.asarray(t, dtype=float)
    outside = ~((-_GRID_TOL <= t) & (t <= profile.t_total + _GRID_TOL))
    if outside.any():
        raise ProfileRangeError(
            f"t = {t[outside][0]:.9g} s outside the profile domain "
            f"[0, {profile.t_total:.9g}] s"
        )
    t = np.clip(t, 0.0, profile.t_total)
    accel, peak, t_acc = profile.accel, profile.peak_rate, profile.t_acc
    ramp = t < t_acc
    cruise = ~ramp & (t < t_acc + profile.t_cruise)
    # Each phase's formula sees only its own times (0 elsewhere), so that it
    # cannot overflow at another phase's times, where its value is not used.
    head = np.where(ramp, t, 0.0)
    cruising = np.where(cruise, t - t_acc, 0.0)
    tail = np.where(ramp | cruise, 0.0, profile.t_total - t)
    s = np.where(
        ramp,
        0.5 * accel * head * head,
        np.where(
            cruise,
            0.5 * accel * t_acc * t_acc + peak * cruising,
            profile.delta - 0.5 * accel * tail * tail,
        ),
    )
    v = np.where(ramp, accel * head, np.where(cruise, peak, accel * tail))
    a = np.where(ramp, accel, np.where(cruise, 0.0, -accel))
    return s[()], v[()], a[()]


@dataclass(frozen=True)
class InstrumentTrack:
    """Per-instrument time histories of one plan (rows align with the grid)."""

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
    time: np.ndarray  # (n,) seconds
    pose_grid: np.ndarray  # (n, 6): x, y, z in mm, psi, theta, phi in deg
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
    # Past 1e300 s, t_total * k could overflow: it is taken at 2**-20 scale,
    # which is exact, as steps < 2**20.
    scale = 2.0**20 if t_total > 1e300 else 1.0
    times = t_total / scale * np.arange(steps + 1) / steps * scale
    times[-1] = t_total
    return times


def _synchronized(deltas: Sequence[float], limits: ProfileLimits, dt: float):
    """One trapezoid per displacement, each stretched to the slowest one's
    duration, sampled on their time grid: the times (n,) and the
    displacements, rates and accelerations (n, k), one column per entry of
    ``deltas``."""
    profiles = [plan_profile(delta, limits) for delta in deltas]
    t_total = max(p.t_total for p in profiles)
    times = time_grid(t_total, dt)
    sampled = [sample_profile(stretch_profile(p, t_total), times) for p in profiles]
    return (times, *(np.column_stack(columns) for columns in zip(*sampled)))


def _screen(times: np.ndarray, guards: list[list]) -> None:
    """Raise the error of the earliest sample flagged by ``guards``, one guard
    list (``errors``) per instrument over the columns of ``times``: at that
    sample the first instrument's, and in its list the first guard's."""
    masks = [rejected(instrument) for instrument in guards]
    flagged = reduce(or_, masks)
    if not flagged.any():
        return
    i = int(np.argmax(flagged))
    k = next(k for k, mask in enumerate(masks) if mask[i])
    values, error = next((values, error) for flags, values, error in guards[k] if flags[i])
    # No local may hold the error: its traceback holds this frame (a cycle).
    raise error(values[i]).at_sample(times[i])


def _unwrapped(q2: np.ndarray, previous: float | None) -> np.ndarray:
    """q2 (deg) of a block shifted by whole turns so that no step from
    ``previous``, the unwrapped q2 before the block (or None), exceeds 180."""
    steps = np.diff(q2, prepend=q2[0] if previous is None else previous)
    turns = np.round(steps / 360.0).cumsum()
    return q2 - 360.0 * turns if turns.any() else q2


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
    is held constant across the whole plan, and q2 continuous through
    +/-180 deg.
    """
    check_pose(start)
    position = start.position
    targets = [np.asarray(tip, dtype=float) for _, tip in instruments]
    check_coordinates(position, *targets)
    offsets = [(target - position).tolist() for target in targets]
    position = position.tolist()
    times, moved, pose_rates, pose_accels = _synchronized((delta_psi, delta_theta), limits, dt)
    n = len(times)
    psi, theta = start.psi + moved[:, 0], start.theta + moved[:, 1]
    tracks = [
        InstrumentTrack(g, *(np.empty((n, 3)) for _ in range(4)), np.empty(n))
        for g, _ in instruments
    ]
    last_sigma, last_q2 = [math.nan] * len(tracks), [None] * len(tracks)

    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        rotation = platform_rotation(psi[block], theta[block], start.phi)
        gimbal = gimbal_guard(theta[block])
        solved, guards = [], []
        for track, d, previous, q2_before in zip(tracks, offsets, last_sigma, last_q2):
            v = tip_vector(rotation, d, track.geometry)
            joints, sin_q2 = solve_ik(v, track.geometry, branch, IK_GRID)
            if branch is IkBranch.MIRROR:  # a principal q2 stays within +/-90 deg
                joints = replace(joints, q2=_unwrapped(joints.q2, q2_before))
            sigma = signed_measure(joints, track.geometry)
            solved.append((joints, sigma))
            guards.append([
                gimbal,
                *ik_guards(joints, sin_q2, track.geometry),
                *singular_guards(sigma, previous),
            ])
        _screen(times[block], guards)

        with np.errstate(over="ignore", invalid="ignore"):  # screened just below
            spin = platform_spin(theta[block], start.phi, pose_rates[block], pose_accels[block])
            motions = [hold_motion(rotation, spin, joints, track.geometry, position)
                       for track, (joints, _) in zip(tracks, solved)]
        beyond_floats = [np.isfinite(np.hstack(m[:2])).all(axis=1) ^ True for m in motions]
        _screen(times[block], [[(flags, flags, lambda _: InvalidLimitsError(
            "joint rates or accelerations exceed the float range; lower omega_max or eps_max"
        ))] for flags in beyond_floats])
        for k, (track, (joints, sigma), motion) in enumerate(zip(tracks, solved, motions)):
            track.joints[block] = np.column_stack([joints.q1, joints.q2, joints.q3])
            track.rates[block], track.accels[block], track.tip[block] = motion
            track.sing[block] = np.abs(sigma)
            last_sigma[k], last_q2[k] = sigma[-1], joints.q2[-1]

    return MotionPlan(
        kind=MotionType.REORIENT,
        time=times,
        pose_grid=np.column_stack(
            np.broadcast_arrays(start.x, start.y, start.z, psi, theta, start.phi)
        ),
        pose_rates=pose_rates,
        pose_accels=pose_accels,
        instruments=tuple(tracks),
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
    check_coordinates(pose.position)
    check_joints(start, geometry)
    check_joints(target, geometry)
    times, moved, rates, accels = _synchronized(
        (target.q1 - start.q1, target.q2 - start.q2, target.q3 - start.q3), limits, dt
    )
    n = len(times)
    grid = np.array([start.q1, start.q2, start.q3]) + moved
    joints = SphericalJoints(*grid.T)
    sigma = signed_measure(joints, geometry)
    _screen(times, [joint_guards(joints, geometry) + singular_guards(sigma)])

    r, position = pose.rotation_entries, (pose.x, pose.y, pose.z)
    tip = np.empty((n, 3))
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        q1, q2 = np.radians(joints.q1[block]), np.radians(joints.q2[block])
        m = insertion(np.cos(q1), np.sin(q1), np.cos(q2), np.sin(q2), geometry)
        tip[block] = np.column_stack(tip_position(r, m, joints.q3[block], geometry, position))

    return MotionPlan(
        kind=kind,
        time=times,
        pose_grid=np.tile([pose.x, pose.y, pose.z, pose.psi, pose.theta, pose.phi], (n, 1)),
        pose_rates=np.zeros((n, 2)),
        pose_accels=np.zeros((n, 2)),
        instruments=(
            InstrumentTrack(geometry, grid, rates, accels, tip, np.abs(sigma)),
        ),
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
