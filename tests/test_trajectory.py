import gc
import math

import numpy as np
import pytest

from rcmkin import (
    GimbalProximityError,
    InvalidLimitsError,
    JointLimitError,
    KinematicsError,
    PlatformPose,
    PortSide,
    ProfileLimits,
    ProfileRangeError,
    ProfileShape,
    SingularConfigurationError,
    SphericalJoints,
    UnreachableError,
    fk_tip_fixed,
    left_geometry,
    plan_profile,
    plan_type2_insert,
    plan_type3_manipulate,
    plan_type4,
    sample_profile,
    stretch_profile,
)
from rcmkin.errors import raise_first
from rcmkin.platform import gimbal_guard
from rcmkin.spherical import ik_guards
from rcmkin.trajectory import _screen, time_grid


def test_profile_trapezoid_case(demo_limits):
    p = plan_profile(25.0, demo_limits)
    assert p.shape is ProfileShape.TRAPEZOID
    assert p.t_acc == pytest.approx(2.0, abs=1e-12)
    assert p.t_cruise == pytest.approx(0.5, abs=1e-12)
    assert p.t_total == pytest.approx(4.5, abs=1e-12)
    assert p.peak_rate == pytest.approx(10.0, abs=1e-12)


def test_profile_null_case(demo_limits):
    p = plan_profile(0.0, demo_limits)
    assert p.shape is ProfileShape.NULL
    assert p.t_total == 0.0


def test_profile_triangle_case(demo_limits):
    p = plan_profile(15.0, demo_limits)
    assert p.shape is ProfileShape.TRIANGLE
    assert p.peak_rate == pytest.approx(math.sqrt(75.0), abs=1e-12)
    assert p.t_total == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)


def test_profile_negative_delta(demo_limits):
    p = plan_profile(-25.0, demo_limits)
    assert p.peak_rate == pytest.approx(-10.0)
    s, v, a = sample_profile(p, p.t_total)
    assert s == pytest.approx(-25.0, abs=1e-12)


def test_invalid_limits_rejected():
    with pytest.raises(InvalidLimitsError):
        ProfileLimits(-1.0, 5.0)
    with pytest.raises(InvalidLimitsError):
        ProfileLimits(10.0, 0.0)


def test_sample_profile_boundaries(demo_limits):
    p = plan_profile(25.0, demo_limits)
    assert sample_profile(p, 0.0) == (0.0, 0.0, 5.0)
    s, v, a = sample_profile(p, 2.0)  # end of the ramp
    assert (s, v, a) == pytest.approx((10.0, 10.0, 0.0), abs=1e-12)
    s, v, a = sample_profile(p, p.t_total)
    assert (s, v) == pytest.approx((25.0, 0.0), abs=1e-12)
    assert a == pytest.approx(-5.0)


def test_sample_profile_out_of_range(demo_limits):
    p = plan_profile(25.0, demo_limits)
    with pytest.raises(ProfileRangeError):
        sample_profile(p, -0.1)
    with pytest.raises(ProfileRangeError):
        sample_profile(p, p.t_total + 0.1)


@pytest.mark.parametrize(
    "delta, limits, dt",
    [
        # t_acc is about 1e-307 s: the ramp's accel * t * t at later times.
        (50.0, ProfileLimits(10.0, 1e308), 0.01),
        # The cruise's peak * (t - t_acc) at t_total is about -delta.
        (-1.7976931348623157e308, ProfileLimits(97.5, 62.25), 1e308),
    ],
)
def test_sample_profile_stays_finite_near_the_float_range(delta, limits, dt):
    # A phase's formula evaluated at another phase's times once overflowed
    # (a warning, an error under -W error) before its value was discarded.
    p = plan_profile(delta, limits)
    s, v, a = sample_profile(p, time_grid(p.t_total, dt))
    assert np.isfinite(s).all() and np.isfinite(v).all()
    assert s[-1] == delta and v[-1] == 0.0
    assert a[0] == -a[-1] == math.copysign(p.accel, delta)


def test_time_grid_of_a_duration_near_the_float_range():
    # t_total * k once overflowed for k = 2; the grid is taken at a
    # power-of-two scale there, which leaves its values exact.
    times = time_grid(1.7e308, 1e308)
    assert times.tolist() == [0.0, 0.85e308, 1.7e308]


def test_stretching_past_the_float_range_is_rejected():
    # The time ratio 2e-150 / 1e200 underflows to 0; dividing by it raised
    # ZeroDivisionError.
    p = plan_profile(1e-300, ProfileLimits(1.0, 1.0))
    with pytest.raises(InvalidLimitsError, match="cannot be stretched"):
        stretch_profile(p, 1e200)


def test_profile_velocity_integrates_to_delta(demo_limits):
    for delta in (25.0, 15.0, -18.3, 40.0, 0.5):
        p = plan_profile(delta, demo_limits)
        ts = np.linspace(0.0, p.t_total, 20001)
        vs = sample_profile(p, ts)[1]
        integral = float(np.trapezoid(vs, ts))
        dt = ts[1] - ts[0]
        assert integral == pytest.approx(delta, abs=10 * dt * dt + 1e-12)


def test_stretch_profile_preserves_displacement(demo_limits):
    p = stretch_profile(plan_profile(15.0, demo_limits), 4.5)
    assert p.t_total == pytest.approx(4.5)
    assert 2 * p.t_acc + p.t_cruise == pytest.approx(p.t_total, abs=1e-12)
    s, v, _ = sample_profile(p, 4.5)
    assert s == pytest.approx(15.0, abs=1e-12)
    assert v == 0.0
    assert abs(p.peak_rate) <= demo_limits.omega_max
    assert abs(p.accel) <= demo_limits.eps_max


def test_stretch_cannot_shorten(demo_limits):
    with pytest.raises(InvalidLimitsError):
        stretch_profile(plan_profile(25.0, demo_limits), 1.0)


def test_type4_demo_plan(demo_pose, demo_geometry, demo_tip, demo_limits):
    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01,
                      [(demo_geometry, demo_tip)])
    assert plan.samples == 451
    assert plan.duration == 4.5
    end = PlatformPose(*plan.pose_grid[-1])
    assert end.psi == 0.0
    assert end.theta == 35.0
    drift = np.abs(plan.instruments[0].tip - plan.instruments[0].tip[0]).max()
    assert drift <= 1e-9


def test_type4_zero_delta_single_sample(demo_pose, demo_geometry, demo_tip, demo_limits):
    plan = plan_type4(demo_pose, 0.0, 0.0, demo_limits, 0.01,
                      [(demo_geometry, demo_tip)])
    assert plan.samples == 1
    assert PlatformPose(*plan.pose_grid[0]) == demo_pose
    assert np.array_equal(plan.pose_rates, [[0.0, 0.0]])


def test_type4_holds_a_tip_placed_with_q3_at_its_travel_end(demo_limits):
    pose = PlatformPose(0, 0, -300, 0, 0, 0)
    g = left_geometry(alpha=0.0, beta=2.0, port_spacing=5.0)
    tip = fk_tip_fixed(pose, SphericalJoints(0.0, -88.0, 300.0), g)
    plan = plan_type4(pose, 0.0, 0.0, demo_limits, 0.01, [(g, tip)])
    assert plan.instruments[0].joints[0, 2] == pytest.approx(300.0, abs=1e-9)


def test_type4_holds_position_and_phi_bitwise(demo_pose, demo_geometry, demo_tip,
                                              demo_limits):
    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.05,
                      [(demo_geometry, demo_tip)])
    for pose in (PlatformPose(*row) for row in plan.pose_grid):
        assert (pose.x, pose.y, pose.z, pose.phi) == (
            demo_pose.x, demo_pose.y, demo_pose.z, demo_pose.phi
        )


def test_type4_boundary_rates_zero(demo_pose, demo_geometry, demo_tip, demo_limits):
    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01,
                      [(demo_geometry, demo_tip)])
    assert np.array_equal(plan.pose_rates[0], [0.0, 0.0])
    assert np.array_equal(plan.pose_rates[-1], [0.0, 0.0])
    assert np.abs(plan.instruments[0].rates[[0, -1]]).max() == 0.0


def test_type4_rates_match_joint_differences(demo_pose, demo_geometry, demo_tip,
                                             demo_limits):
    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.001,
                      [(demo_geometry, demo_tip)])
    track = plan.instruments[0]
    h = plan.time[1] - plan.time[0]
    inner = slice(1, plan.samples - 1)
    # Profile accelerations jump at the segment boundaries (theta ramp ends,
    # stretched-psi apex); finite differences are ill-posed across a jump.
    kink_times = (2.0, 2.25, 2.5)
    keep = np.array([
        all(abs(t - k) > 1.5 * h for k in kink_times) for t in plan.time[inner]
    ])
    central = (track.joints[2:] - track.joints[:-2]) / (2 * h)
    assert np.abs(central[keep] - track.rates[inner][keep]).max() <= 1e-4
    second = (track.joints[2:] - 2 * track.joints[1:-1] + track.joints[:-2]) / h**2
    assert np.abs(second[keep] - track.accels[inner][keep]).max() <= 1e-3


def test_type4_reversed_plan_returns_to_start(demo_pose, demo_geometry, demo_tip,
                                              demo_limits):
    forward = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01,
                         [(demo_geometry, demo_tip)])
    back = plan_type4(PlatformPose(*forward.pose_grid[-1]), -15.0, -25.0, demo_limits, 0.01,
                      [(demo_geometry, demo_tip)])
    assert np.allclose(back.instruments[0].joints[-1],
                       forward.instruments[0].joints[0], atol=1e-9)
    end = PlatformPose(*back.pose_grid[-1])
    assert end.psi == pytest.approx(demo_pose.psi, abs=1e-12)
    assert end.theta == pytest.approx(demo_pose.theta, abs=1e-12)


def test_type4_branch_stable_joint_continuity(demo_pose, demo_geometry, demo_tip,
                                              demo_limits):
    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01,
                      [(demo_geometry, demo_tip)])
    steps = np.abs(np.diff(plan.instruments[0].joints, axis=0)).max()
    assert steps < 1.0  # no solution-branch jumps between samples


def test_type4_two_instruments(demo_pose, demo_limits):
    from rcmkin import mirrored

    left = left_geometry()
    right = mirrored(left)
    tips = [np.array([50.0, -50.0, -620.0]), np.array([-20.0, -50.0, -620.0])]
    plan = plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.05,
                      [(left, tips[0]), (right, tips[1])])
    assert [t.geometry.side for t in plan.instruments] == [PortSide.LEFT, PortSide.RIGHT]
    for track, tip in zip(plan.instruments, tips):
        assert np.abs(track.tip - tip).max() <= 1e-9


def test_type4_unreachable_reports_sample_time(demo_pose, demo_limits):
    g = left_geometry(q3_max=152.0)  # the demo path needs q3 up to ~151.04
    tip = np.array([50.0, -50.0, -624.0])  # slightly deeper: exceeds the stroke
    with pytest.raises(JointLimitError) as err:
        plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01, [(g, tip)])
    assert err.value.sample_time is not None


def _plan_rejected_at_a_sample(demo_pose, demo_limits, motion):
    if motion == "type4":
        tip = np.array([50.0, -50.0, -624.0])
        plan_type4(demo_pose, 15.0, 25.0, demo_limits, 0.01,
                   [(left_geometry(q3_max=152.0), tip)])
    else:  # q2 crosses the singular 90 deg
        plan_type3_manipulate(demo_pose, SphericalJoints(0.0, 0.0, 150.0),
                              SphericalJoints(0.0, 95.0, 150.0),
                              left_geometry(q2_limit=120.0), demo_limits, 0.01)


def _flag(samples, error):
    # A synthetic guard over a 4-sample grid that flags the given samples and
    # names the guard and the sample in its message.
    flags = np.isin(np.arange(4), samples)
    return flags, np.arange(4.0), lambda i: error(f"{error.__name__} at {i:g}")


def _screened(guards):
    with pytest.raises(KinematicsError) as err:
        _screen(np.array([0.0, 0.5, 1.0, 1.5]), guards)
    return type(err.value), str(err.value), err.value.sample_time


def test_screen_raises_the_earliest_sample_then_instrument_then_guard():
    passing = [[_flag([], UnreachableError)], [_flag([], JointLimitError)]]
    assert _screen(np.zeros(4), passing) is None
    # The earliest sample wins over the instrument and the guard order.
    assert _screened([[_flag([3], UnreachableError)], [_flag([2], JointLimitError)]]) == (
        JointLimitError, "at sample t = 1 s: JointLimitError at 2", 1.0)
    # At one sample, the first instrument flagged there.
    assert _screened([[_flag([1, 2], UnreachableError)], [_flag([1], JointLimitError)]]) == (
        UnreachableError, "at sample t = 0.5 s: UnreachableError at 1", 0.5)
    # Within one instrument, the first guard in its list flagged there.
    instrument = [_flag([3], SingularConfigurationError), _flag([2], UnreachableError),
                  _flag([2, 3], JointLimitError)]
    assert _screened([[_flag([], GimbalProximityError)], instrument]) == (
        UnreachableError, "at sample t = 1 s: UnreachableError at 2", 1.0)


def test_screen_puts_the_gimbal_guard_ahead_of_the_ik():
    # Sample 1 is past the gimbal margin and, with q3 past q3_max, past the
    # travel too: the gimbal guard heads the list, so it wins.
    theta = np.array([0.0, 89.9995, 0.0, 0.0])
    joints = SphericalJoints(np.zeros(4), np.zeros(4), np.array([100.0, 400.0, 400.0, 100.0]))
    guards = [gimbal_guard(theta), *ik_guards(joints, np.zeros(4), left_geometry())]
    error, message, t = _screened([guards])
    assert (error, t) == (GimbalProximityError, 0.5)
    with pytest.raises(GimbalProximityError) as scalar:
        raise_first([gimbal_guard(89.9995)])
    assert message == f"at sample t = 0.5 s: {scalar.value}"
    # Without the gimbal guard, the travel of the same sample is raised.
    assert _screened([guards[1:]])[:2] == (
        JointLimitError, "at sample t = 0.5 s: q3 = 400 mm outside [0, 300] mm")


@pytest.mark.parametrize("motion, error", [("type4", JointLimitError),
                                           ("type3", SingularConfigurationError)])
def test_rejection_leaves_no_reference_cycle(demo_pose, demo_limits, motion, error):
    # A cycle through the error's traceback would keep the planner's frame and
    # its grids alive until the cyclic garbage collector next runs.
    sample_time = None
    gc.collect()
    gc.disable()
    try:
        try:
            _plan_rejected_at_a_sample(demo_pose, demo_limits, motion)
        except error as exc:
            sample_time = exc.sample_time
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert sample_time is not None
    assert unreachable == 0


def test_type4_rejects_joint_accelerations_past_the_float_range(
    demo_pose, demo_geometry, demo_tip
):
    # The platform decelerates at 1e308 deg/s^2 on the last sample; the joint
    # accelerations holding the tip would overflow to inf.
    with pytest.raises(InvalidLimitsError, match="exceed the float range") as error:
        plan_type4(demo_pose, 15.0, 25.0, ProfileLimits(10.0, 1e308), 0.01,
                   [(demo_geometry, demo_tip)])
    assert error.value.sample_time == 2.5


@pytest.mark.parametrize(
    "start, tip",
    [
        (PlatformPose(-1e308, 0, -500, 0, 0, 0), [1.7e308, 1.7e308, 0.0]),
        (PlatformPose(0, 0, -500, 0, 0, 0), [math.nan, 0.0, -600.0]),
        (PlatformPose(0, 0, -500, 0, 0, 0), [10.0, -math.inf, -600.0]),
        (PlatformPose(0, 0, -500, 0, 0, 0), [10.0, 0.0, -1e300]),
    ],
)
def test_type4_rejects_coordinates_the_ik_could_overflow_on(demo_limits, start, tip):
    # The bound of ik_full, checked before sampling: no numpy warning, no
    # joint-limit error on NaN joints.
    with pytest.raises(UnreachableError, match=r"finite and below 1e\+300 mm") as error:
        plan_type4(start, 0.0, 5.0, demo_limits, 0.1, [(left_geometry(), tip)])
    assert error.value.sample_time is None


def test_type4_unreachable_cone(demo_limits):
    pose = PlatformPose(0, 0, -500, 0, 0, 0)
    g = left_geometry(alpha=0.0, beta=10.0)
    with pytest.raises(UnreachableError):
        plan_type4(pose, 5.0, 5.0, demo_limits, 0.01, [(g, np.array([90.0, 0.0, -500.0]))])


@pytest.mark.parametrize("planner", [plan_type2_insert, plan_type3_manipulate])
@pytest.mark.parametrize("x, rejected", [(1e300, True), (1e299, False)])
def test_joint_space_planners_bound_the_platform_position(demo_geometry, planner, x, rejected):
    # The bound of fk_tip_fixed and plan_type4, checked before sampling.
    pose, start = PlatformPose(x, 0, -500, 0, 0, 0), SphericalJoints(0.0, 0.0, 100.0)
    target = 150.0 if planner is plan_type2_insert else SphericalJoints(5.0, 0.0, 150.0)
    args = (pose, start, target, demo_geometry, ProfileLimits(20.0, 10.0), 0.1)
    if rejected:
        with pytest.raises(UnreachableError, match=r"finite and below 1e\+300 mm") as error:
            planner(*args)
        assert error.value.sample_time is None
    else:
        # The port offset and the arm vanish next to 1e299 mm: x is carried exactly.
        tip = planner(*args).instruments[0].tip
        assert np.isfinite(tip).all() and (tip[:, 0] == x).all()


def test_type2_insertion_monotone(demo_pose, demo_geometry):
    start = SphericalJoints(5.0, -20.0, 0.0)
    plan = plan_type2_insert(demo_pose, start, 100.0, demo_geometry,
                             ProfileLimits(20.0, 10.0), 0.01)
    track = plan.instruments[0]
    q3 = track.joints[:, 2]
    assert np.all(np.diff(q3) >= -1e-12)
    assert q3[0] == 0.0
    assert q3[-1] == pytest.approx(100.0, abs=1e-12)
    assert np.array_equal(track.joints[:, 0], np.full(plan.samples, 5.0))
    assert np.array_equal(track.joints[:, 1], np.full(plan.samples, -20.0))


def test_type2_target_outside_stroke(demo_pose, demo_geometry):
    with pytest.raises(JointLimitError):
        plan_type2_insert(demo_pose, SphericalJoints(0, 0, 50), 400.0,
                          demo_geometry, ProfileLimits(20, 10), 0.01)


def test_type3_zero_delta_constant_plan(demo_pose, demo_geometry):
    start = SphericalJoints(10.0, 20.0, 150.0)
    plan = plan_type3_manipulate(demo_pose, start, start, demo_geometry,
                                 ProfileLimits(10, 5), 0.01)
    assert plan.samples == 1
    assert np.array_equal(plan.instruments[0].rates, [[0.0, 0.0, 0.0]])


def test_type3_single_joint_matches_profile(demo_pose, demo_geometry, demo_limits):
    start = SphericalJoints(0.0, 10.0, 150.0)
    target = SphericalJoints(25.0, 10.0, 150.0)
    plan = plan_type3_manipulate(demo_pose, start, target, demo_geometry,
                                 demo_limits, 0.01)
    reference = plan_profile(25.0, demo_limits)
    assert plan.duration == pytest.approx(reference.t_total, abs=1e-12)
    for i, t in enumerate(plan.time):
        s, v, a = sample_profile(reference, t)
        assert plan.instruments[0].joints[i, 0] == pytest.approx(s, abs=1e-12)
        assert plan.instruments[0].rates[i, 0] == pytest.approx(v, abs=1e-12)


def test_type3_tip_history_matches_fk(demo_pose, demo_geometry, demo_limits):
    start = SphericalJoints(0.0, 10.0, 150.0)
    target = SphericalJoints(25.0, -15.0, 200.0)
    plan = plan_type3_manipulate(demo_pose, start, target, demo_geometry,
                                 demo_limits, 0.05)
    track = plan.instruments[0]
    for i in range(plan.samples):
        joints = SphericalJoints(*track.joints[i])
        assert np.allclose(track.tip[i], fk_tip_fixed(demo_pose, joints, demo_geometry),
                           atol=1e-12)


def test_bad_dt_rejected(demo_pose, demo_geometry, demo_tip, demo_limits):
    with pytest.raises(InvalidLimitsError):
        plan_type4(demo_pose, 5.0, 5.0, demo_limits, 0.0, [(demo_geometry, demo_tip)])
