"""The whole-grid planners against a per-sample loop over the scalar API.

The reference loops below evaluate one sample at a time, the way the
planners are specified: closed-form IK, B, the singularity guard, the two
compensation solves and B-dot per sample and instrument, checks in that
order, the first failure raised with its sample time. The planners must
reproduce their rows, and their rejections byte for byte (on random plans,
up to the last printed digit of a joint value).
"""

import math
import re
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcmkin import (
    GimbalProximityError,
    IkBranch,
    InputRates,
    JointLimitError,
    KinematicsError,
    PlatformPose,
    ProfileLimits,
    SingularConfigurationError,
    SphericalJoints,
    UnreachableError,
    compensation_accels,
    compensation_rates,
    fk_tip_fixed,
    ik_full,
    jacobian_rate,
    jacobians,
    left_geometry,
    mirrored,
    plan_profile,
    plan_type3_manipulate,
    plan_type4,
    right_geometry,
    sample_profile,
    stretch_profile,
)
from rcmkin import trajectory
from rcmkin.differential import signed_measure, singular_guards
from rcmkin.errors import raise_first
from rcmkin.trajectory import _BLOCK, time_grid
from rcmkin.validation import finite_difference_b

LIMITS = ProfileLimits(10.0, 5.0)
DEMO_POSE = PlatformPose(15.0, 20.0, -500.0, -15.0, 10.0, -60.0)
LEFT_TIP = np.array([50.0, -50.0, -620.0])
RIGHT_TIP = np.array([-20.0, -50.0, -620.0])


@contextmanager
def _at(t):
    try:
        yield
    except KinematicsError as exc:
        wrapped = type(exc)(f"at sample t = {t:.9g} s: {exc}")
        wrapped.sample_time = t
        raise wrapped from None


def _synchronized(deltas, limits):
    profiles = [plan_profile(d, limits) for d in deltas]
    t_total = max(p.t_total for p in profiles)
    return [stretch_profile(p, t_total) for p in profiles], t_total


def _reference_type4(
    start, delta_psi, delta_theta, limits, dt, instruments, branch=IkBranch.PRINCIPAL
):
    """Per instrument, the rows (joints, rates, accels, tip, sing) of a type-4
    plan, one sample at a time. q2 is unwrapped by whole turns against the
    sample before, and the unwrapped joints are checked against the travel."""
    (p_psi, p_theta), t_total = _synchronized((delta_psi, delta_theta), limits)
    rows = [[] for _ in instruments]
    previous = [math.nan] * len(instruments)
    last_q2 = [None] * len(instruments)
    for t in time_grid(t_total, dt):
        s_psi, v_psi, a_psi = sample_profile(p_psi, t)
        s_theta, v_theta, a_theta = sample_profile(p_theta, t)
        pose = replace(start, psi=start.psi + s_psi, theta=start.theta + s_theta)
        for k, (geometry, tip) in enumerate(instruments):
            with _at(t):
                joints = ik_full(pose, tip, geometry, branch)
                if last_q2[k] is not None:
                    turns = round((joints.q2 - last_q2[k]) / 360.0)
                    joints = replace(joints, q2=joints.q2 - 360.0 * turns)
                last_q2[k] = joints.q2
                pair = jacobians(pose, joints, geometry)  # checks the joints first
                raise_first(singular_guards(pair.sigma, previous[k]))
                previous[k] = pair.sigma
                qd = compensation_rates(pair, v_psi, v_theta)
                rates = InputRates(*qd, v_psi, v_theta, psi_ddot=a_psi, theta_ddot=a_theta)
                b_dot = jacobian_rate(pose, joints, geometry, rates)
                qdd = compensation_accels(pair, b_dot, rates)
                tip_now = fk_tip_fixed(pose, joints, geometry)
            rows[k].append(
                ((joints.q1, joints.q2, joints.q3), qd, qdd, tip_now, abs(pair.sigma))
            )
    return rows


def _reference_type3(pose, start, target, geometry, limits, dt):
    """Rows (tip, sing) of a type-3 plan, one sample at a time."""
    origin = (start.q1, start.q2, start.q3)
    deltas = (target.q1 - start.q1, target.q2 - start.q2, target.q3 - start.q3)
    profiles, t_total = _synchronized(deltas, limits)
    rows = []
    previous = math.nan
    for t in time_grid(t_total, dt):
        moved = [sample_profile(p, t)[0] for p in profiles]
        joints = SphericalJoints(*(o + s for o, s in zip(origin, moved)))
        with _at(t):
            tip = fk_tip_fixed(pose, joints, geometry)
            sigma = signed_measure(joints, geometry)
            raise_first(singular_guards(sigma, previous))
            previous = sigma
        rows.append((tip, abs(sigma)))
    return rows


def _assert_close(grid, reference):
    grid, reference = np.asarray(grid, dtype=float), np.asarray(reference, dtype=float)
    scale = np.abs(reference).max(axis=0)
    assert np.all(np.abs(grid - reference) <= 1e-12 * np.maximum(scale, 1e-300))


def _assert_tracks_match(plan, reference):
    for track, rows in zip(plan.instruments, reference, strict=True):
        joints, rates, accels, tips, sing = zip(*rows)
        _assert_close(track.joints, joints)
        _assert_close(track.rates, rates)
        _assert_close(track.accels, accels)
        _assert_close(track.tip, tips)
        _assert_close(track.sing, sing)


def test_demo_plan_rows_equal_the_scalar_api():
    instruments = [(left_geometry(), LEFT_TIP)]
    plan = plan_type4(DEMO_POSE, 15.0, 25.0, LIMITS, 0.01, instruments)
    _assert_tracks_match(plan, _reference_type4(DEMO_POSE, 15.0, 25.0, LIMITS, 0.01, instruments))


def test_two_instrument_multi_block_plan_rows_equal_the_scalar_api():
    left = left_geometry()
    instruments = [(left, LEFT_TIP), (mirrored(left), RIGHT_TIP)]
    plan = plan_type4(DEMO_POSE, 15.0, 25.0, LIMITS, 0.004, instruments)
    assert plan.samples > _BLOCK
    _assert_tracks_match(plan, _reference_type4(DEMO_POSE, 15.0, 25.0, LIMITS, 0.004, instruments))


def test_multi_block_type3_plan_matches_fk_and_signed_measure():
    g = left_geometry()
    start, target = SphericalJoints(0.0, 10.0, 150.0), SphericalJoints(25.0, -15.0, 200.0)
    plan = plan_type3_manipulate(DEMO_POSE, start, target, g, LIMITS, 0.004)
    assert plan.samples > _BLOCK
    tips, sing = zip(*_reference_type3(DEMO_POSE, start, target, g, LIMITS, 0.004))
    track = plan.instruments[0]
    _assert_close(track.tip, tips)
    _assert_close(track.sing, sing)
    for row, tip in zip(track.joints, track.tip):
        _assert_close(tip, fk_tip_fixed(DEMO_POSE, SphericalJoints(*row), g))


def test_planners_and_jacobians_build_no_rotation_matrix(monkeypatch):
    # Both planners, each over more than one block, and the velocity relation
    # B and B-dot: no rotation matrix is built, and no planner solves a
    # linear system on any sample.
    def forbidden(*args, **kwargs):
        raise AssertionError("a rotation builder or a solver was called")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    for module in [m for name, m in sys.modules.items() if name.startswith("rcmkin")]:
        for name in ("rot_x", "rot_y", "rot_z"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    left = left_geometry()
    instruments = [(left, LEFT_TIP), (mirrored(left), RIGHT_TIP)]
    plan = plan_type4(DEMO_POSE, 15.0, 25.0, LIMITS, 0.004, instruments)
    assert plan.samples > _BLOCK
    assert len(plan.instruments) == 2
    start, target = SphericalJoints(0.0, 10.0, 150.0), SphericalJoints(25.0, -15.0, 200.0)
    plan = plan_type3_manipulate(DEMO_POSE, start, target, left, LIMITS, 0.004)
    assert plan.samples > _BLOCK
    joints = SphericalJoints(10.0, -20.0, 150.0)
    assert jacobians(DEMO_POSE, joints, left).b.shape == (3, 5)
    rates = InputRates(1.0, 2.0, 3.0, 4.0, 5.0)
    assert jacobian_rate(DEMO_POSE, joints, left, rates).shape == (3, 5)


# Relative to the largest entry: the finite-difference B carries about 1e-8
# of rounding noise, and the time differences about 4e-6 (measured).
RATE_TOL = 1e-7
ACCEL_TOL = 1e-4


def test_multi_block_type4_plan_matches_finite_differences_of_the_tip_map():
    # The planner and B share the partials of the insertion direction, so a
    # wrong partial could hide from a comparison with B. Here B is the central
    # difference of the tip map: the rates solve its joint block, and the
    # accelerations are central differences in time of those rates, taken
    # where the platform's acceleration is constant over the stencil.
    left = left_geometry()
    instruments = [(left, LEFT_TIP), (mirrored(left), RIGHT_TIP)]
    dt = 0.004
    plan = plan_type4(DEMO_POSE, 15.0, 25.0, LIMITS, dt, instruments)
    assert plan.samples > _BLOCK
    poses = [PlatformPose(*row) for row in plan.pose_grid]
    smooth = (plan.pose_accels[:-2] == plan.pose_accels[2:]).all(axis=1)
    for track in plan.instruments:
        rates = []
        for pose, row, pose_rates in zip(poses, track.joints, np.radians(plan.pose_rates)):
            b = finite_difference_b(pose, SphericalJoints(*row), track.geometry)
            rates.append(np.linalg.solve(b[:, :3], -b[:, 3:] @ pose_rates))
        rates = np.array(rates) * [180.0 / np.pi, 180.0 / np.pi, 1.0]
        assert np.abs(rates - track.rates).max() <= RATE_TOL * np.abs(track.rates).max()
        accels = (rates[2:] - rates[:-2])[smooth] / (2.0 * dt)
        scale = np.abs(track.accels).max()
        assert np.abs(accels - track.accels[1:-1][smooth]).max() <= ACCEL_TOL * scale


def _assert_same_rejection(planned, reference, expected_type):
    with pytest.raises(KinematicsError) as got:
        planned()
    with pytest.raises(KinematicsError) as want:
        reference()
    assert type(got.value) is type(want.value) is expected_type
    assert str(got.value) == str(want.value)
    assert got.value.sample_time == want.value.sample_time
    return got.value


def _type4_case(instruments, dt=0.01):
    args = (DEMO_POSE, 15.0, 25.0, LIMITS, dt, instruments)
    return (lambda: plan_type4(*args)), (lambda: _reference_type4(*args))


def _type3_case(start, target, geometry, pose=PlatformPose(0, 0, -500, 0, 0, 0), dt=0.01):
    args = (pose, start, target, geometry, LIMITS, dt)
    return (lambda: plan_type3_manipulate(*args)), (lambda: _reference_type3(*args))


def test_rejection_parity_joint_limit():
    g = left_geometry(q3_max=149.0)  # the demo path needs q3 up to ~151.04
    _assert_same_rejection(*_type4_case([(g, LEFT_TIP)]), JointLimitError)


def test_rejection_parity_unreachable():
    pose = PlatformPose(0, 0, -500, 0, 0, 0)
    g = left_geometry(alpha=0.0, beta=10.0)
    args = (pose, 5.0, 5.0, LIMITS, 0.01, [(g, np.array([90.0, 0.0, -500.0]))])
    _assert_same_rejection(
        lambda: plan_type4(*args), lambda: _reference_type4(*args), UnreachableError
    )


def test_rejection_parity_gimbal_margin():
    start = replace(DEMO_POSE, theta=80.0)  # the 25 deg tilt runs into 90 deg
    g = left_geometry(q1_limit=180.0, q2_limit=180.0, q3_max=1000.0)
    args = (start, 15.0, 25.0, LIMITS, 0.01, [(g, LEFT_TIP)])
    _assert_same_rejection(
        lambda: plan_type4(*args), lambda: _reference_type4(*args), GimbalProximityError
    )


def test_rejection_parity_threshold_at_the_last_sample():
    g = left_geometry(q2_limit=120.0)
    planned, reference = _type3_case(
        SphericalJoints(0.0, 0.0, 150.0), SphericalJoints(0.0, 90.0, 150.0), g
    )
    error = _assert_same_rejection(planned, reference, SingularConfigurationError)
    assert "|det|" in str(error)
    assert error.sample_time == plan_profile(90.0, LIMITS).t_total


def test_rejection_parity_type3_sign_change():
    g = left_geometry(q2_limit=120.0)
    planned, reference = _type3_case(
        SphericalJoints(0.0, 0.0, 150.0), SphericalJoints(0.0, 95.0, 150.0), g
    )
    error = _assert_same_rejection(planned, reference, SingularConfigurationError)
    assert "changed sign" in str(error)


def test_rejection_parity_sign_change_across_a_block_boundary():
    # A symmetric move 0 -> 180 deg crosses 90 deg at mid-time; 2047 steps put
    # that crossing between samples _BLOCK - 1 and _BLOCK.
    g = left_geometry(q2_limit=200.0)
    t_total = plan_profile(180.0, LIMITS).t_total
    planned, reference = _type3_case(
        SphericalJoints(0.0, 0.0, 150.0),
        SphericalJoints(0.0, 180.0, 150.0),
        g,
        dt=t_total / (2 * _BLOCK - 1),
    )
    error = _assert_same_rejection(planned, reference, SingularConfigurationError)
    assert "changed sign" in str(error)
    times = time_grid(t_total, t_total / (2 * _BLOCK - 1))
    assert error.sample_time == times[_BLOCK]


@pytest.mark.parametrize(
    "target, geometry, dt, expected",
    [
        # q2 crosses 90 deg between samples _BLOCK - 1 and _BLOCK (as above).
        (SphericalJoints(0.0, 180.0, 150.0), left_geometry(q2_limit=200.0),
         plan_profile(180.0, LIMITS).t_total / (2 * _BLOCK - 1), SingularConfigurationError),
        # q2 reaches the singular 90 deg at the last of 5501 samples.
        (SphericalJoints(0.0, 90.0, 150.0), left_geometry(q2_limit=120.0), 0.002,
         SingularConfigurationError),
    ],
)
def test_rejected_type3_plan_computes_no_tips(monkeypatch, target, geometry, dt, expected):
    # The grid is screened whole before any tip, so a rejection at or after
    # sample _BLOCK leaves the first block's tips uncomputed too.
    calls = []
    tip_position = trajectory.tip_position
    monkeypatch.setattr(
        trajectory, "tip_position", lambda *args: calls.append(1) or tip_position(*args)
    )
    with pytest.raises(expected) as error:
        plan_type3_manipulate(
            PlatformPose(0, 0, -500, 0, 0, 0), SphericalJoints(0.0, 0.0, 150.0), target,
            geometry, LIMITS, dt,
        )
    assert error.value.sample_time > (_BLOCK - 0.5) * dt
    assert calls == []


def _mirror_case_through_180(q2_limit, dt=0.1):
    # On the mirror branch q2 rises from 175 deg through 180 deg, where the
    # IK wraps it to -180 deg, to about 185.04 deg.
    pose = PlatformPose(0, 0, -500, 0, 0, 0)
    g = left_geometry(q2_limit=q2_limit)
    tip = fk_tip_fixed(pose, SphericalJoints(10.0, 175.0, 150.0), g)
    return pose, 0.0, -10.0, LIMITS, dt, [(g, tip)], IkBranch.MIRROR


@pytest.mark.parametrize("dt", [0.1, 0.002])  # 30 samples; 1415, past 180 deg in block 1
def test_mirror_branch_q2_stays_continuous_through_180(dt):
    args = _mirror_case_through_180(200.0, dt)
    plan = plan_type4(*args)
    q2 = plan.instruments[0].joints[:, 1]
    assert np.all(np.diff(q2) > 0.0)
    assert q2[0] == pytest.approx(175.0, abs=1e-9)
    assert q2[-1] == pytest.approx(185.0377034705, abs=1e-9)
    _assert_tracks_match(plan, _reference_type4(*args))


def test_mirror_branch_q2_past_a_180_deg_travel_is_rejected():
    args = _mirror_case_through_180(180.0)
    error = _assert_same_rejection(
        lambda: plan_type4(*args), lambda: _reference_type4(*args), JointLimitError
    )
    assert error.sample_time == pytest.approx(1.46297955, abs=1e-8)
    assert str(error).split(": ", 1)[1].startswith("q2 = 180.373")


def _left_q1_limit_failing_at(index, dt):
    # On the demo path q1 rises monotonically through this part of the grid.
    plan = plan_type4(DEMO_POSE, 15.0, 25.0, LIMITS, dt, [(left_geometry(), LEFT_TIP)])
    q1 = plan.instruments[0].joints[:, 0]
    limit = 0.5 * (q1[index - 1] + q1[index])
    assert np.abs(q1[:index]).max() < limit < q1[index]
    return left_geometry(q1_limit=limit), plan.time[index]


def test_rejection_parity_at_the_first_sample_of_the_second_block():
    g, t = _left_q1_limit_failing_at(_BLOCK, 0.0025)
    error = _assert_same_rejection(*_type4_case([(g, LEFT_TIP)], dt=0.0025), JointLimitError)
    assert error.sample_time == t


def test_rejection_parity_second_instrument_fails_first():
    left, _ = _left_q1_limit_failing_at(_BLOCK, 0.0025)
    right = mirrored(left_geometry(q2_limit=10.0))  # |q2| passes 10 deg before _BLOCK
    planned, reference = _type4_case([(left, LEFT_TIP), (right, RIGHT_TIP)], dt=0.0025)
    error = _assert_same_rejection(planned, reference, JointLimitError)
    assert str(error).split(": ", 1)[1].startswith("q2 = ")
    assert error.sample_time < 0.0025 * _BLOCK


def test_rejection_parity_tie_goes_to_the_first_instrument():
    left = left_geometry(q3_max=100.0)
    right = mirrored(left)
    planned, reference = _type4_case([(left, LEFT_TIP), (right, RIGHT_TIP)])
    error = _assert_same_rejection(planned, reference, JointLimitError)
    assert error.sample_time == 0.0
    assert "q3 = 147.76873209766 mm" in str(error)  # the left instrument's depth


# A number in an error message. The routes print joint values at 14 digits
# and round differently in the last bits, so about one random rejection in
# 150 differs in its last printed digit.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _assert_same_message(got, want):
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want), strict=True):
        assert a == b or abs(float(a) - float(b)) <= 1e-12 * abs(float(b))


@st.composite
def _type4_scenarios(draw):
    """Arguments of plan_type4 and a branch. The tips are placed by FK from
    drawn joints, and half the modules have their travel drawn around them,
    so some plans run out of travel. The joints and the short moves keep q1
    and q2 clear of the +/-180 deg wrap and of the singularity."""
    angle = lambda lo, hi: st.floats(lo, hi, allow_nan=False)
    pose = PlatformPose(
        draw(angle(-50, 50)), draw(angle(-50, 50)), draw(angle(-600, -200)),
        draw(angle(-30, 30)), draw(angle(-30, 30)), draw(angle(-180, 180)),
    )
    branch = draw(st.sampled_from(IkBranch))
    instruments = []
    for side in draw(st.sampled_from([("left",), ("right",), ("left", "right")])):
        make = left_geometry if side == "left" else right_geometry
        alpha, beta = draw(angle(-40, 40)), draw(angle(0, 35))
        q1, q3 = draw(angle(-90, 90)), draw(angle(20, 250))
        if branch is IkBranch.PRINCIPAL:
            q2 = draw(angle(-45, 45))
        else:
            q2 = draw(st.sampled_from([1.0, -1.0])) * (180.0 - draw(angle(30, 45)))
        geometry = make(alpha, beta, q1_limit=180.0, q2_limit=180.0, q3_max=1000.0)
        placed = fk_tip_fixed(pose, SphericalJoints(q1, q2, q3), geometry)
        if draw(st.booleans()):
            slack = angle(-2, 60)
            q3_min = max(0.0, q3 - draw(slack))
            geometry = make(
                alpha, beta,
                q1_limit=max(1.0, abs(q1) + draw(slack)),
                q2_limit=max(1.0, abs(q2) + draw(slack)),
                q3_min=q3_min,
                q3_max=max(q3_min + 1.0, q3 + draw(slack)),
            )
        instruments.append((geometry, placed))
    deltas = draw(angle(-10, 10)), draw(angle(-10, 10))
    limits = ProfileLimits(draw(angle(5, 20)), draw(angle(2, 10)))
    t_total = max(plan_profile(d, limits).t_total for d in deltas)
    steps = draw(st.integers(1, 59))
    dt = t_total / steps if t_total > 0.0 else 0.1
    return (pose, *deltas, limits, dt, instruments), branch


def _assert_groups_close(plan, reference):
    """Each column within 1e-12 of the largest entry of its group (joints,
    rates, accels, tip, sing). A column held near zero, such as a rate the
    move does not drive, carries only the rounding of the larger ones."""
    for track, rows in zip(plan.instruments, reference, strict=True):
        groups = (track.joints, track.rates, track.accels, track.tip, track.sing)
        for grid, expected in zip(groups, zip(*rows), strict=True):
            expected = np.asarray(expected, dtype=float)
            scale = max(float(np.abs(expected).max()), 1e-300)
            assert np.all(np.abs(grid - expected) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(_type4_scenarios())
@example((  # two instruments on the mirror branch, 1101 samples: two blocks
    (DEMO_POSE, -12.0, 9.0, LIMITS, plan_profile(12.0, LIMITS).t_total / 1100,
     [(g, fk_tip_fixed(DEMO_POSE, joints, g)) for g, joints in (
         (left_geometry(20.0, 25.0, q2_limit=180.0), SphericalJoints(20.0, 140.0, 150.0)),
         (right_geometry(20.0, 25.0, q2_limit=180.0), SphericalJoints(-15.0, -135.0, 120.0)),
     )]),
    IkBranch.MIRROR,
))
def test_random_type4_plans_match_the_scalar_api(scenario):
    args, branch = scenario
    try:
        reference = _reference_type4(*args, branch)
    except KinematicsError as want:
        with pytest.raises(KinematicsError) as got:
            plan_type4(*args, branch)
        assert type(got.value) is type(want)
        _assert_same_message(str(got.value), str(want))
        assert got.value.sample_time == want.sample_time
    else:
        _assert_groups_close(plan_type4(*args, branch), reference)
