"""End-to-end acceptance suite.

Each test exercises one shipped guarantee at its pinned tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them on passing runs).
"""

import math
import time

import numpy as np
import pytest

from rcmkin import (
    InputRates,
    PlatformPose,
    ProfileLimits,
    SingularConfigurationError,
    SphericalJoints,
    bundled_scenario,
    cli,
    compensation_rates,
    fk_tip_fixed,
    ik_full,
    jacobians,
    left_geometry,
    plan_profile,
    plan_type3_manipulate,
    run_scenario,
    sample_profile,
    stretch_profile,
)
from rcmkin.csvio import write_plan_csv
from rcmkin.spherical import fk_tip_fixed_chain
from rcmkin.validation import (
    _random_geometry,
    _random_joints,
    _random_pose,
    _worse,
    finite_difference_b,
    finite_difference_b_rate,
)

DEMO = "reorientation_demo"


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_configuration(rng, swing=85.0):
    return _random_pose(rng), _random_geometry(rng), _random_joints(rng, margin=90.0 - swing)


@pytest.fixture(scope="module")
def demo_run():
    scenario = bundled_scenario(DEMO)
    started = time.perf_counter()
    plan, _ = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    return scenario, plan, elapsed


def test_criterion_1_reference_scenario_execution(demo_run, tmp_path):
    scenario, plan, elapsed = demo_run
    write_plan_csv(plan, tmp_path / "demo.csv")
    end = PlatformPose(*plan.pose_grid[-1])
    ok = (
        plan.duration == 4.5
        and plan.samples == 451
        and end.psi == 0.0
        and end.theta == 35.0
        and elapsed < 1.0
    )
    _criterion(
        "1 reference-scenario execution", ok,
        f"duration={plan.duration!r} s, end angles=({end.psi}, {end.theta}) deg, "
        f"computed in {elapsed:.3f} s",
    )


def test_criterion_2_tip_preservation(demo_run):
    scenario, plan, _ = demo_run
    track = plan.instruments[0]
    geometry = track.geometry
    ik_drift = float(np.abs(track.tip - track.tip[0]).max())

    # Same motion, but now the joints come from RK4 on the compensation rates.
    profile_psi = stretch_profile(plan_profile(scenario.delta_psi, scenario.limits), 4.5)
    profile_theta = stretch_profile(plan_profile(scenario.delta_theta, scenario.limits), 4.5)
    start_pose = scenario.pose

    def samples_at(times):
        """Poses and platform rates at each time, one profile call per axis."""
        psi, psi_dot, _ = sample_profile(profile_psi, times)
        theta, theta_dot, _ = sample_profile(profile_theta, times)
        poses = [
            PlatformPose(start_pose.x, start_pose.y, start_pose.z,
                         start_pose.psi + a, start_pose.theta + b, start_pose.phi)
            for a, b in zip(psi.tolist(), theta.tolist())
        ]
        return poses, psi_dot.tolist(), theta_dot.tolist()

    def rates_at(samples, i, q):
        poses, psi_dot, theta_dot = samples
        pair = jacobians(poses[i], SphericalJoints(*q), geometry)
        return np.array(compensation_rates(pair, psi_dot[i], theta_dot[i]))

    h = 1e-3
    steps = round(4.5 / h)
    # RK4 stage times, computed as the step loop would: t, t + h/2, t + h.
    times = 4.5 * np.arange(steps + 1) / steps
    at_t = samples_at(times)
    at_half = samples_at(times[:-1] + h / 2)
    at_full = samples_at(times[:-1] + h)
    start = track.joints[0].copy()
    q = start.copy()
    tip0 = track.tip[0]
    rk4_drift = 0.0
    for i in range(steps):
        k1 = rates_at(at_t, i, q)
        k2 = rates_at(at_half, i, q + h / 2 * k1)
        k3 = rates_at(at_half, i, q + h / 2 * k2)
        k4 = rates_at(at_full, i, q + h * k3)
        q = q + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tip = fk_tip_fixed(at_t[0][i + 1], SphericalJoints(*q), geometry)
        rk4_drift = _worse(rk4_drift, float(np.abs(tip - tip0).max()))

    ok = ik_drift <= 1e-9 and rk4_drift <= 1e-3
    _criterion(
        "2 tip preservation", ok,
        f"per-sample IK drift={ik_drift:.3e} mm (<=1e-9), "
        f"RK4 drift={rk4_drift:.3e} mm (<=1e-3)",
    )


def test_criterion_3_fk_ik_round_trip():
    rng = np.random.default_rng(9001)
    worst = 0.0
    flips = 0
    for _ in range(10000):
        pose, geometry, joints = _random_configuration(rng)
        tip = fk_tip_fixed(pose, joints, geometry)
        solved = ik_full(pose, tip, geometry)
        if abs(solved.q2 - joints.q2) > 1e-6:
            flips += 1
        worst = _worse(worst, float(np.abs(fk_tip_fixed(pose, solved, geometry) - tip).max()))
    ok = worst <= 1e-9 and flips == 0
    _criterion(
        "3 fk-ik round trip", ok,
        f"max error={worst:.3e} mm over 10^4 samples, branch flips={flips}",
    )


def test_criterion_4_jacobian_oracle():
    rng = np.random.default_rng(9002)
    worst = 0.0
    for _ in range(1000):
        pose, geometry, joints = _random_configuration(rng, swing=80.0)
        analytic = jacobians(pose, joints, geometry).b
        numeric = finite_difference_b(pose, joints, geometry)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = _worse(worst, float(rel.max()))
    ok = worst <= 1e-6
    _criterion(
        "4 jacobian finite-difference oracle", ok,
        f"max relative error={worst:.3e} over 10^3 configurations",
    )


def test_criterion_5_acceleration_residual(demo_run):
    scenario, plan, _ = demo_run
    track = plan.instruments[0]
    geometry = track.geometry
    worst = 0.0
    for i in range(plan.samples):
        rates = InputRates(
            track.rates[i, 0], track.rates[i, 1], track.rates[i, 2],
            plan.pose_rates[i, 0], plan.pose_rates[i, 1],
            track.accels[i, 0], track.accels[i, 1], track.accels[i, 2],
            plan.pose_accels[i, 0], plan.pose_accels[i, 1],
        )
        joints = SphericalJoints(*track.joints[i])
        pose = PlatformPose(*plan.pose_grid[i])
        pair = jacobians(pose, joints, geometry)
        # B-dot from the finite-difference oracle, not the analytic B-dot
        # that produced the planned accelerations.
        b_dot = finite_difference_b_rate(pose, joints, geometry, rates)
        # Tip velocity and acceleration are zero, so the full relation
        # A xddot + Adot xdot + B qddot + Bdot qdot reduces to the last two.
        residual = pair.b @ rates.accels_internal() + b_dot @ rates.rates_internal()
        worst = _worse(worst, float(np.linalg.norm(residual)))
    ok = worst <= 1e-8
    _criterion(
        "5 acceleration residual", ok,
        f"max residual={worst:.3e} mm/s^2 over {plan.samples} samples",
    )


def test_criterion_6_dual_path_fk():
    rng = np.random.default_rng(9003)
    worst = 0.0
    for _ in range(10000):
        pose, geometry, joints = _random_configuration(rng)
        diff = np.abs(
            fk_tip_fixed(pose, joints, geometry)
            - fk_tip_fixed_chain(pose, joints, geometry)
        )
        worst = _worse(worst, float(diff.max()))
    ok = worst <= 1e-12
    _criterion(
        "6 dual-path fk equivalence", ok,
        f"max difference={worst:.3e} mm over 10^4 samples",
    )


def test_criterion_7_profile_arithmetic():
    limits = ProfileLimits(10.0, 5.0)
    trapezoid = plan_profile(25.0, limits)
    triangle = plan_profile(15.0, limits)
    err_total = abs(trapezoid.t_total - 4.5)
    err_peak = abs(triangle.peak_rate - math.sqrt(75.0))
    ok = err_total <= 1e-12 and err_peak <= 1e-12
    _criterion(
        "7 profile arithmetic", ok,
        f"|t_total-4.5|={err_total:.3e} s, |peak-sqrt(75)|={err_peak:.3e} deg/s",
    )


def test_criterion_8_singularity_guard():
    pose = PlatformPose(0, 0, -500, 0, 0, 0)
    geometry = left_geometry(q2_limit=120.0)
    limits = ProfileLimits(10.0, 5.0)
    start = SphericalJoints(0.0, 0.0, 150.0)
    target = SphericalJoints(0.0, 95.0, 150.0)
    with pytest.raises(SingularConfigurationError) as err:
        plan_type3_manipulate(pose, start, target, geometry, limits, 0.01)
    t_fail = err.value.sample_time
    # Every sample processed before the abort had a healthy determinant.
    profile = plan_profile(95.0, limits)
    floor = math.inf
    t = 0.0
    while t < t_fail - 1e-12:
        q2 = sample_profile(profile, t)[0]
        pair = jacobians(pose, SphericalJoints(0.0, q2, 150.0), geometry)
        floor = min(floor, abs(pair.sigma))
        t += 0.01
    ok = t_fail is not None and floor >= 1e-8
    _criterion(
        "8 singularity guard", ok,
        f"aborted at t={t_fail:.3f} s; smallest processed |det|={floor:.3e} (>=1e-8)",
    )


def test_criterion_9_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(["run", DEMO, "--out", str(first), "--quiet"]) == 0
    assert cli.main(["run", DEMO, "--out", str(second), "--quiet"]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _criterion(
        "9 determinism", identical,
        f"two runs produced byte-identical CSVs ({first.stat().st_size} bytes)",
    )
