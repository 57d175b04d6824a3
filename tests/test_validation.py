import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import is_rotation
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmkin import differential, validation
from rcmkin.platform import PlatformPose
from rcmkin.spherical import (
    IK_GRID,
    IkBranch,
    SphericalJoints,
    fk_tip_fixed,
    ik_full,
    left_geometry,
    right_geometry,
    solve_ik,
    tip_vector,
)


def test_all_oracles_pass_reduced_counts():
    results = [
        validation.check_euler_quaternion(n=200),
        validation.check_euler_roundtrip(n=200),
        validation.check_dual_path_fk(n=500),
        validation.check_fk_ik_roundtrip(n=500),
        validation.check_jacobian_fd(n=100),
        validation.check_jacobian_rate_fd(n=100),
        validation.check_numeric_ik(n=20),
    ]
    for result in results:
        assert result.passed, result.line()


def _corrupt_relation(monkeypatch):
    """Move entry (0, 0) of every B and B-dot the column body
    (``differential._relation``) returns by +1e-3."""
    true_relation = differential._relation

    def corrupted(*args):
        b = true_relation(*args)
        b[0, 0] += 1e-3
        return b

    monkeypatch.setattr(differential, "_relation", corrupted)


def test_jacobian_oracle_detects_injected_fault(monkeypatch):
    # A 1e-3 perturbation of one Jacobian term must trip the oracle.
    _corrupt_relation(monkeypatch)
    result = validation.check_jacobian_fd(n=20)
    assert not result.passed


def test_jacobian_rate_oracle_detects_injected_fault(monkeypatch):
    # The perturbation cancels in the central difference of B, so it stays
    # on the analytic B-dot alone, and must trip the oracle.
    _corrupt_relation(monkeypatch)
    result = validation.check_jacobian_rate_fd(n=20)
    assert not result.passed


def _biased_solve_ik(monkeypatch, dq1=0.0, dq2=0.0):
    """Make the checks' closed-form IK (``solve_ik`` on columns) return its
    joints moved by (dq1, dq2) deg."""
    true_solve = validation.solve_ik

    def biased(v, geometry, branch, ops):
        joints, sin_q2 = true_solve(v, geometry, branch, ops)
        return SphericalJoints(joints.q1 + dq1, joints.q2 + dq2, joints.q3), sin_q2

    monkeypatch.setattr(validation, "solve_ik", biased)


def test_roundtrip_oracle_detects_wrong_solutions(monkeypatch):
    _biased_solve_ik(monkeypatch, dq2=5e-6)
    result = validation.check_fk_ik_roundtrip(n=20)
    assert not result.passed


def test_roundtrip_oracle_reads_a_rejected_solution_as_inf(monkeypatch):
    # A NaN joint lies outside every travel, so ik_faults flags it.
    true_solve = validation.solve_ik

    def nan_first(v, geometry, branch, ops):
        joints, sin_q2 = true_solve(v, geometry, branch, ops)
        q1 = joints.q1.copy()
        q1[0] = math.nan
        return SphericalJoints(q1, joints.q2, joints.q3), sin_q2

    monkeypatch.setattr(validation, "solve_ik", nan_first)
    result = validation.check_fk_ik_roundtrip(n=20)
    assert result.max_err == math.inf and not result.passed


def test_numeric_ik_oracle_detects_a_shifted_solution(monkeypatch):
    _biased_solve_ik(monkeypatch, dq1=1e-3)
    result = validation.check_numeric_ik(n=20)
    assert not result.passed
    assert result.max_err == pytest.approx(1e-3, rel=1e-6)


def test_numeric_ik_oracle_fails_when_the_solver_does_not_converge(monkeypatch):
    true_tip, targets = validation._tip, []

    def rootless(r, pose, joints, geometry):
        # The first call makes the target tips. Every later call is a residual
        # evaluation of the iterates (joint rows (3, probes, n)) that stays
        # exp(q3 + 100) mm off the target along x (never lost in the rounding
        # of the target's coordinates), with y and z following q1 and q2: the
        # Jacobian stays regular, but there is no root, and each Gauss-Newton
        # step moves q3 by -1 mm without end.
        if not targets:
            targets.append(true_tip(r, pose, joints, geometry))
            return targets[0]
        offset = [np.exp(joints[2] + 100.0), joints[0], joints[1]]
        return targets[0][:, None] + np.array(offset)

    monkeypatch.setattr(validation, "_tip", rootless)
    result = validation.check_numeric_ik(n=20)
    assert result.max_err == math.inf and not result.passed


def test_numeric_ik_counts_a_singular_jacobian_as_non_convergence(monkeypatch):
    # Configuration 0's tip ignores q1, so its residual's Jacobian has a zero
    # column and the batched solve raises; the check must report inf, not raise.
    true_tip, true_solve, raised = validation._tip, np.linalg.solve, []

    def q1_free_at_0(r, pose, joints, geometry):
        joints = np.array(joints, dtype=float)
        joints[0, ..., 0] = 0.0
        return true_tip(r, pose, joints, geometry)

    def solve(a, b):
        try:
            return true_solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(1)
            raise

    monkeypatch.setattr(validation, "_tip", q1_free_at_0)
    monkeypatch.setattr(np.linalg, "solve", solve)
    result = validation.check_numeric_ik(n=20)
    assert raised
    assert result.max_err == math.inf and not result.passed


def _nan_at_configuration_0(columns):
    poisoned = np.array(columns, dtype=float)
    poisoned[..., 0] = math.nan
    return poisoned


# check -> (module, name of the recomputation it calls, NaN version of its
# result, its calls in a check of 5 configurations: 5 for a recomputation
# called once per configuration, 1 for one called on columns; jacobian-rate-fd
# calls the column body twice, for B-dot and for the differenced B)
_NAN_CASES = {
    "check_euler_quaternion": (validation, "euler_quaternion_oracle", _nan_at_configuration_0, 1),
    "check_euler_roundtrip": (validation, "_euler_xyz_angles", _nan_at_configuration_0, 1),
    "check_dual_path_fk": (validation, "fk_tip_fixed_chain", lambda r: r * math.nan, 5),
    "check_jacobian_fd": (differential, "_relation", _nan_at_configuration_0, 1),
    "check_jacobian_rate_fd": (differential, "_relation", _nan_at_configuration_0, 2),
    "check_numeric_ik": (validation, "_gauss_newton", _nan_at_configuration_0, 1),
}


@pytest.mark.parametrize("check", _NAN_CASES)
def test_oracle_fails_on_a_nan_error(monkeypatch, check):
    # Only configuration 0's recomputation is NaN: the finite errors of the
    # others must not wash it out of the reduction (max(0.0, nan) is 0.0).
    module, name, poison, expected_calls = _NAN_CASES[check]
    original, calls = getattr(module, name), []

    def first_poisoned(*args):
        calls.append(1)
        result = original(*args)
        return poison(result) if len(calls) == 1 else result

    monkeypatch.setattr(module, name, first_poisoned)
    result = getattr(validation, check)(n=5)
    assert len(calls) == expected_calls
    assert result.passed is False
    assert math.isnan(result.max_err)


_CHECKS = [
    "check_euler_quaternion", "check_euler_roundtrip", "check_dual_path_fk",
    "check_fk_ik_roundtrip", "check_jacobian_fd", "check_jacobian_rate_fd", "check_numeric_ik",
]


@pytest.mark.parametrize("check", _CHECKS)
@pytest.mark.parametrize("n", [0, 1])
def test_checks_of_no_or_one_configuration(check, n):
    result = getattr(validation, check)(n=n, seed=77)
    assert result.samples == n and result.passed
    assert type(result.max_err) is float  # the report and its repr print a float
    if n == 0:
        assert result.max_err == 0.0


def test_scalar_draws_keep_their_values_and_stream_order():
    # The acceptance and unit tests draw their inputs with _random_pose,
    # _random_geometry and _random_joints: each is the n = 1 column draw, and
    # must consume the stream as one scalar rng.uniform call per field did.
    for seed in (0, 9001, 20240901):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for margin in (10.0, 5.0, 20.0):
            pose = validation._random_pose(rng)
            geometry = validation._random_geometry(rng)
            joints = validation._random_joints(rng, margin)
            swing = 90.0 - margin
            u = reference.uniform
            assert pose == PlatformPose(u(-100, 100), u(-100, 100), u(-700, -300),
                                        u(-60, 60), u(-60, 60), u(-180, 180))
            assert geometry == left_geometry(alpha=u(0, 30), beta=u(0, 30),
                                              port_spacing=u(5, 20))
            assert joints == SphericalJoints(u(-swing, swing), u(-swing, swing), u(20, 280))
        rng, columns = np.random.default_rng(seed), np.random.default_rng(seed)
        poses, shapes, rows = validation._draw_configurations(columns, 1)
        assert validation._random_pose(rng) == PlatformPose(*poses[:, 0])
        assert validation._random_geometry(rng) == left_geometry(*shapes[:, 0])
        assert validation._random_joints(rng) == SphericalJoints(*rows[:, 0])
        assert rng.uniform() == columns.uniform()


def test_column_checks_call_no_scalar_query_or_rotation_builder(monkeypatch):
    # Six checks run both their routes on columns: no scalar FK, IK or
    # Jacobian query, Euler matrix or rotation builder is called for any
    # configuration.
    def forbidden(*args, **kwargs):
        raise AssertionError("called by a column check")

    names = ("fk_tip_fixed", "ik_full", "jacobians", "jacobian_rate", "euler_xyz", "rot_x",
             "rot_y", "rot_z")
    for module in [m for name, m in sys.modules.items() if name.startswith("rcmkin")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    results = [
        validation.check_euler_quaternion(n=50),
        validation.check_euler_roundtrip(n=50),
        validation.check_fk_ik_roundtrip(n=50),
        validation.check_jacobian_fd(n=50),
        validation.check_jacobian_rate_fd(n=50),
        validation.check_numeric_ik(n=10),
    ]
    for result in results:
        assert result.passed, result.line()


_configuration = st.tuples(
    *[st.floats(lo, hi) for lo, hi in validation._POSE_RANGES],
    st.floats(-30, 30), st.floats(0, 30), st.floats(5, 20),
    st.floats(-80, 80), st.floats(-80, 80), st.floats(20, 280),
)
_configurations = st.lists(_configuration, min_size=1, max_size=6)


def _wrapped(degrees):
    return np.remainder(degrees + 180.0, 360.0) - 180.0


@settings(max_examples=60, deadline=None)
@given(_configurations, st.sampled_from(IkBranch))
def test_column_bodies_equal_the_scalar_queries(rows, branch):
    # The tip and IK bodies on columns, through the geometry stand-in, against
    # fk_tip_fixed and ik_full per configuration. q2 may wrap at +/-180 deg on
    # the mirror branch, so angles are compared modulo 360 deg.
    columns = np.array(rows).T
    poses, shapes, joints = columns[:6], columns[6:9], columns[9:]
    g, r = validation._Geometries(*shapes), validation._rotation(poses)
    tips = validation._tip(r, poses, joints, g)
    for i, row in enumerate(rows):
        pose = PlatformPose(*row[:6])
        geometry = left_geometry(*row[6:9], q1_limit=180.0, q2_limit=180.0)
        tip = fk_tip_fixed(pose, SphericalJoints(*row[9:]), geometry)
        np.testing.assert_allclose(tips[:, i], tip, rtol=0, atol=1e-12)
        solved = ik_full(pose, tip, geometry, branch)
        v = tip_vector(r, (tip - pose.position).tolist(), g)
        column, _ = solve_ik(v, g, branch, IK_GRID)
        assert abs(_wrapped(column.q1[i] - solved.q1)) <= 1e-12
        assert abs(_wrapped(column.q2[i] - solved.q2)) <= 1e-12
        assert abs(column.q3[i] - solved.q3) <= 1e-12


def _stacked(geometries):
    """A column stand-in for per-configuration geometries: their tilts and
    port offsets as (n,) columns, as ``_relation`` reads them."""
    return SimpleNamespace(
        tilts=tuple(np.array(t) for t in zip(*(g.tilts for g in geometries))),
        offset=tuple(np.array(o) for o in zip(*(g.offset for g in geometries))),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(_configuration, st.tuples(*[st.floats(-20, 20)] * 5),
              st.sampled_from([left_geometry, right_geometry])),
    min_size=1, max_size=6,
))
def test_column_relation_equals_the_scalar_b_and_b_dot(rows):
    # B and B-dot of the column body, on left and mirrored right geometries
    # mixed in one batch, against jacobians and jacobian_rate per
    # configuration, within 1e-15 of the matrix's largest entry.
    geometries = [make(*row[6:9], q1_limit=180.0, q2_limit=180.0) for row, _, make in rows]
    columns = np.array([row for row, _, _ in rows]).T
    rates = np.array([rate for _, rate, _ in rows]).T
    poses, joints, g = columns[:6], columns[9:], _stacked(geometries)
    b = validation._b(poses, joints, g)
    b_dot = validation._b(poses, joints, g, differential._TO_INTERNAL[:, None] * rates)
    for i, (row, rate, _) in enumerate(rows):
        pose, q = PlatformPose(*row[:6]), SphericalJoints(*row[9:])
        expected = [
            differential.jacobians(pose, q, geometries[i]).b,
            differential.jacobian_rate(pose, q, geometries[i], differential.InputRates(*rate)),
        ]
        for got, want in zip((b[..., i], b_dot[..., i]), expected):
            np.testing.assert_allclose(got, want, rtol=1e-15,
                                       atol=1e-15 * np.abs(want).max())


def test_finite_difference_b_rate_is_the_column_difference_per_configuration():
    # The one-configuration form equals the column difference's column; a
    # configuration at rest gets zeros.
    rng = np.random.default_rng(5)
    poses, shapes, joints = validation._draw_configurations(rng, 4)
    rates = validation._draw(rng, ((-20, 20),) * 5, 4)
    rates[:, 2] = 0.0
    internal = differential._TO_INTERNAL[:, None] * rates
    columns = validation._finite_difference_b_rate(poses, joints,
                                                   validation._Geometries(*shapes), internal)
    assert not columns[..., 2].any()
    for i, (pose, q, geometry) in enumerate(validation._objects(poses, shapes, joints)):
        one = validation.finite_difference_b_rate(pose, q, geometry,
                                                  differential.InputRates(*rates[:, i]))
        assert one.shape == (3, 5)
        np.testing.assert_allclose(columns[..., i], one, rtol=1e-12, atol=1e-9)


def test_importing_the_package_loads_no_scipy():
    src = Path(validation.__file__).resolve().parents[1]
    probes = [
        "import sys, rcmkin, rcmkin.cli, rcmkin.validation; print('scipy' in sys.modules)",
        # The oracles stay off the production import path.
        "import sys, rcmkin, rcmkin.cli; print('rcmkin.validation' in sys.modules)",
    ]
    for probe in probes:
        done = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False", probe


def test_report_formatting():
    good = validation.OracleResult("demo", 1e-12, 1e-9, 10)
    bad = validation.OracleResult("demo2", 1.0, 1e-9, 10)
    assert good.passed and not bad.passed
    report = validation.format_report([good, bad])
    assert "PASS demo" in report and "FAIL demo2" in report
    assert "1 oracle(s) FAILED" in report


def test_quaternion_oracle_is_a_rotation(rng):
    for psi, theta, phi in rng.uniform(-3, 3, (100, 3)):
        assert is_rotation(validation.euler_quaternion_oracle(psi, theta, phi), tol=1e-12)


def test_finite_difference_b_shape(demo_pose, demo_geometry):
    from rcmkin import SphericalJoints

    b = validation.finite_difference_b(demo_pose, SphericalJoints(5, -30, 150),
                                       demo_geometry)
    assert b.shape == (3, 5)
    assert np.isfinite(b).all()
