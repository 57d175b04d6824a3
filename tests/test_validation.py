import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import is_rotation

from rcmkin import differential, validation


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


def test_jacobian_oracle_detects_injected_fault(monkeypatch):
    # A 1e-3 perturbation of one Jacobian term must trip the oracle.
    true_jacobians = differential.jacobians

    def corrupted(pose, joints, geometry):
        pair = true_jacobians(pose, joints, geometry)
        b = pair.b.copy()
        b[0, 0] += 1e-3
        return replace(pair, b=b)

    monkeypatch.setattr(differential, "jacobians", corrupted)
    result = validation.check_jacobian_fd(n=20)
    assert not result.passed


def test_roundtrip_oracle_detects_wrong_solutions(monkeypatch):
    from rcmkin import spherical
    from rcmkin.spherical import IkBranch, SphericalJoints

    true_ik = spherical.ik_full

    def biased(pose, tip, geometry, branch=IkBranch.PRINCIPAL):
        j = true_ik(pose, tip, geometry, branch)
        return SphericalJoints(j.q1, j.q2 + 5e-6, j.q3)

    monkeypatch.setattr(validation, "ik_full", biased)
    result = validation.check_fk_ik_roundtrip(n=20)
    assert not result.passed


def test_numeric_ik_oracle_detects_a_shifted_solution(monkeypatch):
    from rcmkin.spherical import SphericalJoints

    true_ik = validation.ik_full

    def shifted(pose, tip, geometry, branch):
        j = true_ik(pose, tip, geometry, branch)
        return SphericalJoints(j.q1 + 1e-3, j.q2, j.q3)

    monkeypatch.setattr(validation, "ik_full", shifted)
    result = validation.check_numeric_ik(n=20)
    assert not result.passed
    assert result.max_err == pytest.approx(1e-3, rel=1e-6)


def test_numeric_ik_oracle_fails_when_the_solver_does_not_converge(monkeypatch):
    true_fk = validation.fk_tip_fixed
    targets = []

    def rootless(pose, joints, geometry):
        # The first call makes the target tip. Every later call is a residual
        # evaluation that stays exp(q3) mm off that target along x: there is no
        # root, and each Gauss-Newton step moves q3 by -1 mm without end.
        if targets:
            return targets[0] + [math.exp(joints.q3), 0.0, 0.0]
        targets.append(true_fk(pose, joints, geometry))
        return targets[0]

    monkeypatch.setattr(validation, "fk_tip_fixed", rootless)
    result = validation.check_numeric_ik(n=20)
    assert result.max_err == math.inf and not result.passed


# check -> (module, name of the recomputation it calls, NaN version of its result)
_NAN_CASES = {
    "check_euler_quaternion": (validation, "euler_quaternion_oracle", lambda r: r * math.nan),
    "check_euler_roundtrip": (validation, "_euler_xyz_angles", lambda r: (math.nan,) * 3),
    "check_dual_path_fk": (validation, "fk_tip_fixed_chain", lambda r: r * math.nan),
    "check_jacobian_fd": (differential, "jacobians", lambda r: replace(r, b=r.b * math.nan)),
    "check_jacobian_rate_fd": (differential, "jacobian_rate", lambda r: r * math.nan),
    "check_numeric_ik": (validation, "_gauss_newton", lambda r: r * math.nan),
}


@pytest.mark.parametrize("check", _NAN_CASES)
def test_oracle_fails_on_a_nan_error(monkeypatch, check):
    # Only the first case's recomputation is NaN: the later finite errors must
    # not wash it out of the reduction (max(0.0, nan) is 0.0).
    module, name, poison = _NAN_CASES[check]
    original, calls = getattr(module, name), []

    def first_poisoned(*args):
        calls.append(1)
        result = original(*args)
        return poison(result) if len(calls) == 1 else result

    monkeypatch.setattr(module, name, first_poisoned)
    result = getattr(validation, check)(n=5)
    assert len(calls) > 1
    assert result.passed is False
    assert math.isnan(result.max_err)


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
