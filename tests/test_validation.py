from dataclasses import replace

import numpy as np

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


def test_report_formatting():
    good = validation.OracleResult("demo", 1e-12, 1e-9, 10)
    bad = validation.OracleResult("demo2", 1.0, 1e-9, 10)
    assert good.passed and not bad.passed
    report = validation.format_report([good, bad])
    assert "PASS demo" in report and "FAIL demo2" in report
    assert "1 oracle(s) FAILED" in report


def test_quaternion_oracle_is_a_rotation(rng):
    from rcmkin.transforms import is_rotation

    for psi, theta, phi in rng.uniform(-3, 3, (100, 3)):
        assert is_rotation(validation.euler_quaternion_oracle(psi, theta, phi), tol=1e-12)


def test_finite_difference_b_shape(demo_pose, demo_geometry):
    from rcmkin import SphericalJoints

    b = validation.finite_difference_b(demo_pose, SphericalJoints(5, -30, 150),
                                       demo_geometry)
    assert b.shape == (3, 5)
    assert np.isfinite(b).all()
