"""Outcome checker behind ``failed``: decides whether one job's result is right.

The checks take a path independent of the one that produced the output.
Plans are read back with ``csvio.read_plan_csv``.  Each row's tip is then
recomputed with the homogeneous-chain FK (``fk_tip_fixed_chain``), while the
planner fills that column from the direction-cosine FK.  Row counts,
durations and the moved coordinates' trapezoids come from this package's own
profile arithmetic.  On type-4 plans, finite differences of the chain FK
along each checked row's rates and accelerations must leave the tip at rest,
which tests the compensation solves and B-dot without using them.
Rejections are compared with the exit code and sample time recorded in
``expected_rejections.json``.
"""

from __future__ import annotations

import math
import re

import numpy as np

from rcmkin import csvio
from rcmkin.platform import PlatformPose
from rcmkin.spherical import SphericalJoints, fk_tip_fixed_chain, left_geometry, mirrored

from workloads import Job, grid_samples, instruments_of, plan_duration, profile_duration

#: Tip agreement in mm.  Ten significant digits leave <= 5e-8 mm of rounding
#: on each pose coordinate and q3 near 500 mm, and the angles add < 2e-8 mm.
TIP_TOL = 1e-6
#: Agreement of moved coordinates with their trapezoids, and of held pose
#: coordinates with the start pose, in deg, mm and their rates.
JOINT_TOL = 1e-6
#: Rates at the rest-to-rest endpoints.
REST_TOL = 1e-9
#: Tip velocity (mm/s) and acceleration (mm/s^2) that a type-4 row's joint
#: rates and accelerations may leave.  Correct plans leave < 2e-6; a B-dot
#: of zero leaves ~1 mm/s^2.
TIP_RATE_TOL = 1e-4
#: Time step (s) of the central differences behind that check, and the number
#: of rows, spread over the grid, it is made on.
STEP_S = 1e-3
MOTION_ROWS = 41

_SAMPLE_TIME = re.compile(r"at sample t = (\S+) s")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def geometries(spec: dict) -> dict:
    """rcmkin geometries of the left and right modules a scenario configures."""
    keys = ("q1_limit", "q2_limit", "q3_min", "q3_max", "radius")
    overrides = {k: float(spec[k]) for k in keys if k in spec}
    left = left_geometry(
        alpha=float(spec.get("alpha", 10.0)),
        beta=float(spec.get("beta", 10.0)),
        port_spacing=float(spec.get("port_spacing", 10.0)),
        **overrides,
    )
    negate = spec.get("mirror_alpha", "true") == "true"
    return {"left": left, "right": mirrored(left, negate_alpha=negate)}


def _chain_tips(poses: np.ndarray, joints: np.ndarray, geometry) -> np.ndarray:
    return np.array([
        fk_tip_fixed_chain(PlatformPose(*p), SphericalJoints(*q), geometry)
        for p, q in zip(poses, joints)
    ])


def profile_path(delta: float, omega: float, eps: float, t_total: float,
                 times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(displacement, rate, acceleration) per time of the rest-to-rest
    trapezoid for ``delta``, stretched in time to last ``t_total``, and a
    mask of the times where the acceleration is defined: it jumps where a
    phase ends, and grids often hit those instants exactly."""
    base = profile_duration(delta, omega, eps)
    if base == 0.0:
        return np.zeros((len(times), 3)), np.ones(len(times), dtype=bool)
    d, sign = abs(delta), math.copysign(1.0, delta)
    peak = math.sqrt(d * eps) if d < omega * omega / eps else omega
    ramp = peak / eps
    cruise_end = base - ramp
    stretch = t_total / base
    u = np.clip(times / stretch, 0.0, base)  # time on the unstretched profile
    rest = base - u
    ramping, cruising = u < ramp, u < cruise_end
    s = np.where(ramping, 0.5 * eps * u * u,
                 np.where(cruising, 0.5 * eps * ramp * ramp + peak * (u - ramp),
                          d - 0.5 * eps * rest * rest))
    v = np.where(ramping, eps * u, np.where(cruising, peak, eps * rest))
    a = np.where(ramping, eps, np.where(cruising, 0.0, -eps))
    defined = np.minimum(np.abs(u - ramp), np.abs(u - cruise_end)) > 1e-9 * base
    return sign * np.column_stack([s, v / stretch, a / (stretch * stretch)]), defined


def _tip_motion(row, col, side, geometry, h=STEP_S):
    """Tip velocity and acceleration implied by one row's own rates and
    accelerations: central differences of the chain FK along the inputs'
    second-order path x + s xdot + s^2/2 xddot, at s = -h, 0, h."""

    def tip(s):
        def at(name):
            return row[col[name]] + s * row[col[f"{name}_dot"]] + 0.5 * s * s * row[col[f"{name}_ddot"]]

        pose = PlatformPose(row[col["x"]], row[col["y"]], row[col["z"]],
                            at("psi"), at("theta"), row[col["phi"]])
        joints = SphericalJoints(*(at(f"{side}_{q}") for q in ("q1", "q2", "q3")))
        return fk_tip_fixed_chain(pose, joints, geometry)

    ahead, here, behind = tip(h), tip(0.0), tip(-h)
    return (ahead - behind) / (2.0 * h), (ahead + behind - 2.0 * here) / (h * h)


def check_plan(spec: dict, path) -> list[str]:
    """Problems found in a plan CSV written for ``spec``; empty when correct."""
    header, data = csvio.read_plan_csv(path)
    rows = grid_samples(spec)
    if data.ndim != 2 or data.shape[0] != rows:
        return [f"{data.shape[0] if data.ndim else 0} rows, grid has {rows}"]
    col = {name: i for i, name in enumerate(header)}
    sides = instruments_of(spec)
    moved = ["psi", "theta"] if spec["motion"] == "type4" else [f"{sides[0]}_{q}"
                                                                 for q in ("q1", "q2", "q3")]
    wanted = ["t", "x", "y", "z", "psi", "theta", "phi", "psi_dot", "theta_dot",
              "psi_ddot", "theta_ddot"]
    for side in sides:
        wanted += [f"{side}_{q}{d}" for q in ("q1", "q2", "q3") for d in ("", "_dot", "_ddot")]
        wanted += [f"{side}_tip_{c}" for c in ("x", "y", "z")]
    if "endoscope_insertion" in spec:
        wanted += ["endoscope_tip_x", "endoscope_tip_y", "endoscope_tip_z"]
    missing = [c for c in wanted if c not in col]
    if missing:
        return [f"missing columns {missing}"]

    def cols(*names):
        return data[:, [col[n] for n in names]]

    problems = []
    t = data[:, col["t"]]
    t_total = plan_duration(spec)
    if t[0] != 0.0 or not math.isclose(t[-1], t_total, rel_tol=1e-9):
        problems.append(f"time runs {t[0]}..{t[-1]}, expected 0..{t_total}")
    rate_names = ["psi_dot", "theta_dot"]
    rate_names += [f"{s}_{q}_dot" for s in sides for q in ("q1", "q2", "q3")]
    if np.abs(cols(*rate_names)[[0, -1]]).max() > REST_TOL:
        problems.append("rates at the endpoints are not zero")

    # The moved coordinates follow trapezoids synchronised to the slowest one.
    omega, eps = float(spec["omega_max"]), float(spec["eps_max"])
    if spec["motion"] == "type4":
        origin = _floats(spec["pose"])[3:5]
        deltas = [float(spec["delta_psi"]), float(spec["delta_theta"])]
    else:
        origin = _floats(spec["start_joints"])
        target = (origin[:2] + [float(spec["target_q3"])] if spec["motion"] == "type2"
                  else _floats(spec["target_joints"]))
        deltas = [b - a for a, b in zip(origin, target)]
    for name, start, delta in zip(moved, origin, deltas):
        expected, defined = profile_path(delta, omega, eps, t_total, t)
        expected[:, 0] += start
        off = np.abs(cols(name, f"{name}_dot", f"{name}_ddot") - expected)
        if max(off[:, :2].max(), off[defined, 2].max(initial=0.0)) > JOINT_TOL:
            problems.append(f"{name}, its rate or acceleration is off its trapezoid")

    poses = cols("x", "y", "z", "psi", "theta", "phi")
    start_pose = np.array(_floats(spec["pose"]))
    held = [0, 1, 2, 5] if spec["motion"] == "type4" else list(range(6))
    if np.abs(poses[:, held] - start_pose[held]).max() > JOINT_TOL:
        problems.append("pose coordinates that must hold moved")

    geometry = geometries(spec)
    checked_rows = np.unique(np.linspace(0, rows - 1, min(rows, MOTION_ROWS)).astype(int))
    for side in sides:
        joints = cols(f"{side}_q1", f"{side}_q2", f"{side}_q3")
        tips = cols(f"{side}_tip_x", f"{side}_tip_y", f"{side}_tip_z")
        drift = np.abs(_chain_tips(poses, joints, geometry[side]) - tips).max()
        if drift > TIP_TOL:
            problems.append(f"{side}: chain FK differs from the tip column by {drift:.3g} mm")
        if spec["motion"] == "type4":
            held_tip = np.abs(tips - _floats(spec[f"tip_{side}"])).max()
            if held_tip > TIP_TOL:
                problems.append(f"{side}: tip left its target by {held_tip:.3g} mm")
            motion = [_tip_motion(data[i], col, side, geometry[side]) for i in checked_rows]
            speed = max(float(np.abs(v).max()) for v, _ in motion)
            accel = max(float(np.abs(a).max()) for _, a in motion)
            if speed > TIP_RATE_TOL or accel > TIP_RATE_TOL:
                problems.append(f"{side}: the rows' rates move the tip at {speed:.3g} mm/s "
                                f"and {accel:.3g} mm/s^2")

    if "endoscope_insertion" in spec:
        reach = np.linalg.norm(cols("endoscope_tip_x", "endoscope_tip_y", "endoscope_tip_z")
                               - poses[:, :3], axis=1)
        if np.abs(reach - float(spec["endoscope_insertion"])).max() > TIP_TOL:
            problems.append("endoscope tip is not at the insertion depth")
    return problems


def check_rejection(job: Job, code, stderr: str) -> list[str]:
    """A rejected job must exit with the recorded code at the recorded sample."""
    problems = []
    if code != job.expect_exit:
        problems.append(f"exit {code}, recorded {job.expect_exit}")
    if not stderr.startswith("error: "):
        problems.append(f"stderr does not start with 'error: ': {stderr[:200]!r}")
    found = _SAMPLE_TIME.search(stderr)
    at = found.group(1) if found else None
    if at != job.expect_t:
        problems.append(f"rejected at sample t = {at}, recorded {job.expect_t}")
    return problems


def _query_geometry(argv: list[str]):
    opts = dict(arg.split("=", 1) for arg in argv[1:])
    build = geometries({"alpha": opts["--alpha"], "beta": opts["--beta"],
                        "port_spacing": opts["--port-spacing"]})
    return opts, PlatformPose(*_floats(opts["--pose"])), build[opts["--side"]]


def check_query(job: Job, stdout: str) -> list[str]:
    """fk prints the tip; ik prints joints whose chain FK must reach the tip."""
    opts, pose, geometry = _query_geometry(job.argv)
    try:
        printed = _floats(stdout)
    except ValueError:
        return [f"unparsable output {stdout[:200]!r}"]
    if len(printed) != 3:
        return [f"expected 3 numbers, got {stdout[:200]!r}"]
    if job.argv[0] == "fk":
        tip = fk_tip_fixed_chain(pose, SphericalJoints(*_floats(opts["--joints"])), geometry)
    else:
        if abs(printed[1]) > 90.0:
            return [f"q2 = {printed[1]} is off the principal branch"]
        tip = np.array(_floats(opts["--tip"]))
        printed = fk_tip_fixed_chain(pose, SphericalJoints(*printed), geometry)
    err = float(np.abs(np.asarray(printed) - tip).max())
    return [] if err <= TIP_TOL else [f"tip differs by {err:.3g} mm"]


def check_oracle(job: Job, result) -> list[str]:
    _, n, _ = job.check
    if result.samples != n or not result.passed:
        return [f"oracle {result.name}: passed={result.passed} n={result.samples}/{n} "
                f"max_err={result.max_err:.3g}"]
    return []

