"""Seeded inputs for the benchmark workloads.

Every input is derived from ``(workload, seed)`` through ``random.Random``
and written with a fixed number of decimals, so one seed always yields
byte-identical scenario files and argument lists.  This module never
imports rcmkin: the inputs must not change when the program under test does.

Each workload is a list of *rounds*; a round is a fixed sequence of job
slots whose contents the seed varies.  Sizes (samples per job, share of
rejected jobs, mix of job kinds) are fixed per workload, so two seeds load
the program with the same amount of work and only the kinematic content
differs.  Rejected jobs come from ``expected_rejections.json``: scenarios
whose exit code and failing sample time were recorded at the commit that
introduced the benchmark (see ``record.py``).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

CATALOGUE = Path(__file__).with_name("expected_rejections.json")

#: Samples per feasible plan; every grid is bounded by these.  The "+" slots
#: (a quarter of joint_sweep's jobs, one in twelve of scenario_batch's) are
#: longer, so the latency tail is that class rather than the noise of the others.
REORIENT_SAMPLES = 1001
SWEEP_SAMPLES = 2001
SWEEP_LONG_SAMPLES = 3001
BATCH_SAMPLES = (20, 25, 30, 35, 40, 45, 50, 55, 60)
BATCH_LONG_SAMPLES = 90

#: Oracle configurations per validation job: ~15 ms each, except the
#: least-squares IK oracle at ~90 ms, which sets oracle_suite's latency tail.
CHECK_SIZES = {
    "check_euler_quaternion": 600,
    "check_euler_roundtrip": 1000,
    "check_dual_path_fk": 250,
    "check_fk_ik_roundtrip": 250,
    "check_jacobian_fd": 100,
    "check_numeric_ik": 60,
}

_GRID_TOL = 1e-9  # the planners' grid-snapping slack


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round: tuple[str, ...]  # job slots of one round, filled by generate()
    rounds: int  # distinct rounds generated; the timed pass cycles them
    trace_jobs: int  # jobs in one traced round (fixed work per round)
    shuffle: bool = False  # shuffle the slot order within each round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reorient_dense",
            "the paper's headline use: type-4 reorientations holding both tips on "
            "1001-sample grids, so the per-sample IK, B, B-dot and solves dominate",
            ("t4x2",) * 3 + ("long_joint_limit",) + ("t4x2",) * 4,
            rounds=2,
            trace_jobs=8,
        ),
        Workload(
            "joint_sweep",
            "type-2/3 moves on 2001/3001-sample grids with endoscope columns: no IK, "
            "B-dot or solves, so it bypasses the compensation path and stresses B, FK, CSV",
            ("t3", "t2", "t3+", "long_singular", "t2", "t3", "t2+", "long_singular"),
            rounds=4,
            trace_jobs=8,
        ),
        Workload(
            "scenario_batch",
            "many 20-90 sample plans of all types, a quarter rejected partway, so "
            "parsing, CLI and fixed per-plan cost and early rejection dominate",
            ("t2", "t2", "t3", "t3", "t3", "t4x1", "t4x1", "t4x2", "t4x2+",
             "short_singular", "short_singular", "short_joint_limit"),
            rounds=20,
            trace_jobs=48,
            shuffle=True,
        ),
        Workload(
            "oracle_suite",
            "validation oracles plus single-configuration fk/ik CLI queries: the only "
            "workload timing the validation layer and scalar spherical calls",
            # The median job is an ik query: eight of them sit between the six
            # faster queries and the six validation jobs.
            tuple(CHECK_SIZES) + ("fk",) * 4 + ("ik",) * 8 + ("ik_unreachable",) * 2,
            rounds=10,
            trace_jobs=40,
            shuffle=True,
        ),
    )
}


@dataclass
class Job:
    """One unit of work for the closed-loop client.

    ``kind`` is ``run`` (a scenario through ``rcmkin run``), ``cli`` (an
    ``fk``/``ik`` query) or ``check`` (one ``validation.check_*`` call).
    """

    kind: str
    name: str
    spec: dict | None = None  # scenario keys of a run job, values as written
    argv: list | None = None  # arguments of a cli job after the subcommand
    check: tuple | None = None  # (validation function, n, seed) of a check job
    expect_exit: int = 0
    expect_t: str | None = None  # recorded 'at sample t = ...' value of a rejection
    samples: int = 0  # instrument-samples or oracle configurations when accepted

    @property
    def rejected(self) -> bool:
        return self.expect_exit != 0


# --- geometry written independently of rcmkin -------------------------------


def rot(axis: int, deg: float):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    if axis == 0:
        return ((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c))
    if axis == 1:
        return ((c, 0.0, s), (0.0, 1.0, 0.0), (-s, 0.0, c))
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def chain(rotations, v):
    """The product of 3x3 rotations applied to a vector."""
    for m in reversed(rotations):
        v = tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))
    return v


def module_frame(side: str, alpha: float, spacing: float):
    """(port offset, signed alpha) of a module; the right one mirrors the left."""
    if side == "left":
        return (-spacing, 0.0, 0.0), alpha
    return (spacing, 0.0, 0.0), -alpha


def to_fixed(pose, arm):
    """Fixed-frame point of a platform-frame point: position + Rx(psi) Ry(theta) Rz(phi) arm."""
    x, y, z, psi, theta, phi = pose
    world = chain((rot(0, psi), rot(1, theta), rot(2, phi)), arm)
    return (x + world[0], y + world[1], z + world[2])


def tip_of(pose, joints, side, alpha, beta, spacing):
    """Fixed-frame tip: port offset plus the module stack
    Ry(alpha) Rx(q1) Ry(q2) Rx(beta) and insertion along -Z, on the platform."""
    q1, q2, q3 = joints
    offset, a = module_frame(side, alpha, spacing)
    local = chain((rot(1, a), rot(0, q1), rot(1, q2), rot(0, beta)), (0.0, 0.0, -q3))
    return to_fixed(pose, tuple(o + v for o, v in zip(offset, local)))


def profile_duration(delta: float, omega: float, eps: float) -> float:
    """Duration of the minimum-time rest-to-rest trapezoid (or triangle)."""
    d = abs(delta)
    if d == 0.0:
        return 0.0
    if d < omega * omega / eps:
        return 2.0 * math.sqrt(d / eps)
    return d / omega + omega / eps


def plan_duration(spec: dict) -> float:
    omega, eps = float(spec["omega_max"]), float(spec["eps_max"])
    motion = spec["motion"]
    if motion == "type4":
        deltas = [float(spec["delta_psi"]), float(spec["delta_theta"])]
    else:
        start = [float(v) for v in spec["start_joints"].split()]
        if motion == "type2":
            deltas = [float(spec["target_q3"]) - start[2]]
        else:
            target = [float(v) for v in spec["target_joints"].split()]
            deltas = [b - a for a, b in zip(start, target)]
    return max(profile_duration(d, omega, eps) for d in deltas)


def grid_samples(spec: dict) -> int:
    """Rows of the plan's uniform grid with inclusive endpoints."""
    t_total, dt = plan_duration(spec), float(spec["dt"])
    if t_total <= 0.0:
        return 1
    return max(1, math.ceil(t_total / dt - _GRID_TOL)) + 1


def instruments_of(spec: dict) -> list[str]:
    if spec["motion"] == "type4":
        return [side for side in ("left", "right") if f"tip_{side}" in spec]
    return [spec["instrument"]]


def scenario_text(spec: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in spec.items())


# --- feasible scenarios -------------------------------------------------------


def fmt(values, decimals: int = 4) -> str:
    return " ".join(f"{v:.{decimals}f}" for v in values)


def base_spec(rng: random.Random, motion: str) -> dict:
    pose = (
        rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-560, -440),
        rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(-90, 90),
    )
    return {
        "motion": motion,
        "pose": fmt(pose),
        "alpha": f"{rng.uniform(5, 15):.4f}",
        "beta": f"{rng.uniform(5, 15):.4f}",
        "port_spacing": f"{rng.uniform(8, 14):.4f}",
    }


def set_grid(spec: dict, samples: int) -> dict:
    """Choose dt so the grid has exactly ``samples`` rows; t_total / dt sits
    half a step from an integer, far from the planners' ceil boundary."""
    spec["dt"] = repr(plan_duration(spec) / (samples - 1.5))
    assert grid_samples(spec) == samples
    return spec


def type4(rng: random.Random, samples: int, sides=("left", "right"), tilt=(8, 18)) -> dict:
    """Platform tilt of 8-18 deg per axis holding tips placed from joints
    within +/-30 deg, so every sample stays far inside the joint travels."""
    spec = base_spec(rng, "type4")
    pose = [float(v) for v in spec["pose"].split()]
    geometry = (float(spec["alpha"]), float(spec["beta"]), float(spec["port_spacing"]))
    for side in sides:
        joints = (rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(120, 220))
        spec[f"tip_{side}"] = fmt(tip_of(pose, joints, side, *geometry), 3)
    for key in ("delta_psi", "delta_theta"):
        spec[key] = f"{rng.choice((-1, 1)) * rng.uniform(*tilt):.4f}"
    spec["omega_max"] = f"{rng.uniform(6, 12):.4f}"
    spec["eps_max"] = f"{rng.uniform(3, 6):.4f}"
    return set_grid(spec, samples)


def _joint_space(rng: random.Random, motion: str, samples: int, endoscope: bool) -> dict:
    spec = base_spec(rng, motion)
    spec["instrument"] = rng.choice(("left", "right"))
    start = (rng.uniform(-45, 45), rng.uniform(-45, 45), rng.uniform(80, 220))
    spec["start_joints"] = fmt(start)
    if motion == "type2":
        spec["target_q3"] = f"{start[2] + rng.choice((-1, 1)) * rng.uniform(30, 70):.4f}"
        spec["omega_max"] = f"{rng.uniform(10, 30):.4f}"
        spec["eps_max"] = f"{rng.uniform(20, 60):.4f}"
    else:
        target = (rng.uniform(-45, 45), rng.uniform(-45, 45), rng.uniform(80, 220))
        spec["target_joints"] = fmt(target)
        spec["omega_max"] = f"{rng.uniform(5, 15):.4f}"
        spec["eps_max"] = f"{rng.uniform(3, 8):.4f}"
    if endoscope:
        spec["endoscope_insertion"] = f"{rng.uniform(50, 150):.3f}"
    return set_grid(spec, samples)


# --- job lists ----------------------------------------------------------------


def load_catalogue() -> dict:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def _run_job(name: str, spec: dict) -> Job:
    samples = grid_samples(spec) * len(instruments_of(spec))
    return Job("run", name, spec=spec, samples=samples)


def query_pose(rng: random.Random):
    pose = (
        rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-560, -440),
        rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-180, 180),
    )
    side = rng.choice(("left", "right"))
    geometry = (rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(5, 15))
    return pose, side, geometry


def query_argv(command, pose, side, geometry, **vectors):
    """``fk``/``ik`` arguments in ``--key=value`` form: argparse would read a
    separate value such as ``-12.5,3`` as an unknown option."""
    alpha, beta, spacing = geometry
    argv = [command, "--pose=" + ",".join(f"{v:.4f}" for v in pose)]
    argv += [f"--{key}=" + ",".join(f"{v:.{d}f}" for v in values)
             for key, (values, d) in vectors.items()]
    return argv + [f"--side={side}", f"--alpha={alpha:.4f}", f"--beta={beta:.4f}",
                   f"--port-spacing={spacing:.4f}"]


def _query_job(rng: random.Random, name: str, command: str) -> Job:
    """An fk or ik query at joints within +/-60 deg of a seeded pose."""
    pose, side, geometry = query_pose(rng)
    joints = (rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(20, 280))
    if command == "fk":
        argv = query_argv(command, pose, side, geometry, joints=(joints, 4))
    else:
        # Round the pose first so the tip is placed from the pose the CLI reads.
        pose = tuple(round(v, 4) for v in pose)
        geometry = tuple(round(v, 4) for v in geometry)
        tip = tip_of(pose, joints, side, *geometry)
        argv = query_argv(command, pose, side, geometry, tip=(tip, 6))
    return Job("cli", name, argv=argv, samples=1)


def generate(workload: str, seed: int) -> list[Job]:
    """The distinct jobs of a workload for a seed, in execution order."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    recorded = {}
    for kind, entries in load_catalogue().items():
        entries = list(entries)
        rng.shuffle(entries)
        recorded[kind] = itertools.cycle(entries)
    jobs: list[Job] = []
    for r in range(spec.rounds):
        # Slot j of round r gets batch size r + j (cyclically), so every seed
        # pairs each kind of plan with the same sizes; the seed only moves
        # the slots within a round.
        slots = [(slot, BATCH_SAMPLES[(r + j) % len(BATCH_SAMPLES)])
                 for j, slot in enumerate(spec.round)]
        if spec.shuffle:
            rng.shuffle(slots)
        for slot, size in slots:
            name = f"job{len(jobs):04d}"
            if slot in recorded:
                entry = next(recorded[slot])
                jobs.append(
                    Job("run" if "spec" in entry else "cli", name,
                        spec=entry.get("spec"), argv=entry.get("argv"),
                        expect_exit=entry["exit"], expect_t=entry["t"])
                )
            elif slot in CHECK_SIZES:
                n = CHECK_SIZES[slot]
                jobs.append(Job("check", name, check=(slot, n, seed * 1000 + r), samples=n))
            elif slot in ("fk", "ik"):
                jobs.append(_query_job(rng, name, slot))
            elif workload == "reorient_dense":
                jobs.append(_run_job(name, type4(rng, REORIENT_SAMPLES)))
            elif workload == "joint_sweep":
                motion = "type2" if slot.startswith("t2") else "type3"
                samples = SWEEP_LONG_SAMPLES if slot.endswith("+") else SWEEP_SAMPLES
                jobs.append(_run_job(name, _joint_space(rng, motion, samples, True)))
            else:
                size = BATCH_LONG_SAMPLES if slot.endswith("+") else size
                if slot.startswith("t4"):
                    sides = (("left", "right") if slot.startswith("t4x2")
                             else (rng.choice(("left", "right")),))
                    job_spec = type4(rng, size, sides)
                else:
                    job_spec = _joint_space(rng, "type2" if slot == "t2" else "type3", size,
                                            rng.random() < 0.5)
                jobs.append(_run_job(name, job_spec))
    return jobs


def write_inputs(jobs: list[Job], directory: Path) -> None:
    """Write each run job's scenario file; the program reads only these."""
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.kind == "run":
            (directory / f"{job.name}.cfg").write_text(scenario_text(job.spec), encoding="ascii")
