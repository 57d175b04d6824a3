"""Record the expectations the benchmark compares later commits against.

    python3 benchmarks/record.py   # rewrites expected_rejections.json, expected_calls.json

``expected_calls.json`` lists, per workload, the public functions one traced
round calls (seed 1).  The sections below describe ``expected_rejections.json``:
the rejected jobs the workloads draw from, with their outcomes.

Candidates come from fixed seeds.  Each kind fails at a controlled sample, so
every entry of a kind costs about the same time before it is rejected:

* ``long_joint_limit`` / ``short_joint_limit``: a type-4 tilt of 20-30 deg
  per axis.  The q1 or q2 travel is set halfway between the largest value
  before a chosen sample and the value at it, so the plan exits 2 there.
  Sample counts are 1001 / 40, and the chosen sample is 48-52% / 40-60%
  into the grid.
* ``long_singular`` / ``short_singular``: a type-3 move whose q2 crosses
  90 deg with ``q2_limit`` widened to 125, so the plan exits 3 at the first
  sample past the crossing.  Only crossings 49.5-50.5% / 40-60% into the
  motion are kept.
* ``ik_unreachable``: an ``ik`` query whose tip direction lies outside the
  insertion cone, which exits 2.

Each entry is run through ``rcmkin.cli.main`` at the current commit.  Its
exit code and ``at sample t = ...`` value are stored as the expectation that
later commits must reproduce.  Re-record only on purpose: a changed
expectation is a changed failure semantics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import tracer as tracing
import workloads
from bench import RUN_DIR, Client, Tally, import_program, trace_round

KINDS = {  # kind -> (entries, samples, window of the failing sample as a grid fraction)
    "long_joint_limit": (6, workloads.REORIENT_SAMPLES, (0.48, 0.52)),
    "long_singular": (6, workloads.SWEEP_SAMPLES, (0.495, 0.505)),
    "short_joint_limit": (8, 40, (0.4, 0.6)),
    "short_singular": (12, 40, (0.4, 0.6)),
    "ik_unreachable": (8, None, None),
}


def run_cli(cli, argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, stderr.getvalue()


def joint_limit_spec(rng, samples, window, sides):
    """A feasible tilt, then a q1 or q2 travel that the chosen sample exceeds."""
    from rcmkin import scenario
    from rcmkin.errors import KinematicsError

    spec = workloads.type4(rng, samples, sides, tilt=(20, 30))
    try:
        plan, _ = scenario.run_scenario(scenario.parse_scenario(workloads.scenario_text(spec)))
    except KinematicsError:
        return None, None
    first = math.ceil(window[0] * (samples - 1))
    last = math.floor(window[1] * (samples - 1))
    for column, key in ((0, "q1_limit"), (1, "q2_limit")):
        reach = [max(abs(track.joints[i, column]) for track in plan.instruments)
                 for i in range(samples)]
        for i in range(first, last + 1):
            before = max(reach[:i])
            if reach[i] > before + 1e-6:
                spec[key] = repr(float(before + reach[i]) / 2.0)
                return spec, plan.time[i]
    return None, None


def singular_spec(rng, samples, endoscope):
    """A type-3 move whose q2 crosses 90 deg near the middle of the motion."""
    spec = workloads.base_spec(rng, "type3")
    spec["instrument"] = rng.choice(("left", "right"))
    spec["q2_limit"] = "125"
    sign = rng.choice((-1, 1))
    start_q2 = sign * rng.uniform(62, 75)
    target_q2 = sign * (180.0 - abs(start_q2) + rng.uniform(-3, 3))
    start = (rng.uniform(-45, 45), start_q2, rng.uniform(80, 220))
    target = (rng.uniform(-45, 45), target_q2, rng.uniform(80, 220))
    spec["start_joints"] = workloads.fmt(start)
    spec["target_joints"] = workloads.fmt(target)
    spec["omega_max"] = f"{rng.uniform(5, 15):.4f}"
    spec["eps_max"] = f"{rng.uniform(3, 8):.4f}"
    if endoscope:
        spec["endoscope_insertion"] = f"{rng.uniform(50, 150):.3f}"
    return workloads.set_grid(spec, samples)


def unreachable_argv(rng):
    """An ik query whose tip direction w has |w_x| > cos(beta) in the module frame."""
    pose, side, (alpha, _, spacing) = workloads.query_pose(rng)
    beta = rng.uniform(12, 25)
    pose = tuple(round(v, 4) for v in pose)
    alpha, beta, spacing = round(alpha, 4), round(beta, 4), round(spacing, 4)
    wx = rng.choice((-1, 1)) * rng.uniform(math.cos(math.radians(beta)) + 0.01, 0.995)
    phase = rng.uniform(0, 2 * math.pi)
    rest = math.sqrt(1.0 - wx * wx)
    w = (wx, rest * math.cos(phase), rest * math.sin(phase))
    offset, signed_alpha = workloads.module_frame(side, alpha, spacing)
    depth = rng.uniform(50, 250)
    local = workloads.chain((workloads.rot(1, signed_alpha),), tuple(-depth * c for c in w))
    tip = workloads.to_fixed(pose, tuple(o + c for o, c in zip(offset, local)))
    return workloads.query_argv("ik", pose, side, (alpha, beta, spacing), tip=(tip, 6))


def record(kind, cli, workdir: Path) -> list[dict]:
    count, samples, window = KINDS[kind]
    entries, attempt = [], 0
    while len(entries) < count:
        rng = random.Random(f"record:{kind}:{attempt}")
        attempt += 1
        if kind == "ik_unreachable":
            argv = unreachable_argv(rng)
            code, stderr = run_cli(cli, argv)
            if code == 2 and "insertion cone" in stderr:
                entries.append({"argv": argv, "exit": code, "t": None})
            continue
        if kind.endswith("joint_limit"):
            sides = ("left", "right") if kind.startswith("long") or rng.random() < 0.5 \
                else (rng.choice(("left", "right")),)
            spec, t_fail = joint_limit_spec(rng, samples, window, sides)
            if spec is None:
                continue
            expected = (2, "exceeds")
        else:
            spec = singular_spec(rng, samples, kind.startswith("long"))
            expected = (3, "changed sign")
        cfg = workdir / "candidate.cfg"
        cfg.write_text(workloads.scenario_text(spec), encoding="ascii")
        code, stderr = run_cli(cli, ["run", str(cfg), "--out", str(workdir / "x.csv"), "--quiet"])
        t = stderr.split("at sample t = ", 1)[-1].split(" s:", 1)[0] if "at sample" in stderr else None
        if code != expected[0] or expected[1] not in stderr or t is None:
            continue
        t_total = workloads.plan_duration(spec)
        if kind.endswith("joint_limit"):
            if t != f"{t_fail:.9g}":
                raise SystemExit(f"{kind}: rejected at {t}, constructed for {t_fail:.9g}")
        elif not window[0] <= float(t) / t_total <= window[1]:
            continue
        entries.append({"spec": spec, "exit": code, "t": t})
    return entries


def main() -> int:
    cli = import_program()
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        catalogue = {kind: record(kind, cli, Path(tmp)) for kind in KINDS}
    workloads.CATALOGUE.write_text(json.dumps(catalogue, indent=1) + "\n", encoding="ascii")
    for kind, entries in catalogue.items():
        print(kind, len(entries), [e["t"] for e in entries])
    calls = {}
    for workload, spec in workloads.WORKLOADS.items():
        jobs = workloads.generate(workload, 1)
        with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
            workloads.write_inputs(jobs, Path(tmp))
            client = Client(jobs, Path(tmp))
            tally = Tally()
            agg, _, _ = trace_round(client, jobs[:spec.trace_jobs], tracing.Tracer(), tally)
        if tally.failed:
            raise SystemExit(f"{workload}: {tally.first_problem}")
        calls[workload] = sorted(set(agg["functions"]) - {tracing.JOB})
        print(workload, len(calls[workload]), "functions called")
    tracing.EXPECTED_CALLS.write_text(json.dumps(calls, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
