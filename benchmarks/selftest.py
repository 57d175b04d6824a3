"""Self-tests of the benchmark's generator, checker and tracer.

    python3 -m pytest benchmarks/selftest.py -q
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import bench
import tracer as tracing
import workloads


@pytest.fixture
def client_for(tmp_path):
    def make(jobs):
        workloads.write_inputs(jobs, tmp_path)
        return bench.Client(jobs, tmp_path)

    return make


def _files(jobs, directory):
    workloads.write_inputs(jobs, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first, second = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert first == second
    assert _files(first, tmp_path / "a") == _files(second, tmp_path / "b")
    assert workloads.generate(workload, 8) != first


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_grid_is_bounded(workload):
    for job in workloads.generate(workload, 3):
        if job.kind == "run":
            assert workloads.grid_samples(job.spec) <= workloads.SWEEP_LONG_SAMPLES


def test_generator_fk_matches_rcmkin():
    bench.import_program()
    from rcmkin import PlatformPose, SphericalJoints, fk_tip_fixed, left_geometry, right_geometry

    rng = random.Random(1)
    for _ in range(200):
        pose = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-600, -400),
                rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-180, 180))
        joints = (rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(10, 290))
        side, geometry = rng.choice(("left", "right")), (rng.uniform(0, 20), rng.uniform(0, 20), 10.0)
        build = left_geometry if side == "left" else right_geometry
        expected = fk_tip_fixed(PlatformPose(*pose), SphericalJoints(*joints),
                                build(*geometry[:2], port_spacing=geometry[2]))
        assert workloads.tip_of(pose, joints, side, *geometry) == pytest.approx(expected, abs=1e-9)


def _small_plan_job():
    spec = workloads.type4(random.Random(5), 30)
    return workloads.Job("run", "plan", spec=spec, samples=60)


def test_checker_accepts_a_correct_plan_and_rejects_a_corrupted_csv(client_for):
    job = _small_plan_job()
    client = client_for([job])
    outcome = client.execute(job)
    assert outcome.code == 0
    _, out = client.paths(job)
    assert client.oracle.check_plan(job.spec, out) == []

    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    row = lines[10].split(",")
    column = header.index("right_tip_y")
    row[column] = f"{float(row[column]) + 1e-3:.6f}"
    corrupted = lines[:10] + [",".join(row)] + lines[11:]
    out.write_text("\n".join(corrupted) + "\n")
    assert any("chain FK" in p for p in client.oracle.check_plan(job.spec, out))

    out.write_text("\n".join(lines[:-1]) + "\n")  # one row short of the grid
    assert client.oracle.check_plan(job.spec, out)

    row = lines[10].split(",")
    column = header.index("left_q2_ddot")
    row[column] = f"{float(row[column]) + 1e-2:.6f}"  # a wrong compensation acceleration
    out.write_text("\n".join(lines[:10] + [",".join(row)] + lines[11:]) + "\n")
    assert any("move the tip" in p for p in client.oracle.check_plan(job.spec, out))

    out.write_text("\n".join(lines) + "\n")
    assert client.judge(job, outcome) == []
    out.write_text("\n".join(corrupted) + "\n")
    assert client.judge(job, outcome) == ["outcome differs from the first run of this job"]


def test_checker_rejects_a_wrong_exit_code_or_sample_time(client_for):
    entry = workloads.load_catalogue()["short_singular"][0]
    job = workloads.Job("run", "reject", spec=entry["spec"], expect_exit=entry["exit"],
                        expect_t=entry["t"])
    client = client_for([job])
    outcome = client.execute(job)
    assert client.oracle.check_rejection(job, outcome.code, outcome.stderr) == []
    wrong_code = replace(job, expect_exit=2)
    assert client.oracle.check_rejection(wrong_code, outcome.code, outcome.stderr)
    wrong_time = replace(job, expect_t="0")
    assert client.oracle.check_rejection(wrong_time, outcome.code, outcome.stderr)
    assert client.oracle.check_rejection(job, 0, "")


def test_tracing_leaves_outputs_unchanged_and_restores_functions(client_for):
    queries = [replace(job, name=f"q{job.name}") for job in workloads.generate("oracle_suite", 2)]
    jobs = workloads.generate("scenario_batch", 2)[:12] + queries[:20]
    client = client_for(jobs)
    for job in jobs:
        assert client.judge(job, client.execute(job)) == []
    from rcmkin import spherical, trajectory

    original = trajectory.ik_full
    tracer = tracing.Tracer()
    client.tracer = tracer
    with tracer.installed():
        assert trajectory.ik_full is not original
        for job in jobs:
            # judge compares every byte of the outcome with the untraced run
            assert client.judge(job, client.execute(job)) == []
    assert trajectory.ik_full is original is spherical.ik_full

    agg = tracing.aggregate(tracer.spans)
    metrics = tracing.layer_metrics(agg, 0, 0, 0, 1.0)
    assert metrics["trace.accounted_ratio"][0] == pytest.approx(1.0, abs=0.05)
    assert metrics["differential.jacobians_calls"][0] > 0
    assert metrics["validation.check_numeric_ik_s"][0] > 0
    assert tracing.missing_groups(tracer.wrapped) == []
    called = sorted(set(agg["functions"]) - {tracing.JOB})
    assert tracing.call_changes(agg, called[1:] + ["trajectory.gone"]) == (
        ["trajectory.gone"], called[:1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    empty = {"groups": {}, "layer_self": {}, "job_time": 0.0, "per_sample_jacobians": 0, "spans": 0}
    units = {name: unit for name, (_, unit) in tracing.layer_metrics(empty, 0, 0, 0, 1.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
