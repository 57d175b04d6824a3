"""rcmkin benchmark: seeded scenario workloads through the public entry point.

    python3 benchmarks/bench.py --workload reorient_dense --seed 1 --seconds 20 --trace 0
    python3 benchmarks/bench.py --all --seed 1 --seconds 20     # every workload, both modes

One closed-loop client in one process, with no worker threads.  The client
runs each generated job in-process through ``rcmkin.cli.main`` (or one
``validation.check_*`` call), and starts the next job when the previous one
ends.  Outputs are checked outside the timed region with the independent
oracles in ``oracle.py``.  The first run of each distinct job is checked in
full, and every later run must reproduce its bytes exactly.

``--trace 0`` reports the end-to-end metrics:

* samples_per_s  instrument-samples (oracle configurations on oracle_suite)
                 of correct accepted jobs per second of job time
* job_ms_p50     median job latency
* job_ms_tail    latency at the highest percentile with ten jobs beyond it;
                 its percentile and job count are printed beside it
* reject_ms_p50  median latency of the jobs expected to be rejected
* setup_s        median over seven fresh processes: import rcmkin, generate
                 the inputs, run one untimed warm-up job
* peak_rss_mb    peak resident memory of the workload process

Times are scaled to a reference machine speed measured between jobs (see
``SpeedProbe``); the unscaled values are printed beside them.

``--trace 1`` runs a fixed slice of the jobs untraced, then the same slice
with every public layer function wrapped (``tracer.py``).  It repeats that
pair of passes until ``--seconds`` is used up, and reports the median
per-layer metrics of the traced passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts jobs with a
wrong outcome: an oracle failure, an unexpected exit code, the wrong
rejection sample time, or an escaped exception.  ``failed_ratio`` is printed
among the report lines.  Run metadata goes to the line before the JSON and
to ``.bench_run/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time runs from here, before rcmkin is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 6  # fresh processes besides this one, so setup_s is a median of seven
TAIL_BEYOND = 10

#: Seconds ``speed_kernel`` takes at the reference speed: its typical time on
#: the 2-core x86_64 machine (Python 3.11.7, numpy 2.4.6) where the benchmark
#: was written.  End-to-end times are scaled to that speed; see ``SpeedProbe``.
SPEED_REF_S = 0.004
SPEED_STEPS = 400
#: Job seconds between two speed probes in the timed pass.
SPEED_EVERY_S = 0.25


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    result: object = None  # OracleResult of a check job
    error: str | None = None  # traceback of an exception that escaped the program


def import_program():
    """Import rcmkin from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import rcmkin.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rcmkin from {src}: {exc}") from None
    if Path(rcmkin.cli.__file__).resolve().parent != src / "rcmkin":
        raise SystemExit(f"bench: rcmkin was imported from {rcmkin.cli.__file__}, not {src}")
    return rcmkin.cli


class Client:
    """Runs jobs in-process and judges their outcomes against the oracles."""

    def __init__(self, jobs, workdir: Path):
        self.cli = import_program()
        if any(job.kind == "check" for job in jobs):
            self.validation = importlib.import_module("rcmkin.validation")
        import oracle

        self.oracle = oracle
        self.workdir = workdir
        self.tracer = None  # a tracing.Tracer while a traced pass runs
        self.fingerprints: dict[str, str] = {}

    def paths(self, job):
        return self.workdir / f"{job.name}.cfg", self.workdir / f"{job.name}.csv"

    def execute(self, job) -> Outcome:
        cfg, out = self.paths(job)
        stdout, stderr = io.StringIO(), io.StringIO()
        code, result, error = None, None, None
        trace = self.tracer.job(job.name) if self.tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with trace, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if job.kind == "check":
                    function, n, seed = job.check
                    result = getattr(self.validation, function)(n=n, seed=seed)
                    code = 0
                elif job.kind == "run":
                    code = self.cli.main(["run", str(cfg), "--out", str(out), "--quiet"])
                else:
                    code = self.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a wrong outcome, not a crash of the client
            error = traceback.format_exc()
        seconds = time.perf_counter() - started
        return Outcome(code, stdout.getvalue(), stderr.getvalue(), seconds, result, error)

    def judge(self, job, outcome: Outcome) -> list[str]:
        """Problems with an outcome.  The first run of a job is checked by the
        oracles; every later run must reproduce that run's bytes."""
        if outcome.error:
            return [outcome.error]
        _, out = self.paths(job)
        written = out.read_bytes() if job.kind == "run" and not job.rejected else b""
        digest = hashlib.sha256(
            f"{outcome.code}\0{outcome.stdout}\0{outcome.stderr}\0{outcome.result!r}\0".encode()
            + written
        ).hexdigest()
        if job.name in self.fingerprints:
            if digest == self.fingerprints[job.name]:
                return []
            return ["outcome differs from the first run of this job"]
        if job.rejected:
            problems = self.oracle.check_rejection(job, outcome.code, outcome.stderr)
        elif outcome.code != 0:
            problems = [f"exit {outcome.code}: {outcome.stderr.strip()[:300]}"]
        elif job.kind == "check":
            problems = self.oracle.check_oracle(job, outcome.result)
        elif job.kind == "cli":
            problems = self.oracle.check_query(job, outcome.stdout)
        else:
            problems = self.oracle.check_plan(job.spec, out)
        if not problems:
            self.fingerprints[job.name] = digest
        return problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_problem: str | None = None

    def add(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.first_problem is None:
                self.first_problem = f"{job.name}: {problems[0]}"


def set_up(workload: str, seed: int, workdir: Path):
    """Generate and write the inputs, then run one untimed warm-up job."""
    jobs = workloads.generate(workload, seed)
    workloads.write_inputs(jobs, workdir)
    client = Client(jobs, workdir)
    client.execute(jobs[0])
    return jobs, client


def tail(latencies: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def speed_kernel() -> float:
    """Fixed work shaped like one plan sample: interpreter arithmetic, small
    array construction, 3x3 products and a determinant."""
    import numpy as np

    m, v, acc = np.eye(3), np.ones(3), 0.0
    for i in range(SPEED_STEPS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        m = np.array(((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))) @ m
        acc += float(np.linalg.det(m)) + float((m @ v)[0])
    return acc


class SpeedProbe:
    """Times ``speed_kernel`` between jobs to scale job times to one speed.

    The benchmark runs on shared machines whose speed drifts by tens of
    percent over minutes, for the kernel and the program alike.  A job time
    multiplied by ``SPEED_REF_S / kernel time`` (the mean of the probes just
    before and just after the job) is the time the job would take at the
    reference speed, and it is comparable between runs made minutes apart.
    """

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> None:
        """Record the median of three kernel times, so one preempted run
        does not skew the scale."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            speed_kernel()
            times.append(time.perf_counter() - started)
        self.samples.append(statistics.median(times))

    def scale(self, index: int) -> float:
        """Scale factor for the jobs between probe ``index`` and the next one."""
        return SPEED_REF_S / (0.5 * (self.samples[index] + self.samples[index + 1]))


def scaled_setup(setup_s: float) -> float:
    probe = SpeedProbe()
    for _ in range(5):
        probe.measure()
    return setup_s * SPEED_REF_S / statistics.median(probe.samples)


def setup_probe_times(workload: str, seed: int) -> list[float]:
    """Set-up seconds of fresh processes, each measured from its own start."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_pass(jobs, client: Client, seconds: float, min_jobs: int, tally: Tally):
    """Closed loop over the jobs, cycling, until ``seconds`` of job time and
    at least ``min_jobs`` jobs.

    Returns (job, seconds, seconds at the reference speed, correct) per job.
    """
    probe = SpeedProbe()
    probe.measure()
    runs, busy, since_probe = [], 0.0, 0.0
    while busy < seconds or len(runs) < min_jobs:
        job = jobs[len(runs) % len(jobs)]
        outcome = client.execute(job)
        busy += outcome.seconds
        since_probe += outcome.seconds
        problems = client.judge(job, outcome)
        tally.add(job, problems)
        runs.append((job, outcome.seconds, len(probe.samples) - 1, not problems))
        if since_probe >= SPEED_EVERY_S:
            probe.measure()
            since_probe = 0.0
    probe.measure()
    return [(job, raw, raw * probe.scale(k), ok) for job, raw, k, ok in runs], probe


def end_to_end(workload, seed, seconds, jobs, client, setup_s, tally, meta):
    # At least one whole round, so every kind of job, rejections too, is timed.
    runs, probe = timed_pass(jobs, client, seconds, len(workloads.WORKLOADS[workload].round), tally)
    setups = [scaled_setup(setup_s)] + setup_probe_times(workload, seed)

    def summary(column):
        latencies = [run[column] for run in runs]
        rejections = [run[column] for run in runs if run[0].rejected]
        done = sum(run[0].samples for run in runs if run[3] and not run[0].rejected)
        return done / sum(latencies), latencies, rejections

    rate, latencies, rejections = summary(2)
    raw_rate, raw_latencies, raw_rejections = summary(1)
    tail_s, tail_pct = tail(latencies)
    meta.update(
        jobs_run=len(runs), rejections_run=len(rejections), tail_percentile=tail_pct,
        setup_samples_s=setups, speed_probes=len(probe.samples),
        speed_probe_median_s=statistics.median(probe.samples),
        unscaled={"samples_per_s": raw_rate,
                  "job_ms_p50": statistics.median(raw_latencies) * 1e3,
                  "job_ms_tail": tail(raw_latencies)[0] * 1e3,
                  "reject_ms_p50": statistics.median(raw_rejections) * 1e3},
    )
    return {
        "samples_per_s": (rate, "1/s"),
        "job_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "job_ms_tail": (tail_s * 1e3, "ms"),
        "reject_ms_p50": (statistics.median(rejections) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_round(client, batch, tracer, tally):
    """The batch untraced, then traced; returns (spans aggregate, per-layer
    metrics, job seconds of both passes)."""
    untraced = 0.0
    for job in batch:
        outcome = client.execute(job)
        untraced += outcome.seconds
        tally.add(job, client.judge(job, outcome))
    tracer.spans = []
    client.tracer = tracer
    try:
        with tracer.installed():
            outcomes = [client.execute(job) for job in batch]
    finally:
        client.tracer = None
    traced, accepted, rows, nbytes = 0.0, 0, 0, 0
    for job, outcome in zip(batch, outcomes):
        traced += outcome.seconds
        # Judged after the traced pass, so the checker's calls leave no spans;
        # judge compares every byte with the untraced run of the job.
        problems = client.judge(job, outcome)
        tally.add(job, problems)
        if job.kind == "run" and not job.rejected and not problems:
            accepted += job.samples
            written = client.paths(job)[1].read_bytes()
            rows += written.count(b"\n") - 2
            nbytes += len(written)
    agg = tracing.aggregate(tracer.spans)
    metrics = tracing.layer_metrics(agg, accepted, rows, nbytes, traced / untraced)
    return agg, metrics, untraced + traced


def traced_rounds(workload, seed, seconds, jobs, client, tally, meta):
    batch = jobs[:workloads.WORKLOADS[workload].trace_jobs]
    tracer = tracing.Tracer()
    rounds, busy = [], 0.0
    while busy < seconds or not rounds:
        agg, metrics, spent = trace_round(client, batch, tracer, tally)
        rounds.append(metrics)
        busy += spent
    RUN_DIR.mkdir(exist_ok=True)
    tracing.write_spans(tracer.spans, RUN_DIR / f"spans-{workload}-{seed}.tsv")
    stopped, started = tracing.call_changes(agg, tracing.load_expected_calls()[workload])
    meta.update(
        trace_rounds=len(rounds), trace_jobs=len(batch), no_longer_called=stopped,
        newly_called=started, undefined=tracing.missing_groups(tracer.wrapped),
        functions={k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                   for k, v in sorted(agg["functions"].items())},
    )
    return tracing.median_metrics(rounds)


def run_metadata(workload, seed, seconds, trace, jobs):
    import importlib.metadata  # after set-up, so its import is not timed

    run_jobs = [j for j in jobs if j.kind == "run"]
    return {
        "workload": workload,
        "why": workloads.WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        # Versions from package metadata: importing scipy would add to peak_rss_mb.
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "distinct_jobs": len(jobs),
        "rejected_share": sum(j.rejected for j in jobs) / len(jobs),
        "instruments_per_plan": sorted({len(workloads.instruments_of(j.spec)) for j in run_jobs}),
        "samples_per_plan": sorted({workloads.grid_samples(j.spec) for j in run_jobs}),
        "accepted_samples": sum(j.samples for j in jobs),
    }


def run_one(args) -> int:
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, client = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(repr(scaled_setup(setup_s)))
            return 0
        meta = run_metadata(args.workload, args.seed, args.seconds, args.trace, jobs)
        tally = Tally()
        if args.trace:
            metrics = traced_rounds(args.workload, args.seed, args.seconds, jobs, client, tally, meta)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, jobs, client, setup_s,
                                 tally, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} job_ms_tail is p{meta['tail_percentile']:.1f} "
              f"of {meta['jobs_run']} jobs")
        for name, value in meta["unscaled"].items():
            print(f"{args.workload} {name} before scaling to the reference speed = {value:.6g}")
    print(f"{args.workload} failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} jobs)")
    if tally.first_problem:
        print(f"{args.workload} first wrong outcome: {tally.first_problem}")
    for name in meta.get("no_longer_called", []):
        print(f"{args.workload} no longer called, its time is now in its callers: {name}")
    for name in meta.get("newly_called", []):
        print(f"{args.workload} newly called: {name}")
    for name in meta.get("undefined", []):
        print(f"{args.workload} no longer defined: {name}")
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RUN_DIR.mkdir(exist_ok=True)
    record = RUN_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **summary}, indent=1) + "\n", encoding="ascii")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "functions"}))
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process, one after another."""
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write("".join(line + "\n" for line in done.stdout.splitlines()
                                     if line.startswith(name)))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in both modes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
