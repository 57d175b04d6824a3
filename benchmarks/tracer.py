"""Span tracing of rcmkin's layers from outside the package.

``Tracer.installed()`` wraps every public function of each layer module and
rebinds the wrapper in every rcmkin namespace that holds the original.  This
covers the attribute lookups and the names bound at import: ``trajectory``
imports ``ik_full``, ``jacobians``, ``jacobian_rate`` and ``fk_tip_fixed``
by name, and ``cli`` imports the ``scenario`` and ``csvio`` modules.  Leaving
the context restores every original.

Each call records one span ``(job, id, parent, name, start, end)`` in memory.
A span's self time is its duration minus its children's durations.  Spans
of ``platform`` and ``transforms`` are not recorded: those run per matrix
inside the other layers, so their time counts toward their callers' self
time.  When a later version stops calling a public function, its time moves
into the caller's self time; ``call_changes`` compares the functions called
with those recorded in ``expected_calls.json``, so the report names the move
instead of hiding it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "scenario", "trajectory", "spherical", "differential", "csvio", "validation")

#: Called once per CSV value; a span per number would multiply the trace cost,
#: so its time stays in the caller's self time.
UNTRACED = {"csvio.format_number"}

#: Per-layer metric stem -> the public functions whose outermost spans it sums.
GROUPS = {
    "differential.jacobian_rate": ("differential.jacobian_rate",),
    "differential.jacobians": ("differential.jacobians",),
    "differential.solve": ("differential.compensation_rates", "differential.compensation_accels"),
    "spherical.ik": ("spherical.ik_full", "spherical.ik_tip_platform"),
    "spherical.fk": ("spherical.fk_tip_fixed", "spherical.fk_tip_fixed_chain",
                     "spherical.tip_in_platform", "spherical.module_matrix"),
    "trajectory.sample_profile": ("trajectory.sample_profile",),
    "trajectory.plan": ("trajectory.plan_type4", "trajectory.plan_type2_insert",
                        "trajectory.plan_type3_manipulate"),
    "scenario.parse": ("scenario.load_scenario", "scenario.parse_scenario",
                       "scenario.bundled_scenario"),
    "scenario.endoscope": ("scenario.endoscope_tips",),
    "csvio.format": ("csvio.plan_csv_text",),
    "csvio.write": ("csvio.write_plan_csv",),
}
CHECKS = ("check_euler_quaternion", "check_euler_roundtrip", "check_dual_path_fk",
          "check_fk_ik_roundtrip", "check_jacobian_fd", "check_numeric_ik")
GROUPS.update({f"validation.{c}": (f"validation.{c}",) for c in CHECKS})

JOB = "bench.job"

#: Functions called in one traced round of each workload at the commit that
#: introduced the benchmark, written by record.py.
EXPECTED_CALLS = Path(__file__).with_name("expected_calls.json")


def public_functions(module):
    """(qualified name, function) for each plain public function a module defines.

    Generator functions are skipped: their call returns before any work runs,
    so a span around it would time nothing.
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, fn in vars(module).items():
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
            continue
        if f"{layer}.{name}" not in UNTRACED:
            yield f"{layer}.{name}", fn


class Tracer:
    """Records spans of one thread's calls into the layers while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.wrapped: list[str] = []
        self._stack: list[int | None] = [None]
        self._next_id = 0
        self._job: str | None = None

    def _enter(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id, parent, name, start, end):
        self._stack.pop()
        self.spans.append((self._job, span_id, parent, name, start, end))

    def _wrap(self, name, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._enter()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span_id, parent, name, start, perf())

        return traced

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; layer spans inside it become its descendants."""
        self._job = job_id
        span_id, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(span_id, parent, JOB, start, time.perf_counter())
            self._job = None

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions for the duration of the block."""
        wrappers = {}
        self.wrapped = []
        for layer in LAYERS:
            module = importlib.import_module(f"rcmkin.{layer}")
            for name, fn in public_functions(module):
                wrappers[fn] = self._wrap(name, fn)
                self.wrapped.append(name)
        patched = []
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "rcmkin" or n.startswith("rcmkin."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def aggregate(spans: list[tuple]) -> dict:
    """Per-function, per-group and per-layer totals of one set of spans."""
    by_id = {s[1]: s for s in spans}
    child_time = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}

    functions = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
    layer_self = defaultdict(float)
    groups = defaultdict(lambda: [0, 0.0, 0.0])  # outermost calls, total, self
    job_time = 0.0
    per_sample_jacobians = 0
    for _, span_id, parent, name, start, end in spans:
        duration = end - start
        own = duration - child_time[span_id]
        entry = functions[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == JOB:
            job_time += duration
        group = group_of.get(name)
        ancestors = []
        up = parent
        while up is not None:
            ancestors.append(by_id[up][3])
            up = by_id[up][2]
        if group is not None:
            groups[group][2] += own
            if not any(group_of.get(a) == group for a in ancestors):
                groups[group][0] += 1
                groups[group][1] += duration
        if name == "differential.jacobians" and any(
                group_of.get(a) == "trajectory.plan" for a in ancestors):
            per_sample_jacobians += 1
    return {
        "functions": dict(functions),
        "layer_self": dict(layer_self),
        "groups": dict(groups),
        "job_time": job_time,
        "per_sample_jacobians": per_sample_jacobians,
        "spans": len(spans),
    }


def layer_metrics(agg: dict, accepted_samples: int, rows: int, nbytes: int,
                  overhead_ratio: float) -> dict:
    """The per-layer metrics of one traced round, by name -> (value, unit)."""
    groups, layer_self = agg["groups"], agg["layer_self"]
    metrics = {}

    def group(stem, calls=True):
        count, total, _ = groups.get(stem, (0, 0.0, 0.0))
        metrics[f"{stem}_s"] = (total, "s")
        if calls:
            metrics[f"{stem}_calls"] = (count, "count")

    for stem in ("differential.jacobian_rate", "differential.jacobians", "differential.solve",
                 "spherical.ik", "spherical.fk", "trajectory.sample_profile"):
        group(stem)
    group("trajectory.plan")
    metrics["trajectory.plan_self_s"] = (groups.get("trajectory.plan", (0, 0.0, 0.0))[2], "s")
    jac = agg["per_sample_jacobians"]
    metrics["trajectory.useful_sample_ratio"] = (accepted_samples / jac if jac else 0.0, "ratio")
    group("scenario.parse")
    group("scenario.endoscope")
    group("csvio.format", calls=False)
    metrics["csvio.write_s"] = (groups.get("csvio.write", (0, 0.0, 0.0))[2], "s")
    metrics["csvio.rows"] = (rows, "count")
    metrics["csvio.bytes"] = (nbytes, "bytes")
    for check in CHECKS:
        group(f"validation.{check}", calls=False)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    job_time = agg["job_time"]
    accounted = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    metrics["trace.job_s"] = (job_time, "s")
    metrics["trace.accounted_ratio"] = (accounted / job_time if job_time else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    metrics["trace.spans"] = (agg["spans"], "count")
    return metrics


def median_metrics(rounds: list[dict]) -> dict:
    """Median of each metric over the traced rounds; counts stay whole numbers."""
    return {name: ((statistics.median_low if unit in ("count", "bytes") else statistics.median)(
                [r[name][0] for r in rounds]), unit)
            for name, (_, unit) in rounds[0].items()}


def load_expected_calls() -> dict:
    return json.loads(EXPECTED_CALLS.read_text(encoding="utf-8"))


def call_changes(agg: dict, expected: list[str]) -> tuple[list[str], list[str]]:
    """Functions no longer called, and newly called, against the recording."""
    called = set(agg["functions"]) - {JOB}
    return sorted(set(expected) - called), sorted(called - set(expected))


def missing_groups(wrapped: list[str]) -> list[str]:
    """Functions a per-layer metric expects that the package no longer defines."""
    have = set(wrapped)
    return sorted(fn for fns in GROUPS.values() for fn in fns if fn not in have)


def write_spans(spans: list[tuple], path) -> None:
    """Spans as tab-separated rows, times in seconds from the first span."""
    origin = min((s[4] for s in spans), default=0.0)
    with open(path, "w", encoding="ascii") as stream:
        stream.write("job\tid\tparent\tname\tstart_s\tend_s\n")
        for job, span_id, parent, name, start, end in sorted(spans, key=lambda s: s[1]):
            stream.write(f"{job}\t{span_id}\t{'' if parent is None else parent}\t{name}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")
