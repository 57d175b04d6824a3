"""Deterministic CSV serialization of motion plans.

Layout: one `# schema` comment line, one header line, then one row per
sample. Numbers are written in fixed notation with 10 significant digits,
so parsing a file back reproduces every value to better than 1e-9 relative.
Identical plans always serialize to identical bytes.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .trajectory import MotionPlan

SCHEMA = "rcmkin-plan-1"
SIGNIFICANT_DIGITS = 10

#: Column subsets for the plotting exports.
PLOT_SUBSETS = ("fig5", "fig7")

_POSE_COLUMNS = ("x", "y", "z", "psi", "theta", "phi")
_POSE_RATE_COLUMNS = ("psi_dot", "theta_dot", "psi_ddot", "theta_ddot")
_JOINT_COLUMNS = ("q1", "q2", "q3")


def format_number(value: float) -> str:
    """Fixed-notation decimal with SIGNIFICANT_DIGITS significant digits."""
    if value == 0.0 or not math.isfinite(value):
        return "0" if value == 0.0 else repr(float(value))
    decimals = max(0, SIGNIFICANT_DIGITS - 1 - math.floor(math.log10(abs(value))))
    return f"{value:.{decimals}f}"


def plan_header(
    plan: MotionPlan, subset: str | None = None, endoscope: np.ndarray | None = None
) -> list[str]:
    """Column names for a plan, optionally restricted to a figure subset."""
    if subset == "fig5":
        return ["t", "psi", "theta", *_POSE_RATE_COLUMNS]
    if subset == "fig7":
        header = ["t"]
        for track in plan.instruments:
            header += [f"{track.name}_{c}" for c in _JOINT_COLUMNS]
            header += [f"{track.name}_{c}_dot" for c in _JOINT_COLUMNS]
            header += [f"{track.name}_{c}_ddot" for c in _JOINT_COLUMNS]
        return header
    if subset is not None:
        raise ValueError(f"unknown plot subset {subset!r}")
    header = ["t", *_POSE_COLUMNS, *_POSE_RATE_COLUMNS]
    for track in plan.instruments:
        header += [f"{track.name}_{c}" for c in _JOINT_COLUMNS]
        header += [f"{track.name}_{c}_dot" for c in _JOINT_COLUMNS]
        header += [f"{track.name}_{c}_ddot" for c in _JOINT_COLUMNS]
        header += [f"{track.name}_tip_{c}" for c in ("x", "y", "z")]
        header.append(f"{track.name}_sing")
    if endoscope is not None:
        header += ["endoscope_tip_x", "endoscope_tip_y", "endoscope_tip_z"]
    return header


def plan_rows(
    plan: MotionPlan, subset: str | None = None, endoscope: np.ndarray | None = None
) -> Iterable[list[float]]:
    """Row values matching plan_header, one list per sample."""
    for i, t in enumerate(plan.time):
        pose = plan.pose_grid[i]
        if subset == "fig5":
            row = [t, *pose[3:5], *plan.pose_rates[i], *plan.pose_accels[i]]
        else:
            if subset is None:
                row = [t, *pose, *plan.pose_rates[i], *plan.pose_accels[i]]
            else:
                row = [t]
            for track in plan.instruments:
                row += [*track.joints[i], *track.rates[i], *track.accels[i]]
                if subset is None:
                    row += [*track.tip[i], track.sing[i]]
            if subset is None and endoscope is not None:
                row += list(endoscope[i])
        yield [float(v) for v in row]


def plan_csv_text(
    plan: MotionPlan, subset: str | None = None, endoscope: np.ndarray | None = None
) -> str:
    """Full CSV document for a plan as a string."""
    lines = [f"# {SCHEMA}", ",".join(plan_header(plan, subset, endoscope))]
    for row in plan_rows(plan, subset, endoscope):
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def write_plan_csv(
    plan: MotionPlan,
    path,
    subset: str | None = None,
    endoscope: np.ndarray | None = None,
) -> None:
    """Write a plan to a CSV file with deterministic bytes."""
    with open(path, "w", encoding="ascii", newline="") as stream:
        stream.write(plan_csv_text(plan, subset, endoscope))


def read_plan_csv(path) -> tuple[list[str], np.ndarray]:
    """Parse a plan CSV back into its header and a (samples, columns) array."""
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="ascii") as stream:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)
