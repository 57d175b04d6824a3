"""Deterministic CSV serialization of motion plans.

Layout: one `# schema` comment line, one header line, then one row per
sample. Numbers are written in fixed notation with 10 significant digits,
so parsing a file back reproduces every value to better than 1e-9 relative.
Identical plans always serialize to identical bytes.

`format_number` is the rule for one value. The digit count follows the
value's decimal exponent before rounding, so a value that rounds up to the
next power of ten keeps one more digit: 9.99999999996 is written
10.000000000 (11 significant digits).

Tables are formatted `_BLOCK_ROWS` rows at a time: the block's column
slices are stacked into one array, the decimals of every value come from
`np.log10`, and one `%` call writes the whole block. A column whose text is
the same on every row of a block (a held pose, joint or tip) is formatted
once and written into the `%` template, so only the other columns' values
reach that call. The text is byte-identical to `format_number` applied value
by value.
"""

from __future__ import annotations

import math

import numpy as np

from .trajectory import MotionPlan

SCHEMA = "rcmkin-plan-1"
SIGNIFICANT_DIGITS = 10

#: Column subsets for the plotting exports.
PLOT_SUBSETS = ("fig5", "fig7")

_POSE_COLUMNS = ("x", "y", "z", "psi", "theta", "phi")
_POSE_RATE_COLUMNS = ("psi_dot", "theta_dot", "psi_ddot", "theta_ddot")
_JOINT_COLUMNS = ("q1", "q2", "q3")

#: Rows formatted per block; bounds the formatter's working memory.
_BLOCK_ROWS = 256


def format_number(value: float) -> str:
    """Fixed-notation decimal with SIGNIFICANT_DIGITS significant digits."""
    if value == 0.0 or not math.isfinite(value):
        return "0" if value == 0.0 else repr(float(value))
    decimals = max(0, SIGNIFICANT_DIGITS - 1 - math.floor(math.log10(abs(value))))
    return f"{value:.{decimals}f}"


def _columns(
    plan: MotionPlan, subset: str | None, endoscope: np.ndarray | None
) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """(names, (n,) or (n, k) values) per column group, in CSV column order."""
    if subset not in (None, *PLOT_SUBSETS):
        raise ValueError(f"unknown plot subset {subset!r}")
    columns = [(("t",), plan.time)]
    if subset == "fig5":
        return columns + [
            (_POSE_COLUMNS[3:5], plan.pose_grid[:, 3:5]),
            (_POSE_RATE_COLUMNS[:2], plan.pose_rates),
            (_POSE_RATE_COLUMNS[2:], plan.pose_accels),
        ]
    if subset is None:
        columns += [
            (_POSE_COLUMNS, plan.pose_grid),
            (_POSE_RATE_COLUMNS[:2], plan.pose_rates),
            (_POSE_RATE_COLUMNS[2:], plan.pose_accels),
        ]
    for track in plan.instruments:
        name = track.geometry.side.value
        columns += [
            (tuple(f"{name}_{c}" for c in _JOINT_COLUMNS), track.joints),
            (tuple(f"{name}_{c}_dot" for c in _JOINT_COLUMNS), track.rates),
            (tuple(f"{name}_{c}_ddot" for c in _JOINT_COLUMNS), track.accels),
        ]
        if subset is None:
            columns += [
                (tuple(f"{name}_tip_{c}" for c in "xyz"), track.tip),
                ((f"{name}_sing",), track.sing),
            ]
    if subset is None and endoscope is not None:
        columns.append((tuple(f"endoscope_tip_{c}" for c in "xyz"), endoscope))
    return columns


def _format_block(block: np.ndarray) -> str:
    """format_number of every value of a 2-D block: commas between values,
    newlines between rows, no trailing newline.

    One `%` call formats the whole block. "%.*f" rounds as format_number's
    f-string does; adding 0.0 turns -0.0 into 0.0, and 0 decimals write zero
    and the non-finite values as "0", "nan", "inf" and "-inf".

    A column whose text is the same on every row is formatted once and
    written into the template. It is one whose values are all finite and
    share one decimal count, and whose min and max print alike: at a fixed
    decimal count "%.*f" rounds correctly, hence monotonically, so every
    value between them prints alike too.
    """
    values = block + 0.0
    magnitude = np.abs(values)
    finite = np.isfinite(values)
    usable = finite & (values != 0.0)
    exponent = np.log10(magnitude, out=np.zeros_like(magnitude), where=usable)
    floor = np.floor(exponent)
    # np.log10 may differ from math.log10 by an ulp next to a power of ten;
    # there the floor must come from math.log10, which format_number uses.
    near = usable & (np.abs(exponent - np.rint(exponent)) < 1e-9)
    for i in np.flatnonzero(near):
        floor.flat[i] = math.floor(math.log10(magnitude.flat[i]))
    decimals = np.where(usable, np.maximum(0.0, SIGNIFICANT_DIGITS - 1 - floor), 0.0)
    decimals = decimals.astype(np.int64)
    rows, cols = values.shape
    cells = ["%.*f"] * cols
    varying = np.ones(cols, dtype=bool)
    same = np.flatnonzero(finite.all(axis=0) & (decimals == decimals[0]).all(axis=0))
    spans = values[:, same]
    for j, places, low, high in zip(same.tolist(), decimals[0, same].tolist(),
                                    spans.min(axis=0).tolist(), spans.max(axis=0).tolist()):
        text = "%.*f" % (places, low)
        if low == high or "%.*f" % (places, high) == text:
            cells[j], varying[j] = text, False
    values, decimals = values[:, varying], decimals[:, varying]
    flat = [None] * (2 * values.size)
    flat[0::2] = decimals.ravel().tolist()
    flat[1::2] = values.ravel().tolist()
    return "\n".join([",".join(cells)] * rows) % tuple(flat)


def _table_text(columns: list[np.ndarray]) -> str:
    """CSV rows of equal-length (n,) or (n, k) arrays side by side, each row
    ending in a newline, formatted _BLOCK_ROWS rows at a time.

    `cli profile` uses it too. It stays private so that span tracers, which
    wrap public functions, count its time inside plan_csv_text.
    """
    samples = len(columns[0])
    tables = [np.reshape(c, (samples, -1)) for c in columns]
    return "".join(
        _format_block(np.hstack([t[start:start + _BLOCK_ROWS] for t in tables])) + "\n"
        for start in range(0, samples, _BLOCK_ROWS)
    )


def plan_csv_text(
    plan: MotionPlan, subset: str | None = None, endoscope: np.ndarray | None = None
) -> str:
    """Full CSV document for a plan as a string."""
    columns = _columns(plan, subset, endoscope)
    header = ",".join(name for names, _ in columns for name in names)
    return f"# {SCHEMA}\n{header}\n" + _table_text([v for _, v in columns])


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
