"""Deterministic CSV serialization of motion plans.

Layout: one `# schema` comment line, one header line, then one row per
sample. Numbers are written in fixed notation with 10 significant digits,
so parsing a file back reproduces every value to better than 1e-9 relative.
Identical plans always serialize to identical bytes.

`format_number` is the rule for one value. The digit count follows the
value's decimal exponent before rounding, so a value that rounds up to the
next power of ten keeps one more digit: 9.99999999996 is written
10.000000000 (11 significant digits).

Tables are formatted `_BLOCK_ROWS` rows at a time into ASCII bytes: the
block's column slices are stacked into one array, and one bytes `%` call
over a b"%d" template writes the whole block into a bytearray. A column
whose text is the same on every row of a block (a held pose, joint or tip)
is formatted once and written into the template; whether it folds is
decided from its min and max alone, so decimals are computed with
`np.log10` only for the other columns' cells. Each of those goes in as one
exactly rounded integer that spells the value's digits, with a 1 where the
decimal point goes, since `%` prints an int much faster than a float
through "%.*f"; the points are then patched into the text. A value within
an ulp of a rounding tie, non-finite, past 17 decimals or at or past 2**53
goes in as its "%.*f" text instead, through b"%s" in its row's template.
The text is byte-identical to `format_number` applied value by value.
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

#: The most decimals a cell may have to go through the integer route, and
#: 10**k for k up to it, as int64 and as float64: exact in both, and every
#: integer the route builds fits in int64.
_EXACT_DECIMALS = 17
_INT_POWERS = 10 ** np.arange(_EXACT_DECIMALS + 1, dtype=np.int64)
_POWERS = _INT_POWERS.astype(np.float64)


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


def _decimals(values: np.ndarray) -> np.ndarray:
    """format_number's decimal count per value: int64, 0 if zero or non-finite."""
    magnitude = np.abs(values)
    usable = np.isfinite(values) & (values != 0.0)
    exponent = np.log10(magnitude, out=np.zeros_like(magnitude), where=usable)
    floor = np.floor(exponent)
    # np.log10 may differ from math.log10 by an ulp next to a power of ten;
    # there the floor must come from math.log10, which format_number uses.
    near = usable & (np.abs(exponent - np.rint(exponent)) < 1e-9)
    for i in np.flatnonzero(near):
        floor.flat[i] = math.floor(math.log10(magnitude.flat[i]))
    decimals = np.where(usable, np.maximum(0.0, SIGNIFICANT_DIGITS - 1 - floor), 0.0)
    return decimals.astype(np.int64)


def _format_block(block: np.ndarray) -> bytearray:
    """format_number of every value of a 2-D block as ASCII bytes: commas
    between values, a newline after every row.

    A column whose text is the same on every row is formatted once and
    written into the template. The rule runs on its min and max alone, where
    a NaN shows in both: the column folds when they are finite, share one
    decimal count and print alike. Every value between them then has that
    decimal count too, and at a fixed decimal count "%.*f" rounds correctly,
    hence monotonically, so it prints alike as well. Adding 0.0 to them
    turns -0.0 into 0.0. Decimals are computed for the other columns' cells
    only.

    Those cells go through one bytes `%` call, each as one integer through
    b"%d". With d decimals, n = rint(|v| * 10**d) is the integer
    "%.*f" % (d, v) prints: 10**d is exact for d <= 17, so the product is
    rounded once and lies within half an ulp of |v| * 10**d, and outside
    one ulp of a tie n is where that exact value rounds to. With
    ip, fp = divmod(n, 10**d), the cell's integer is (10*ip + 1)*10**d + fp,
    or 11*10**d + fp when ip == 0, or n when d == 0, negated when v < 0;
    its digits are the text with a 1 where the "." goes, or 11 where "0."
    goes. Every cell ends in a byte <= 44 ("," or "\n") and no character of
    a number is that low, so the "." and "0" are patched into the text from
    the cells' ends. A cell within an ulp of a tie, non-finite (0 decimals
    write "nan", "inf" and "-inf"), past 17 decimals or at or past 2**53
    passes its "%.*f" text as bytes instead, through b"%s" in its row's
    template.
    """
    ends = np.vstack([block.min(axis=0), block.max(axis=0)]) + 0.0
    places = _decimals(ends)
    rows, cols = block.shape
    cells = [b"%d"] * cols
    varying = np.ones(cols, dtype=bool)
    same = np.flatnonzero(np.isfinite(ends).all(axis=0) & (places[0] == places[1]))
    for j, d, low, high in zip(same.tolist(), places[0, same].tolist(),
                               ends[0, same].tolist(), ends[1, same].tolist()):
        text = b"%.*f" % (d, low)
        if low == high or b"%.*f" % (d, high) == text:
            cells[j], varying[j] = text, False
    columns = np.flatnonzero(varying)
    values = block[:, varying].ravel()
    decimals = _decimals(values)
    capped = np.minimum(decimals, _EXACT_DECIMALS)
    scaled = np.abs(values) * _POWERS[capped]
    exact = (scaled < 2.0 ** 53) & (decimals <= _EXACT_DECIMALS)
    # Zeroing the other cells keeps NaN, infinity and overflow out of the test.
    scaled = np.where(exact, scaled, 0.0)
    whole = np.rint(scaled)
    exact &= np.abs(np.abs(scaled - whole) - 0.5) > np.spacing(scaled)
    digits = whole.astype(np.int64)
    scale = _INT_POWERS[capped]
    integer, fraction = np.divmod(digits, scale)
    cell = np.where(decimals > 0, (10 * np.maximum(integer, 1) + 1) * scale + fraction, digits)
    args = np.where(values < 0, -cell, cell).tolist()
    template = [b",".join(cells) + b"\n"] * rows
    fallback = np.flatnonzero(~exact)
    rows_cells: dict[int, list[bytes]] = {}
    for i, d, value in zip(fallback.tolist(), decimals[fallback].tolist(),
                           values[fallback].tolist()):
        args[i] = b"%.*f" % (d, value)
        row, k = divmod(i, len(columns))
        rows_cells.setdefault(row, list(cells))[columns[k]] = b"%s"
    for row, row_cells in rows_cells.items():
        template[row] = b",".join(row_cells) + b"\n"
    text = bytearray(b"".join(template)) % tuple(args)
    dot = exact & (decimals > 0)
    code = np.frombuffer(text, dtype=np.uint8)
    cell_ends = np.flatnonzero(code <= 44).reshape(rows, cols)[:, varying].ravel()
    point = cell_ends[dot] - decimals[dot] - 1
    code[point] = ord(".")
    code[point[integer[dot] == 0] - 1] = ord("0")
    return text


def _table_text(columns: list[np.ndarray]) -> str:
    """CSV rows of equal-length (n,) or (n, k) arrays side by side, each row
    ending in a newline, formatted _BLOCK_ROWS rows at a time.

    `cli profile` uses it too. It stays private so that span tracers, which
    wrap public functions, count its time inside plan_csv_text.
    """
    samples = len(columns[0])
    tables = [np.reshape(c, (samples, -1)) for c in columns]
    return b"".join(
        _format_block(np.hstack([t[start:start + _BLOCK_ROWS] for t in tables]))
        for start in range(0, samples, _BLOCK_ROWS)
    ).decode("ascii")


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
    """Write a plan to a CSV file with deterministic bytes. The text is built
    before the file is opened, so an unknown subset leaves the file as it was."""
    text = plan_csv_text(plan, subset, endoscope)
    with open(path, "w", encoding="ascii", newline="") as stream:
        stream.write(text)


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
