"""Scenario configuration: a flat ``key = value`` text format and its loader.

Grammar, one statement per line::

    # comment                blank lines and '#' comments are ignored
    key = value              key: [a-z0-9_]+
                             value: word, number, or whitespace-separated numbers

Keys (defaults in parentheses; lengths in mm, angles in degrees):

    motion       type2 | type3 | type4          required
    pose         X Y Z PSI THETA PHI            required
    branch       principal | mirror             (principal)
    dt           sample step, s                 (0.01)
    omega_max    profile rate limit             (10)
    eps_max      profile acceleration limit     (5)
    output       default CSV path               (plan.csv)

    alpha        left-module outer tilt         (10)
    beta         module inner tilt              (10)
    radius       mechanism sphere radius        (110)
    port_spacing instrument port half-spacing   (10)
    q3_min       insertion stroke lower bound   (0)
    q3_max       insertion stroke upper bound   (300)
    q1_limit     q1 symmetric travel            (90)
    q2_limit     q2 symmetric travel            (90)
    mirror_alpha negate alpha on the right side (true)

    tip_left     fixed-frame tip target X Y Z   type 4 (at least one tip)
    tip_right    fixed-frame tip target X Y Z   type 4
    delta_psi    platform psi displacement      type 4 (0)
    delta_theta  platform theta displacement    type 4 (0)

    instrument   left | right                   type 2/3: the moving module
    start_joints Q1 Q2 Q3                       type 2/3
    target_q3    insertion target               type 2
    target_joints Q1 Q2 Q3                      type 3

    endoscope_insertion   optional pass-through endoscope depth; adds
                          endoscope tip columns to the CSV

For type 2 the limits apply to the insertion joint and are read as mm/s and
mm/s^2; for type 3 they apply per joint in that joint's units. The endoscope
column (``endoscope_tips``) reads the planners' platform rotation
(``differential.platform_rotation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .differential import platform_rotation
from .errors import GimbalProximityError, ScenarioParseError, ScenarioValidationError
from .platform import PlatformPose, check_pose
from .spherical import (
    MAX_COORDINATE,
    IkBranch,
    SphericalGeometry,
    SphericalJoints,
    left_geometry,
    mirrored,
)
from .trajectory import (
    MotionPlan,
    MotionType,
    ProfileLimits,
    plan_type2_insert,
    plan_type3_manipulate,
    plan_type4,
)

_MOTION_NAMES = {"type2": MotionType.INSERT, "type3": MotionType.MANIPULATE,
                 "type4": MotionType.REORIENT}

DEFAULT_OUTPUT = "plan.csv"


@dataclass
class InstrumentSetup:
    """One configured module: geometry plus its scenario-specific data."""

    geometry: SphericalGeometry
    tip: np.ndarray | None = None
    start: SphericalJoints | None = None


@dataclass
class Scenario:
    """A validated simulation request."""

    motion: MotionType
    pose: PlatformPose
    instruments: list[InstrumentSetup]
    limits: ProfileLimits
    dt: float = 0.01
    branch: IkBranch = IkBranch.PRINCIPAL
    delta_psi: float = 0.0
    delta_theta: float = 0.0
    target_q3: float | None = None
    target_joints: SphericalJoints | None = None
    endoscope_insertion: float | None = None
    output: str = DEFAULT_OUTPUT


class _KeyValues:
    """Raw parsed statements with typed, validating accessors."""

    def __init__(self, source: str):
        self.source = source
        self.values: dict[str, tuple[str, int]] = {}

    def add(self, key: str, value: str, line: int):
        if key in self.values:
            raise ScenarioParseError(
                f"{self.source}:{line}: duplicate key {key!r}", line
            )
        self.values[key] = (value, line)

    def raw(self, key: str) -> str | None:
        if key not in self.values:
            return None
        return self.values[key][0]

    def floats(self, key: str, count: int) -> list[float] | None:
        raw = self.raw(key)
        if raw is None:
            return None
        parts = raw.split()
        line = self.values[key][1]
        if len(parts) != count:
            raise ScenarioParseError(
                f"{self.source}:{line}: {key} expects {count} numbers, got {len(parts)}",
                line,
            )
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ScenarioParseError(
                f"{self.source}:{line}: {key} has a non-numeric entry", line
            ) from None
        if not all(math.isfinite(v) for v in values):
            raise ScenarioValidationError(f"{key} must be finite", key)
        return values

    def number(self, key: str, default: float | None = None) -> float | None:
        values = self.floats(key, 1)
        return default if values is None else values[0]

    def word(self, key: str, choices: dict, default=None):
        raw = self.raw(key)
        if raw is None:
            return default
        token = raw.strip().lower()
        if token not in choices:
            raise ScenarioValidationError(
                f"{key} must be one of {sorted(choices)}, got {token!r}", key
            )
        return choices[token]

    def flag(self, key: str, default: bool) -> bool:
        return self.word(key, {"true": True, "false": False}, default)

    def require(self, key: str):
        if key not in self.values:
            raise ScenarioValidationError(f"missing required key {key!r}", key)

    def check_unknown(self, known: set[str]):
        for key, (_, line) in self.values.items():
            if key not in known:
                raise ScenarioParseError(
                    f"{self.source}:{line}: unknown key {key!r}", line
                )


#: The geometry keys, in the order they are read; an absent one takes the
#: default of ``left_geometry``.
_GEOMETRY_KEYS = (
    "alpha", "beta", "port_spacing", "radius", "q3_min", "q3_max", "q1_limit", "q2_limit",
)

_KNOWN_KEYS = {
    "motion", "pose", "branch", "dt", "omega_max", "eps_max", "output",
    *_GEOMETRY_KEYS, "mirror_alpha",
    "tip_left", "tip_right", "delta_psi", "delta_theta",
    "instrument", "start_joints", "target_q3", "target_joints",
    "endoscope_insertion",
}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate scenario text; see the module docstring for keys."""
    kv = _KeyValues(source)
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}", lineno
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not all(c.isalnum() or c == "_" for c in key) or key != key.lower():
            raise ScenarioParseError(f"{source}:{lineno}: invalid key {key!r}", lineno)
        if not value:
            raise ScenarioParseError(f"{source}:{lineno}: empty value for {key!r}", lineno)
        kv.add(key, value, lineno)

    if not kv.values:
        raise ScenarioParseError(f"{source}: empty scenario", None)
    kv.check_unknown(_KNOWN_KEYS)
    return _build_scenario(kv)


def _positive(kv: _KeyValues, key: str, default: float) -> float:
    value = kv.number(key, default)
    if not value > 0.0:
        raise ScenarioValidationError(f"{key} must be positive, got {value:g}", key)
    return value


def _check_coordinates(key: str, values: list[float]) -> None:
    """Reject a position the IK could overflow on: at least MAX_COORDINATE mm."""
    if not all(abs(v) < MAX_COORDINATE for v in values):
        raise ScenarioValidationError(
            f"{key} coordinates must be below {MAX_COORDINATE:g} mm in magnitude", key
        )


def _build_scenario(kv: _KeyValues) -> Scenario:
    kv.require("motion")
    kv.require("pose")
    motion = kv.word("motion", _MOTION_NAMES)
    pose_values = kv.floats("pose", 6)
    _check_coordinates("pose", pose_values[:3])
    try:
        pose = PlatformPose(*pose_values)
        check_pose(pose)
    except (ValueError, GimbalProximityError) as exc:
        raise ScenarioValidationError(f"pose: {exc}", "pose") from None

    omega_max = _positive(kv, "omega_max", 10.0)
    eps_max = _positive(kv, "eps_max", 5.0)
    dt = _positive(kv, "dt", 0.01)
    limits = ProfileLimits(omega_max, eps_max)
    branch = kv.word("branch", {b.value: b for b in IkBranch}, IkBranch.PRINCIPAL)
    output = kv.raw("output") or DEFAULT_OUTPUT

    geometry_kw = {key: kv.number(key) for key in _GEOMETRY_KEYS if key in kv.values}
    try:
        left = left_geometry(**geometry_kw)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from None
    right = mirrored(left, negate_alpha=kv.flag("mirror_alpha", True))
    by_name = {"left": left, "right": right}

    scenario = Scenario(
        motion=motion,
        pose=pose,
        instruments=[],
        limits=limits,
        dt=dt,
        branch=branch,
        delta_psi=kv.number("delta_psi", 0.0),
        delta_theta=kv.number("delta_theta", 0.0),
        endoscope_insertion=kv.number("endoscope_insertion", None),
        output=output,
    )
    if scenario.endoscope_insertion is not None and scenario.endoscope_insertion < 0:
        raise ScenarioValidationError(
            "endoscope_insertion must be non-negative", "endoscope_insertion"
        )

    if motion is MotionType.REORIENT:
        for name in ("left", "right"):
            tip = kv.floats(f"tip_{name}", 3)
            if tip is not None:
                _check_coordinates(f"tip_{name}", tip)
                scenario.instruments.append(InstrumentSetup(by_name[name], tip=np.array(tip)))
        if not scenario.instruments:
            raise ScenarioValidationError(
                "type4 requires at least one of tip_left / tip_right", "tip_left"
            )
    else:
        kv.require("instrument")
        kv.require("start_joints")
        name = kv.word("instrument", {"left": "left", "right": "right"})
        start = SphericalJoints(*kv.floats("start_joints", 3))
        scenario.instruments.append(InstrumentSetup(by_name[name], start=start))
        if motion is MotionType.INSERT:
            kv.require("target_q3")
            scenario.target_q3 = kv.number("target_q3")
        else:
            kv.require("target_joints")
            scenario.target_joints = SphericalJoints(*kv.floats("target_joints", 3))

    return scenario


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; a file that is not UTF-8 raises
    ScenarioParseError naming the line and byte offset of the first bad byte.
    A leading byte-order mark is dropped after decoding, so that the offset
    still counts the file's bytes."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioParseError(
            f"{path}:{line}: not UTF-8 text (byte offset {exc.start})", line
        ) from None
    return parse_scenario(text.removeprefix("\ufeff"), source=str(path))


def bundled_scenario(name: str) -> Scenario:
    """Load a scenario shipped with the package (name without .cfg)."""
    text = resources.files(__package__).joinpath("data", f"{name}.cfg").read_text("utf-8")
    return parse_scenario(text, source=f"<bundled:{name}>")


def endoscope_tips(plan: MotionPlan, insertion: float) -> np.ndarray:
    """Fixed-frame endoscope tip per sample for a pass-through insertion
    depth along the platform -Z' axis: position - insertion R e_z, with R e_z
    R's last column (``platform_rotation``). It does not depend on phi, so R
    is taken at phi = 0."""
    r = platform_rotation(plan.pose_grid[:, 3], plan.pose_grid[:, 4], 0.0)
    axis = np.column_stack([r[2], r[5], r[8]])
    return plan.pose_grid[:, :3] - insertion * axis


def run_scenario(scenario: Scenario) -> tuple[MotionPlan, np.ndarray | None]:
    """Build the plan a scenario requests; returns (plan, endoscope tips)."""
    if scenario.motion is MotionType.REORIENT:
        plan = plan_type4(
            scenario.pose,
            scenario.delta_psi,
            scenario.delta_theta,
            scenario.limits,
            scenario.dt,
            [(inst.geometry, inst.tip) for inst in scenario.instruments],
            scenario.branch,
        )
    else:
        inst = scenario.instruments[0]
        if scenario.motion is MotionType.INSERT:
            plan = plan_type2_insert(
                scenario.pose,
                inst.start,
                scenario.target_q3,
                inst.geometry,
                scenario.limits,
                scenario.dt,
            )
        else:
            plan = plan_type3_manipulate(
                scenario.pose,
                inst.start,
                scenario.target_joints,
                inst.geometry,
                scenario.limits,
                scenario.dt,
            )
    endo = None
    if scenario.endoscope_insertion is not None:
        endo = endoscope_tips(plan, scenario.endoscope_insertion)
    return plan, endo
