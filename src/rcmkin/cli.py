"""Command-line front end: scenario runner, self-check suite, and direct
kinematic queries.

Exit codes: 0 success, 1 configuration or usage error, 2 unreachable or
otherwise kinematically infeasible request, 3 singular configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time

from . import csvio, scenario
from .errors import (
    DegenerateInputError,
    GimbalProximityError,
    JointLimitError,
    KinematicsError,
    ScenarioError,
    SingularConfigurationError,
    UnreachableError,
)
from .platform import PlatformPose
from .spherical import (
    IkBranch,
    SphericalJoints,
    fk_tip_fixed,
    ik_full,
    left_geometry,
    right_geometry,
)
from .trajectory import ProfileLimits, plan_profile, sample_profile, time_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_SINGULAR = 3


def exit_code_for(exc: Exception) -> int:
    if isinstance(exc, SingularConfigurationError):
        return EXIT_SINGULAR
    if isinstance(
        exc,
        (UnreachableError, JointLimitError, GimbalProximityError, DegenerateInputError),
    ):
        return EXIT_INFEASIBLE
    return EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as an option unless
        # this matches it, and its own pattern matches only a lone negative
        # number: "--pose -12.5,0,-500,0,0,0" stopped at "expected one
        # argument".  No option here has a digit, a point, "inf" or "nan" after
        # its dash, so such an argument is a value.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits 2 on usage errors; keep 2 reserved for infeasibility.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _csv_floats(count: int):
    def convert(text: str) -> list[float]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers")
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise argparse.ArgumentTypeError("non-numeric entry") from None

    return convert


def _add_geometry_args(parser: argparse.ArgumentParser):
    parser.add_argument("--side", choices=["left", "right"], default="left",
                        help="which instrument module (default left)")
    parser.add_argument("--alpha", type=float, default=10.0,
                        help="outer tilt of the left module, deg (default 10)")
    parser.add_argument("--beta", type=float, default=10.0,
                        help="inner tilt, deg (default 10)")
    parser.add_argument("--port-spacing", type=float, default=10.0,
                        help="port half-spacing on the platform X' axis, mm (default 10)")


def _geometry_from(args):
    build = left_geometry if args.side == "left" else right_geometry
    return build(alpha=args.alpha, beta=args.beta, port_spacing=args.port_spacing)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rcmkin", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and write its CSV")
    run.add_argument("scenario", help="scenario path, or the name of a bundled "
                                      "scenario (e.g. reorientation_demo)")
    run.add_argument("--dt", type=float, help="override the sample step, s")
    run.add_argument("--out", help="override the output CSV path")
    run.add_argument("--plot-data", choices=list(csvio.PLOT_SUBSETS),
                     help="write only that figure's column subset")
    run.add_argument("--branch", choices=[b.value for b in IkBranch],
                     help="override the IK branch policy")
    run.add_argument("--quiet", action="store_true", help="suppress the summary line")

    sub.add_parser("validate", help="run the self-check oracle suite")

    fk = sub.add_parser("fk", help="tip position for a pose and joint set")
    fk.add_argument("--pose", type=_csv_floats(6), required=True,
                    metavar="X,Y,Z,PSI,THETA,PHI")
    fk.add_argument("--joints", type=_csv_floats(3), required=True, metavar="Q1,Q2,Q3")
    _add_geometry_args(fk)

    ik = sub.add_parser("ik", help="joints that reach a fixed-frame tip")
    ik.add_argument("--pose", type=_csv_floats(6), required=True,
                    metavar="X,Y,Z,PSI,THETA,PHI")
    ik.add_argument("--tip", type=_csv_floats(3), required=True, metavar="X,Y,Z")
    ik.add_argument("--branch", choices=[b.value for b in IkBranch],
                    default=IkBranch.PRINCIPAL.value)
    _add_geometry_args(ik)

    profile = sub.add_parser("profile", help="trapezoidal profile arithmetic")
    profile.add_argument("--delta", type=float, required=True,
                         help="signed displacement")
    profile.add_argument("--omega-max", type=float, default=10.0)
    profile.add_argument("--eps-max", type=float, default=5.0)
    profile.add_argument("--dt", type=float,
                         help="also print sampled (t, s, s_dot, s_ddot) rows")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: a batch that calls main
    once per plan or query builds it once, not once per call."""
    return build_parser()


def _cmd_run(args) -> int:
    try:
        sc = scenario.load_scenario(args.scenario)
    except FileNotFoundError:
        try:
            sc = scenario.bundled_scenario(args.scenario)
        except FileNotFoundError:
            print(f"error: no scenario file or bundled scenario named "
                  f"{args.scenario!r}", file=sys.stderr)
            return EXIT_CONFIG
    if args.dt is not None:
        sc.dt = args.dt  # the planners' time grid validates it
    if args.branch is not None:
        sc.branch = IkBranch(args.branch)
    out_path = args.out or sc.output

    started = time.perf_counter()
    plan, endo = scenario.run_scenario(sc)
    csvio.write_plan_csv(plan, out_path, subset=args.plot_data, endoscope=endo)
    elapsed = time.perf_counter() - started
    if not args.quiet:
        print(
            f"wrote {out_path}: {plan.samples} samples, "
            f"{plan.duration:.9g} s plan, computed in {elapsed:.3f} s"
        )
    return EXIT_OK


def _cmd_validate() -> int:
    # Deferred: importing the oracles, with the velocity relation they hold,
    # costs about 3 ms from cached bytecode and 8 ms compiled from source, up
    # to a few per cent of the set-up of every process that never validates.
    from . import validation

    results = validation.run_all()
    print(validation.format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CONFIG


def _cmd_query(args) -> int:
    """fk or ik: one configuration in, one comma-separated line out."""
    vector = "joints" if args.command == "fk" else "tip"
    try:
        pose, geometry = PlatformPose(*args.pose), _geometry_from(args)
        if not all(math.isfinite(v) for v in getattr(args, vector)):
            raise ValueError(f"{vector} must be finite")
    except ValueError as exc:  # non-finite or out-of-range pose, geometry, joints or tip
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "fk":
        values = fk_tip_fixed(pose, SphericalJoints(*args.joints), geometry)
    else:
        joints = ik_full(pose, args.tip, geometry, IkBranch(args.branch))
        values = (joints.q1, joints.q2, joints.q3)
    print(",".join(csvio.format_number(v) for v in values))
    return EXIT_OK


def _cmd_profile(args) -> int:
    prof = plan_profile(args.delta, ProfileLimits(args.omega_max, args.eps_max))
    times = None if args.dt is None else time_grid(prof.t_total, args.dt)
    fmt = csvio.format_number
    print(
        f"shape={prof.shape.value} t_acc={fmt(prof.t_acc)} "
        f"t_cruise={fmt(prof.t_cruise)} t_total={fmt(prof.t_total)} "
        f"peak_rate={fmt(prof.peak_rate)}"
    )
    if times is not None:
        sys.stdout.write(csvio._table_text([times, *sample_profile(prof, times)]))
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command line and return its exit code; a usage error or --help
    raises SystemExit (1 or 0).  A process may call it any number of times."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate()
        if args.command in ("fk", "ik"):
            return _cmd_query(args)
        return _cmd_profile(args)
    except (KinematicsError, ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
