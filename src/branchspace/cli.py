"""Command-line front end.

Subcommands mirror the library modules: hausdorff distances and
benchmarks, merge/split simulation, chart construction, branched-path
validation with junction jet reports, bifurcation sweeps, equilibrium
sections, and constant-volume path validation. Outputs are deterministic
for a fixed configuration and seed.

Exit codes: 0 success, 2 parse error (bad flags or malformed inputs),
3 validation failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_TOL_EQ, _check_integer, _check_positive, as_point, configuration_from_dict, load_file
from .charts import build_chart, chart_to_dict
from .hausdorff import (
    DEFAULT_MERGE_TOL,
    benchmark,
    detect_stratum_events,
    events_to_json_lines,
    hausdorff_distance,
    hausdorff_distance_indexed,
    trajectory_from_dict,
    two_particle_merge_trajectory,
)
from .logistic import DEFAULT_ORBIT_TOL, MAX_PERIODS, _validate_parameter
from .measure import (
    DEFAULT_TOL_SUPP,
    make_growing_bump_path,
    make_translated_bump_path,
    read_grid,
    support_mask,
    validate_constant_volume_path,
)
from .paths import (
    DEFAULT_JET_ORDER,
    MAX_JET_ORDER,
    MIN_INTERVALS,
    BranchedPath,
    branched_path_from_dict,
    branched_path_to_dot,
    coordinate_functions,
    jet_match,
    make_split_loop,
    validate_branched,
)
from .sections import (
    bifurcation_rows,
    branched_equilibrium_section,
    section_to_dict,
)

PARSE_ERROR, VALIDATION_FAILURE, IO_ERROR = 2, 3, 4

_SCHEMAS = {
    "configuration": {
        "file": "JSON",
        "shape": {"dim": "int", "points": "[[float; dim]]"},
        "notes": "points canonical (lexicographic) on write, any order on read",
    },
    "trajectory": {
        "file": "JSON",
        "shape": {"times": "[float], strictly increasing", "frames": "[configuration]"},
    },
    "events": {
        "file": "JSON lines",
        "shape": {"t": "float", "kind": "merge|split", "from": "int", "to": "int", "at": "[float]"},
    },
    "chart": {
        "file": "JSON",
        "shape": {"base": "configuration (order preserved)", "radii": "[float]"},
    },
    "branched_path": {
        "file": "JSON",
        "shape": {"stages": "[[{samples: [[t, [float; d]]]}]]"},
        "notes": "sample parameters must sit on the uniform grid k/m",
    },
    "section": {
        "file": "JSON",
        "shape": {
            "grid": "[[float; d]]",
            "fibers": "[[float] | null]",
            "loci": "[{base_location, cardinality_before, cardinality_after, parameter_value}]",
            "parameters": "[float] | null",
        },
    },
    "bifurcation": {"file": "CSV", "shape": "header A,orbit_point; one row per orbit point"},
    "grid_function": {
        "file": "text or JSON",
        "shape": {
            "text": "line 1 dims, line 2 h, line 3 origin, then row-major values",
            "json": {"dims": "[int]", "h": "float", "origin": "[float]", "values": "[row-major float]"},
        },
    },
}


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: str, rows) -> str:
    """The header line, then one line of comma-joined str() fields per row."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def checked(convert, check, *args):
    """argparse type that converts the text and runs the library's check
    on the value, check(value, *args). The check's ValueError is raised
    again as argparse's own error, which names the flag; the type keeps
    convert's name, so text that convert rejects reads `invalid int value: 'x'`."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value, *args)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    parse.__name__ = convert.__name__
    return parse


def parse_linear_field(expr: str):
    """Parse 'a' or 'a+b*x' / 'a-b*x' into a callable on grid points
    (x = first coordinate)."""
    num = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    m = re.fullmatch(rf"\s*({num})\s*(?:([+-])\s*({num})\s*\*\s*x\s*)?", expr)
    if not m:
        raise ValueError(f"cannot parse field {expr!r}; expected 'a' or 'a+b*x'")
    a = float(m.group(1))
    b = 0.0
    if m.group(2):
        b = float(m.group(3))
        if m.group(2) == "-":
            b = -b
    return lambda p: a + b * float(np.atleast_1d(p)[0])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_hausdorff(args) -> int:
    if args.bench is not None:
        result = benchmark(args.bench, dimension=args.dim, seed=args.seed)
    elif not args.left or not args.right:
        sys.stderr.write("hausdorff: need two configuration files (or --bench N)\n")
        return PARSE_ERROR
    else:
        u = load_file(configuration_from_dict, args.left, tol_eq=args.tol_eq)
        v = load_file(configuration_from_dict, args.right, tol_eq=args.tol_eq)
        d = hausdorff_distance_indexed(u, v) if args.indexed else hausdorff_distance(u, v)
        result = {"distance": d, "n_left": len(u), "n_right": len(v), "indexed": bool(args.indexed)}
    _emit(args, _csv("key,value", sorted(result.items())) if args.format == "csv" else _dumps(result))
    return 0


def cmd_simulate(args) -> int:
    merge_tol = args.merge_tol
    if args.demo:
        times = np.linspace(0.0, 1.0, args.steps)
        traj = two_particle_merge_trajectory(times)
        if merge_tol is None:
            # particles close at speed 2, so the vanished points sit one
            # time step away from the survivor at the merge sample
            merge_tol = 2.0 / max(args.steps - 1, 1)
    else:
        traj = load_file(trajectory_from_dict, args.input, tol_eq=args.tol_eq)
    if merge_tol is None:
        merge_tol = DEFAULT_MERGE_TOL
    events = detect_stratum_events(traj, merge_tol=merge_tol)
    if args.format == "csv":
        rows = [(e.time, e.kind, e.before_cardinality, e.after_cardinality) for e in events]
        _emit(args, _csv("t,kind,from,to", rows))
    else:
        _emit(args, events_to_json_lines(events))
    return 0


def cmd_chart(args) -> int:
    if args.demo:
        base = [[0.0], [1.0], [3.0]]
    else:
        base = load_file(configuration_from_dict, args.input, tol_eq=args.tol_eq)
    # the Chart constructor has verified the radii, disjoint balls included
    chart = build_chart(base, tol_eq=args.tol_eq)
    _emit(args, _dumps(dict(chart_to_dict(chart), disjoint=True)))
    return 0


def cmd_branched_path(args) -> int:
    if args.demo:
        least = max(MIN_INTERVALS, 4 * args.jet_order)
        if args.samples < least:
            args.parser.error(f"argument --samples: must be at least {least} at --jet-order {args.jet_order}")
        stages = make_split_loop(m=args.samples, final_offset=(0.0, args.perturb)).stages
    else:
        stages = load_file(branched_path_from_dict, args.input).stages
    bp = BranchedPath(stages, args.tol_eq)

    report = validate_branched(bp)
    if not report.ok:
        gap = "" if report.gap is None else f" (gap {report.gap!r})"
        sys.stderr.write(f"branched-path: invalid: {report.reason}{gap}\n")
        return VALIDATION_FAILURE

    if args.format == "dot":
        _emit(args, branched_path_to_dot(bp))
        return 0

    jets = []
    for junction in bp.junctions():
        per_f = []
        for j, f in enumerate(coordinate_functions(bp.dimension)):
            res = jet_match(junction, f, order=args.jet_order)
            per_f.append(
                {
                    "function": f"x{j}",
                    "passed": res.passed,
                    "residuals": {str(k): v for k, v in res.residuals.items()},
                    "tolerance": res.tolerance,
                }
            )
        jets.append({"boundary": junction.boundary, "junction": junction.point.tolist(), "checks": per_f})
    out = {"valid": True, "stages": [len(s) for s in bp.stages], "junctions": jets}
    _emit(args, _dumps(out))
    return 0


def cmd_bifurcate(args) -> int:
    rows = bifurcation_rows(
        args.a_min, args.a_max, args.steps, max_period=args.max_period, orbit_tol=args.orbit_tol
    )
    if args.format == "json":
        _emit(args, _dumps({"rows": [[a, x] for a, x in rows]}))
    else:
        _emit(args, _csv("A,orbit_point", rows))
    return 0


def cmd_section(args) -> int:
    field = parse_linear_field(args.field)
    grid = np.linspace(args.x_min, args.x_max, args.grid_n).reshape(-1, 1)
    sample, loci = branched_equilibrium_section(
        field, grid, max_period=args.max_period, orbit_tol=args.orbit_tol
    )
    _emit(args, _dumps(section_to_dict(sample, loci)))
    if sample.chaotic_indices:
        sys.stderr.write(f"section: {len(sample.chaotic_indices)} grid points flagged chaotic\n")
    return 0


def cmd_measure(args) -> int:
    if args.demo == "translated-bump":
        frames, region = make_translated_bump_path()
    elif args.demo == "growing-bump":
        frames, region, _ = make_growing_bump_path()
    elif args.region is None:
        sys.stderr.write("measure: --frames needs --region FILE\n")
        return PARSE_ERROR
    else:
        paths = sorted(Path(args.frames).iterdir())
        frames = [read_grid(p) for p in paths if p.is_file()]
        if not frames:
            sys.stderr.write("measure: no frame files found\n")
            return PARSE_ERROR
        region = support_mask(read_grid(args.region), args.tol_supp)
    report = validate_constant_volume_path(frames, region, tol_supp=args.tol_supp)
    _emit(args, _dumps(dataclasses.asdict(report)))
    if not report.ok:
        sys.stderr.write(f"measure: volume changed at step {report.violating_step}\n")
        return VALIDATION_FAILURE
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number as a value, not
    as a flag: argparse itself takes -1 and -.5 so, but not -1e-3 or -inf.
    Subcommand parsers are made of the same class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="branchspace", description=__doc__)
    parser.add_argument("--version", action="version", version=f"branchspace {__version__}")
    parser.add_argument(
        "--schema", action="store_true", help="dump the JSON/CSV file schemas and exit"
    )

    sub = parser.add_subparsers(dest="command")
    # a flag's value meets the library's own rule for it
    tolerance = checked(float, _check_positive, "the value")
    count, seed, sweep_steps = (checked(int, _check_integer, "the value", low) for low in (1, 0, 2))
    parameter = checked(float, _validate_parameter)
    coordinate = checked(float, as_point)  # --x-min, --x-max and --perturb

    def command(name: str, func, help: str, formats: tuple[str, ...] = ()) -> argparse.ArgumentParser:
        """A subcommand with --output and, for several outputs, --format
        (the first format is the default)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p, mode_flags=[])
        p.add_argument("--output", help="write the result here instead of stdout")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        return p

    def mode_flag(p: argparse.ArgumentParser, other: argparse.Action, *names: str, default, **kw):
        """A flag that the input mode selected by `other` ignores. It parses
        as None when absent, so that main can reject it next to `other`
        before filling in `default`."""
        action = p.add_argument(*names, default=None, **kw)
        p.get_default("mode_flags").append((p, action, other, default))
        return action

    def demo_or_input(p: argparse.ArgumentParser, demos: list[str], input_help: str):
        """The required choice between a demo and an input file."""
        modes = p.add_mutually_exclusive_group(required=True)
        return modes.add_argument("--demo", choices=demos), modes.add_argument("--input", help=input_help)

    def add_tol_eq(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol-eq", dest="tol_eq", type=tolerance, default=DEFAULT_TOL_EQ)

    p = command("hausdorff", cmd_hausdorff, "distance between two configurations", ("json", "csv"))
    files = p.add_argument("left", nargs="?", help="configuration JSON file")
    p.add_argument("right", nargs="?", help="configuration JSON file")
    # not a mutually exclusive group: the value of a mistyped flag would
    # land in `left` and the conflict would hide the flag's name
    bench = mode_flag(
        p, files, "--bench", type=count, metavar="N", default=None, help="benchmark on N random points"
    )
    mode_flag(
        p, bench, "--indexed", action="store_true", default=False, help="use the kd-tree index fast path"
    )
    mode_flag(p, bench, "--tol-eq", dest="tol_eq", type=tolerance, default=DEFAULT_TOL_EQ)
    mode_flag(p, files, "--dim", type=count, default=2, help="dimension for --bench clouds")
    mode_flag(p, files, "--seed", type=seed, default=0, help="seed for --bench clouds")

    p = command("simulate", cmd_simulate, "detect merge/split events on a trajectory", ("json", "csv"))
    demo, input_ = demo_or_input(p, ["two-particle-merge"], "trajectory JSON file")
    mode_flag(p, input_, "--steps", type=count, default=11, help="samples for the demo trajectory")
    p.add_argument("--merge-tol", dest="merge_tol", type=tolerance, default=None)
    mode_flag(p, demo, "--tol-eq", dest="tol_eq", type=tolerance, default=DEFAULT_TOL_EQ)

    p = command("chart", cmd_chart, "build a chart and verify ball disjointness")
    demo_or_input(p, ["three-points"], "configuration JSON file")
    add_tol_eq(p)

    p = command(
        "branched-path", cmd_branched_path, "validate a branched path; report junction jets", ("json", "dot")
    )
    _, input_ = demo_or_input(p, ["paper-circle"], "branched path JSON file")
    mode_flag(p, input_, "--perturb", type=coordinate, default=0.0, help="translate the demo's final segment in y")
    mode_flag(p, input_, "--samples", type=count, default=256, help="samples per demo segment")
    p.add_argument(
        "--jet-order", dest="jet_order", type=int, choices=range(1, MAX_JET_ORDER + 1), default=DEFAULT_JET_ORDER
    )
    add_tol_eq(p)

    p = command("bifurcate", cmd_bifurcate, "attractor sweep for diagram plotting", ("csv", "json"))
    p.add_argument("--a-min", dest="a_min", type=parameter, required=True)
    p.add_argument("--a-max", dest="a_max", type=parameter, required=True)
    p.add_argument("--steps", type=sweep_steps, required=True)
    p.add_argument("--max-period", dest="max_period", type=int, choices=MAX_PERIODS, default=MAX_PERIODS[-1])
    p.add_argument("--orbit-tol", dest="orbit_tol", type=tolerance, default=DEFAULT_ORBIT_TOL)

    p = command("section", cmd_section, "equilibrium section over a parameter field")
    p.add_argument("--field", required=True, help="linear field, e.g. '2.5+1.0*x'")
    p.add_argument("--grid-n", dest="grid_n", type=count, default=101)
    p.add_argument("--x-min", dest="x_min", type=coordinate, default=0.0)
    p.add_argument("--x-max", dest="x_max", type=coordinate, default=1.0)
    p.add_argument("--max-period", dest="max_period", type=int, choices=MAX_PERIODS, default=MAX_PERIODS[-1])
    p.add_argument("--orbit-tol", dest="orbit_tol", type=tolerance, default=DEFAULT_ORBIT_TOL)

    p = command("measure", cmd_measure, "constant-volume validation of a frame path")
    modes = p.add_mutually_exclusive_group(required=True)
    demo = modes.add_argument("--demo", choices=["translated-bump", "growing-bump"])
    modes.add_argument("--frames", help="directory of grid-function files (sorted by name)")
    mode_flag(p, demo, "--region", default=None, help="grid-function file whose support is the region A")
    p.add_argument("--tol-supp", dest="tol_supp", type=tolerance, default=DEFAULT_TOL_SUPP)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        sys.stdout.write(_dumps(_SCHEMAS))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return PARSE_ERROR
    for p, flag, other, default in args.mode_flags:
        if getattr(args, flag.dest) is None:
            setattr(args, flag.dest, default)
        elif getattr(args, other.dest) is not None:
            name = (other.option_strings or [other.dest])[0]
            p.error(f"argument {flag.option_strings[0]}: not allowed with argument {name}")
    try:
        return args.func(args)
    except OSError as err:
        sys.stderr.write(f"{args.command}: i/o error: {err}\n")
        return IO_ERROR
    except ValueError as err:
        sys.stderr.write(f"{args.command}: invalid input: {err}\n")
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
