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
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    DEFAULT_TOL_EQ,
    Configuration,
    configuration_from_dict,
)
from .charts import LocallyFiniteConfiguration, build_chart, chart_to_dict
from .errors import BranchSpaceError
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
from .logistic import DEFAULT_ORBIT_TOL
from .measure import (
    DEFAULT_TOL_SUPP,
    make_growing_bump_path,
    make_translated_bump_path,
    read_grid,
    support_mask,
    validate_constant_volume_path,
)
from .paths import (
    branched_path_to_dot,
    coordinate_functions,
    jet_match,
    make_split_loop,
    read_branched_path,
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
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _kv_csv(obj: dict) -> str:
    lines = ["key,value"]
    for k in sorted(obj):
        lines.append(f"{k},{obj[k]}")
    return "\n".join(lines) + "\n"


def _load_configuration(path: str, tol_eq: float) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return configuration_from_dict(json.load(fh), tol_eq=tol_eq)


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
        _emit(args, _kv_csv(result) if args.format == "csv" else _dumps(result))
        return 0
    if not args.left or not args.right:
        sys.stderr.write("hausdorff: need two configuration files (or --bench N)\n")
        return PARSE_ERROR
    u = _load_configuration(args.left, args.tol_eq)
    v = _load_configuration(args.right, args.tol_eq)
    d = hausdorff_distance_indexed(u, v) if args.indexed else hausdorff_distance(u, v)
    result = {"distance": d, "n_left": len(u), "n_right": len(v), "indexed": bool(args.indexed)}
    _emit(args, _kv_csv(result) if args.format == "csv" else _dumps(result))
    return 0


def cmd_simulate(args) -> int:
    merge_tol = args.merge_tol
    if args.demo == "two-particle-merge":
        times = np.linspace(0.0, 1.0, args.steps)
        traj = two_particle_merge_trajectory(times)
        if merge_tol is None:
            # particles close at speed 2, so the vanished points sit one
            # time step away from the survivor at the merge sample
            merge_tol = 2.0 / max(args.steps - 1, 1)
    elif args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            traj = trajectory_from_dict(json.load(fh), tol_eq=args.tol_eq)
    else:
        sys.stderr.write("simulate: need --demo two-particle-merge or --input FILE\n")
        return PARSE_ERROR
    if merge_tol is None:
        merge_tol = DEFAULT_MERGE_TOL
    events = detect_stratum_events(traj, merge_tol=merge_tol)
    if args.format == "csv":
        lines = ["t,kind,from,to"] + [
            f"{e.time},{e.kind},{e.before_cardinality},{e.after_cardinality}" for e in events
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, events_to_json_lines(events))
    return 0


def cmd_chart(args) -> int:
    if args.demo == "three-points":
        base = LocallyFiniteConfiguration(np.array([[0.0], [1.0], [3.0]]))
    elif args.input:
        cfg = _load_configuration(args.input, args.tol_eq)
        base = LocallyFiniteConfiguration(cfg.points)
    else:
        sys.stderr.write("chart: need --demo three-points or --input FILE\n")
        return PARSE_ERROR
    # the Chart constructor has verified the radii, disjoint balls included
    chart = build_chart(base, tol_eq=args.tol_eq)
    _emit(args, _dumps(dict(chart_to_dict(chart), disjoint=True)))
    return 0


def cmd_branched_path(args) -> int:
    if args.demo in ("paper-circle", "circle-split"):
        bp = make_split_loop(m=args.samples, final_offset=(0.0, args.perturb))
    elif args.input:
        bp = read_branched_path(args.input)
    else:
        sys.stderr.write("branched-path: need --demo or --input FILE\n")
        return PARSE_ERROR

    report = validate_branched(bp, tol_eq=args.tol_eq)
    if not report.ok:
        gap = "" if report.gap is None else f" (gap {report.gap!r})"
        sys.stderr.write(f"branched-path: invalid: {report.reason}{gap}\n")
        return VALIDATION_FAILURE

    if args.format == "dot":
        _emit(args, branched_path_to_dot(bp, tol_eq=args.tol_eq))
        return 0

    jets = []
    for boundary, points in bp.junctions(tol_eq=args.tol_eq):
        for p in points:
            per_f = []
            for j, f in enumerate(coordinate_functions(bp.dimension)):
                res = jet_match(bp, p, f, order=args.jet_order, tol_eq=args.tol_eq)
                per_f.append(
                    {
                        "function": f"x{j}",
                        "passed": res.passed,
                        "residuals": {str(k): v for k, v in res.residuals.items()},
                        "tolerance": res.tolerance,
                    }
                )
            jets.append({"boundary": boundary, "junction": p.tolist(), "checks": per_f})
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
        lines = ["A,orbit_point"] + [f"{a!r},{x!r}" for a, x in rows]
        _emit(args, "\n".join(lines) + "\n")
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
    elif args.frames and args.region:
        paths = sorted(Path(args.frames).iterdir())
        frames = [read_grid(p) for p in paths if p.is_file()]
        if not frames:
            sys.stderr.write("measure: no frame files found\n")
            return PARSE_ERROR
        region = support_mask(read_grid(args.region), args.tol_supp)
    else:
        sys.stderr.write("measure: need --demo or both --frames DIR and --region FILE\n")
        return PARSE_ERROR
    report = validate_constant_volume_path(frames, region, tol_supp=args.tol_supp)
    out = {
        "ok": report.ok,
        "violating_step": report.violating_step,
        "cells_in_region": list(report.cells_in_region),
        "ring_clear": list(report.ring_clear),
    }
    _emit(args, _dumps(out))
    if not report.ok:
        sys.stderr.write(f"measure: volume changed at step {report.violating_step}\n")
        return VALIDATION_FAILURE
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--output", help="write the result here instead of stdout")
    p.add_argument("--format", choices=["json", "csv", "dot"], default=default_format)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-eq", dest="tol_eq", type=float, default=DEFAULT_TOL_EQ)
    p.add_argument("--merge-tol", dest="merge_tol", type=float, default=None)
    p.add_argument("--orbit-tol", dest="orbit_tol", type=float, default=DEFAULT_ORBIT_TOL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="branchspace", description=__doc__)
    parser.add_argument("--version", action="version", version=f"branchspace {__version__}")
    parser.add_argument(
        "--schema", action="store_true", help="dump the JSON/CSV file schemas and exit"
    )

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("hausdorff", help="distance between two configurations")
    _add_common(p)
    p.add_argument("left", nargs="?", help="configuration JSON file")
    p.add_argument("right", nargs="?", help="configuration JSON file")
    p.add_argument("--indexed", action="store_true", help="use the kd-tree index fast path")
    p.add_argument("--bench", type=int, default=None, metavar="N", help="benchmark on N random points")
    p.add_argument("--dim", type=int, default=2, help="dimension for --bench clouds")
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("simulate", help="detect merge/split events on a trajectory")
    _add_common(p)
    p.add_argument("--demo", choices=["two-particle-merge"])
    p.add_argument("--input", help="trajectory JSON file")
    p.add_argument("--steps", type=int, default=11, help="samples for the demo trajectory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("chart", help="build a chart and verify ball disjointness")
    _add_common(p)
    p.add_argument("--demo", choices=["three-points"])
    p.add_argument("--input", help="configuration JSON file")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("branched-path", help="validate a branched path; report junction jets")
    _add_common(p)
    p.add_argument("--demo", choices=["paper-circle", "circle-split"])
    p.add_argument("--input", help="branched path JSON file")
    p.add_argument("--perturb", type=float, default=0.0, help="translate the demo's final segment in y")
    p.add_argument("--samples", type=int, default=256, help="samples per demo segment")
    p.add_argument("--jet-order", dest="jet_order", type=int, default=3)
    p.set_defaults(func=cmd_branched_path)

    p = sub.add_parser("bifurcate", help="attractor sweep for diagram plotting")
    _add_common(p, default_format="csv")
    p.add_argument("--a-min", dest="a_min", type=float, required=True)
    p.add_argument("--a-max", dest="a_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--max-period", dest="max_period", type=int, default=64)
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("section", help="equilibrium section over a parameter field")
    _add_common(p)
    p.add_argument("--field", required=True, help="linear field, e.g. '2.5+1.0*x'")
    p.add_argument("--grid-n", dest="grid_n", type=int, default=101)
    p.add_argument("--x-min", dest="x_min", type=float, default=0.0)
    p.add_argument("--x-max", dest="x_max", type=float, default=1.0)
    p.add_argument("--max-period", dest="max_period", type=int, default=64)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("measure", help="constant-volume validation of a frame path")
    _add_common(p)
    p.add_argument("--demo", choices=["translated-bump", "growing-bump"])
    p.add_argument("--frames", help="directory of grid-function files (sorted by name)")
    p.add_argument("--region", help="grid-function file whose support is the region A")
    p.add_argument("--tol-supp", dest="tol_supp", type=float, default=DEFAULT_TOL_SUPP)
    p.set_defaults(func=cmd_measure)

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
    try:
        return args.func(args)
    except OSError as err:
        sys.stderr.write(f"{args.command}: i/o error: {err}\n")
        return IO_ERROR
    except (json.JSONDecodeError, BranchSpaceError, ValueError, KeyError) as err:
        sys.stderr.write(f"{args.command}: invalid input: {err}\n")
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
