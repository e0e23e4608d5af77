import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branchspace import Configuration, configuration_to_dict
from branchspace.cli import build_parser, main, parse_linear_field
from branchspace.config import write_json
from branchspace.hausdorff import trajectory_to_dict, two_particle_merge_trajectory
from branchspace.measure import GridFunction, make_translated_bump_path, write_grid
from branchspace.paths import (
    BranchedPath,
    PathSegment,
    branched_path_to_dict,
    coordinate_functions,
    jet_match,
    make_split_loop,
)

from conftest import revisit_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# global flags
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("branchspace ")


def test_schema_dump(capsys):
    code, out, _ = run(capsys, "--schema")
    assert code == 0
    schemas = json.loads(out)
    assert {"configuration", "trajectory", "chart", "branched_path", "section", "grid_function"} <= set(schemas)


def test_no_command_is_parse_error(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus"])
    assert exc.value.code == 2


# a valid call of each subcommand, to which one flag is appended
BASE_ARGV = {
    "hausdorff": ["hausdorff", "--bench", "10"],
    "simulate": ["simulate", "--demo", "two-particle-merge"],
    "chart": ["chart", "--demo", "three-points"],
    "branched-path": ["branched-path", "--demo", "paper-circle", "--samples", "16"],
    "bifurcate": ["bifurcate", "--a-min", "2.5", "--a-max", "3.0", "--steps", "3"],
    "section": ["section", "--field", "2.5", "--grid-n", "3"],
    "measure": ["measure", "--demo", "translated-bump"],
    # the other input mode, where it has flags of its own (files need not
    # exist: flags are checked before any file is read)
    "hausdorff FILES": ["hausdorff", "u.json", "v.json"],
    "simulate --input": ["simulate", "--input", "traj.json"],
    "branched-path --input": ["branched-path", "--input", "bp.json"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("hausdorff", ["--merge-tol", "0.5"]),
        ("hausdorff", ["--orbit-tol", "1e-10"]),
        ("hausdorff", ["--format", "dot"]),
        ("simulate", ["--seed", "1"]),
        ("simulate", ["--orbit-tol", "1e-10"]),
        ("simulate", ["--format", "dot"]),
        ("chart", ["--format", "csv"]),
        ("chart", ["--format", "json"]),
        ("chart", ["--seed", "1"]),
        ("chart", ["--merge-tol", "0.5"]),
        ("chart", ["--orbit-tol", "1e-10"]),
        ("branched-path", ["--seed", "1"]),
        ("branched-path", ["--merge-tol", "0.5"]),
        ("branched-path", ["--orbit-tol", "1e-10"]),
        ("branched-path", ["--format", "csv"]),
        ("bifurcate", ["--seed", "1"]),
        ("bifurcate", ["--tol-eq", "1e-9"]),
        ("bifurcate", ["--merge-tol", "0.5"]),
        ("bifurcate", ["--format", "dot"]),
        ("section", ["--format", "json"]),
        ("section", ["--seed", "1"]),
        ("section", ["--tol-eq", "1e-9"]),
        ("section", ["--merge-tol", "0.5"]),
        ("measure", ["--format", "json"]),
        ("measure", ["--seed", "1"]),
        ("measure", ["--tol-eq", "1e-9"]),
        ("measure", ["--merge-tol", "0.5"]),
        ("measure", ["--orbit-tol", "1e-10"]),
        # flags of the other input mode, and both modes at once
        ("hausdorff", ["--tol-eq", "1e-9"]),
        ("hausdorff", ["--indexed"]),
        ("hausdorff FILES", ["--seed", "5"]),
        ("hausdorff FILES", ["--dim", "3"]),
        ("hausdorff FILES", ["--bench", "10"]),
        ("simulate", ["--tol-eq", "1e-9"]),
        ("simulate", ["--input", "traj.json"]),
        ("simulate --input", ["--steps", "5"]),
        ("chart", ["--input", "cfg.json"]),
        ("branched-path", ["--input", "bp.json"]),
        ("branched-path --input", ["--perturb", "0.1"]),
        ("branched-path --input", ["--samples", "5"]),
        ("measure", ["--frames", "frames", "--region", "region.json"]),
        ("measure", ["--region", "region.json"]),
    ],
)
def test_flag_of_another_subcommand_exits_2(capsys, command, flag):
    build_parser().parse_args(BASE_ARGV[command])
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("hausdorff", "--tol-eq"),
        ("simulate", "--tol-eq"),
        ("simulate", "--merge-tol"),
        ("chart", "--tol-eq"),
        ("branched-path", "--tol-eq"),
        ("bifurcate", "--orbit-tol"),
        ("section", "--orbit-tol"),
        ("measure", "--tol-supp"),
    ],
)
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x"])
def test_bad_tolerance_exits_2_naming_the_flag(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("hausdorff", "--bench"),
        ("hausdorff", "--dim"),
        ("simulate", "--steps"),
        ("branched-path", "--samples"),
        ("section", "--grid-n"),
    ],
)
@pytest.mark.parametrize("value", ["-3", "0", "1.5", "x"])
def test_bad_count_exits_2_naming_the_flag(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bifurcate", "--a-min", "nan"),
        ("bifurcate", "--a-max", "-inf"),
        ("section", "--x-min", "nan"),
        ("section", "--x-max", "inf"),
        ("branched-path", "--perturb", "nan"),
        ("hausdorff", "--seed", "-1"),
        ("hausdorff", "--seed", "1.5"),
        ("branched-path", "--jet-order", "0"),
        ("branched-path", "--jet-order", "6"),
        ("bifurcate", "--max-period", "3"),
        ("section", "--max-period", "128"),
        # fewer intervals than a segment needs, and than an order-3 jet needs
        ("branched-path", "--samples", "7"),
        ("branched-path", "--samples", "11"),
        # a swept parameter lies in (0, 4]
        ("bifurcate", "--a-min", "5"),
        ("bifurcate", "--a-max", "0"),
        ("bifurcate", "--a-min", "4.5"),
        # a sweep includes both ends of its range
        ("bifurcate", "--steps", "1"),
        ("bifurcate", "--steps", "0"),
        ("bifurcate", "--steps", "-2"),
        ("bifurcate", "--steps", "x"),
        # the removed alias of paper-circle
        ("branched-path", "--demo", "circle-split"),
    ],
)
def test_bad_value_exits_2_naming_the_flag(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("bifurcate", "--steps", "1", "the value must be at least 2, got 1"),
        ("hausdorff", "--seed", "-1", "the value must be at least 0, got -1"),
        ("section", "--grid-n", "0", "the value must be at least 1, got 0"),
        ("chart", "--tol-eq", "0", "the value must be finite and positive, got 0.0"),
        ("bifurcate", "--orbit-tol", "nan", "the value must be finite and positive, got nan"),
        ("bifurcate", "--a-max", "5", "parameter must lie in (0, 4], got 5.0"),
        ("bifurcate", "--a-min", "0", "parameter must lie in (0, 4], got 0.0"),
        # a negative number in any notation is a value, so its check speaks
        ("bifurcate", "--a-max", "-inf", "parameter must lie in (0, 4], got -inf"),
        ("bifurcate", "--a-min", "-1e-3", "parameter must lie in (0, 4], got -0.001"),
        ("section", "--x-min", "-inf", "point coordinates must be finite"),
        # not a number: argparse's own message, with the converter's name
        ("hausdorff", "--bench", "x", "invalid int value: 'x'"),
        ("measure", "--tol-supp", "x", "invalid float value: 'x'"),
    ],
)
def test_a_bad_flag_reads_the_library_rule(capsys, command, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("section", "--x-min", "-1e-3"),
        ("section", "--x-max", "-1E+0"),
        ("branched-path", "--perturb", "-1e-12"),
    ],
)
def test_a_negative_value_in_exponent_notation_is_a_separate_argument(capsys, command, flag, value):
    # argparse alone reads -1e-3 as an unknown flag and exits 2
    apart = run(capsys, *BASE_ARGV[command], flag, value)
    joined = run(capsys, *BASE_ARGV[command], f"{flag}={value}")
    assert apart == joined
    assert apart[1]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_least_samples_for_jet_order_accepted(capsys, order):
    samples = max(8, 4 * order)
    code, out, _ = run(capsys, "branched-path", "--demo", "paper-circle", "--jet-order", str(order),
                       "--samples", str(samples))
    assert code == 0
    assert json.loads(out)["valid"]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("branchspace ")]
    assert len(lines) >= 7
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n.*?```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


# ---------------------------------------------------------------------------
# hausdorff
# ---------------------------------------------------------------------------

def test_hausdorff_files(capsys, tmp_path):
    write_json(configuration_to_dict(Configuration([[0.0], [2.0]])), tmp_path / "u.json")
    write_json(configuration_to_dict(Configuration([[1.0]])), tmp_path / "v.json")
    code, out, _ = run(capsys, "hausdorff", str(tmp_path / "u.json"), str(tmp_path / "v.json"))
    assert code == 0
    assert json.loads(out)["distance"] == 1.0

    code, out, _ = run(
        capsys, "hausdorff", str(tmp_path / "u.json"), str(tmp_path / "v.json"), "--indexed"
    )
    assert json.loads(out)["distance"] == 1.0


def test_hausdorff_of_two_dimensions_exits_2_alike_with_and_without_the_index(capsys, tmp_path):
    write_json(configuration_to_dict(Configuration([[0.0], [2.0]])), tmp_path / "u.json")
    write_json(configuration_to_dict(Configuration([[1.0, 0.0]])), tmp_path / "v.json")
    files = [str(tmp_path / "u.json"), str(tmp_path / "v.json")]
    plain = run(capsys, "hausdorff", *files)
    assert plain == (2, "", "hausdorff: invalid input: hausdorff distance needs one dimension, got 1 and 2\n")
    assert run(capsys, "hausdorff", *files, "--indexed") == plain


def test_hausdorff_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "hausdorff", str(tmp_path / "nope.json"), str(tmp_path / "nope2.json"))
    assert code == 4


def test_hausdorff_malformed_json_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "hausdorff", str(bad), str(bad))
    assert code == 2


def test_hausdorff_one_file_is_parse_error(capsys):
    code, out, err = run(capsys, "hausdorff", "u.json")
    assert (code, out) == (2, "")
    assert err == "hausdorff: need two configuration files (or --bench N)\n"


def test_hausdorff_bench(capsys):
    code, out, _ = run(capsys, "hausdorff", "--bench", "500", "--dim", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["difference"] <= 1e-12
    assert rec["n"] == 500


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_demo_merge_event(capsys):
    code, out, _ = run(capsys, "simulate", "--demo", "two-particle-merge")
    assert code == 0
    events = [json.loads(line) for line in out.strip().splitlines()]
    assert events == [{"t": 1.0, "kind": "merge", "from": 2, "to": 1, "at": [0.0]}]


def test_simulate_input_file(capsys, tmp_path):
    traj = two_particle_merge_trajectory([0.0, 0.5, 1.0])
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(trajectory_to_dict(traj)))
    code, out, _ = run(capsys, "simulate", "--input", str(path), "--merge-tol", "1.0")
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["kind"] == "merge"


def test_simulate_nonmonotone_times_rejected(capsys, tmp_path):
    traj = trajectory_to_dict(two_particle_merge_trajectory([0.0, 0.5, 1.0]))
    traj["times"] = [0.0, 0.5, 0.5]
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(traj))
    code, _, _ = run(capsys, "simulate", "--input", str(path))
    assert code == 2


def test_simulate_frames_of_another_dimension_rejected(capsys, tmp_path):
    frames = [[[0.0], [1.0]], [[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0]]]
    traj = {"times": [0.0, 1.0, 2.0], "frames": [{"dim": len(f[0]), "points": f} for f in frames]}
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(traj))
    code, out, err = run(capsys, "simulate", "--input", str(path))
    assert code == 2 and out == ""
    assert "frame 1 has 2 and frame 0 has 1" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["hausdorff", "{empty}", "{pair}"], "hausdorff distance needs nonempty configurations"),
        (["hausdorff", "{pair}", "{empty}"], "hausdorff distance needs nonempty configurations"),
        (["chart", "--input", "{empty}"], "charts need at least two points"),
    ],
)
def test_an_empty_configuration_file_exits_2_with_the_reason(capsys, tmp_path, argv, reason):
    files = {"empty": tmp_path / "empty.json", "pair": tmp_path / "pair.json"}
    files["empty"].write_text(json.dumps({"dim": 2, "points": []}))
    files["pair"].write_text(json.dumps({"dim": 2, "points": [[0.0, 0.0], [1.0, 1.0]]}))
    code, _, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert code == 2
    assert reason in err


GOOD_GRID = {"dims": [3], "h": 0.1, "origin": [0.0], "values": [0.0, 1.0, 0.0]}
SEGMENT_1D = {"samples": [[k / 8, [1.0 + k / 8]] for k in range(9)]}
SEGMENT_2D = {"samples": [[k / 8, [k / 8, 0.0]] for k in range(9)]}

GRID_2 = dict(GOOD_GRID, origin=[0.0, 0.0], values=[0.0, 1.0])
# a dim or dims that is not a positive integer, named in the message; each
# of these used to be truncated or inferred
BAD_DIM = [
    *[(argv, {"dim": dim, "points": [[0.0], [1.0]]})
      for argv in (["hausdorff", "{bad}", "{bad}"], ["chart", "--input", "{bad}"]) for dim in (1.9, True)],
    *[(["measure", "--frames", "{frames}", "--region", "{bad}"], dict(GRID_2, dims=dims))
      for dims in ([2.9, 1.5], [-1, 2], [-2, -1])],
]
# points that coincide: a domain error of the content, named with the file too
PILE = {"dim": 2, "points": [[0.5, 0.5]] * 3}
COINCIDE = [
    (["hausdorff", "{bad}", "{bad}"], PILE),
    (["chart", "--input", "{bad}"], PILE),
    (["simulate", "--input", "{bad}"], {"times": [0.0, 1.0], "frames": [PILE, PILE]}),
]

# a configuration, trajectory frame or chart base that is not an object of
# points, named in the message (a frame by its index); these used to print
# Python's own subscripting error or numpy's inhomogeneous-shape text
NAMED_SHAPE = [
    (["hausdorff", "{bad}", "{good}"], [[0.0], [1.0]], 'expected an object with "dim" and "points", got list'),
    (["simulate", "--input", "{bad}"], {"times": [0.0, 1.0], "frames": [{"dim": 1, "points": [[0.0]]}, None]},
     'frames[1]: expected an object with "dim" and "points", got null'),
    (["chart", "--input", "{bad}"], {"points": [[0.0], [1.0]]}, 'an object of points needs "dim"'),
    (["hausdorff", "{bad}", "{good}"], {"dim": 1}, 'an object of points needs "points"'),
    (["chart", "--input", "{bad}"], {"dim": 2, "points": [[0.0, 0.0], [1.0]]},
     "points must all have the same number of coordinates"),
    (["simulate", "--input", "{bad}"], {"times": [0.0], "frames": [{"dim": 1, "points": [[0.0], 1.0]}]},
     "frames[0]: points must all have the same number of coordinates"),
    # a branched path names the stage and the segment
    (["branched-path", "--input", "{bad}"], {"stages": [[SEGMENT_1D, {"points": [[0.0]]}]]},
     'stages[0][1]: a segment needs "samples"'),
    (["branched-path", "--input", "{bad}"], {"stages": [[SEGMENT_1D], [{"samples": [[0.0, [0.0]], [1.0]]}]]},
     "stages[1][0]: samples must be a list of [t, point] pairs"),
    (["branched-path", "--input", "{bad}"], {"stages": [[SEGMENT_1D], 5]}, "stages[1]: expected a list of segments, got int"),
    (["branched-path", "--input", "{bad}"], {"stages": 5}, '"stages" must be a list of stages, got int'),
    (["branched-path", "--input", "{bad}"], {"stages": [[SEGMENT_1D, None]]},
     'stages[0][1]: expected a segment object with "samples", got null'),
    # a missing top-level key, which used to read as Python's bare 'stages'
    (["branched-path", "--input", "{bad}"], {}, 'missing key "stages"'),
    (["simulate", "--input", "{bad}"], {"frames": []}, 'missing key "times"'),
    (["measure", "--frames", "{frames}", "--region", "{bad}"], {k: GOOD_GRID[k] for k in ("dims", "h", "values")},
     'missing key "origin"'),
]


@pytest.mark.parametrize(
    "argv, content",
    [
        (["hausdorff", "{bad}", "{bad}"], [[0.0, 0.0]]),
        (["hausdorff", "{bad}", "{bad}"], {"dim": 2}),
        (["chart", "--input", "{bad}"], [[0.0], [1.0]]),
        (["simulate", "--input", "{bad}"], {"times": 5, "frames": []}),
        (["simulate", "--input", "{bad}"], {"times": [0.0, 1.0], "frames": [5, 6]}),
        (["simulate", "--input", "{bad}"], {"frames": []}),
        (["branched-path", "--input", "{bad}"], {"stages": 5}),
        (["branched-path", "--input", "{bad}"], {"stages": [[{"samples": 3}]]}),
        (["branched-path", "--input", "{bad}"], {"stages": [[{"samples": [[0.0, [0.0]], [1.0]]}]]}),
        (["branched-path", "--input", "{bad}"], {"stages": [[SEGMENT_2D, SEGMENT_1D]]}),
        (["branched-path", "--input", "{bad}"], {"stages": [[SEGMENT_1D], [SEGMENT_2D]]}),
        (["measure", "--frames", "{dir}", "--region", "{good}"], dict(GOOD_GRID, dims=3)),
        (["measure", "--frames", "{frames}", "--region", "{bad}"], dict(GOOD_GRID, dims=3)),
        *BAD_DIM,
        # an input of each loader that lacks a key: configuration and
        # trajectory have one above; a string is a text grid
        (["branched-path", "--input", "{bad}"], {}),
        (["measure", "--frames", "{frames}", "--region", "{bad}"], {k: GOOD_GRID[k] for k in ("dims", "h", "values")}),
        (["measure", "--frames", "{frames}", "--region", "{bad}"], "3\n0.1\n"),
        *COINCIDE,
        *[(argv, content) for argv, content, _ in NAMED_SHAPE],
    ],
)
def test_a_wrong_shaped_input_file_exits_2_naming_it(capsys, tmp_path, argv, content):
    # an exception out of main, which a cold run prints as a traceback, fails the test
    text = isinstance(content, str)
    files = {"bad": tmp_path / ("bad.txt" if text else "bad.json"), "good": tmp_path / "good.json"}
    files["frames"] = tmp_path / "frames"
    files["bad"].write_text(content if text else json.dumps(content))
    files["good"].write_text(json.dumps(GOOD_GRID))
    files["frames"].mkdir()
    (files["frames"] / "frame.json").write_text(json.dumps(GOOD_GRID))
    code, out, err = run(capsys, *[arg.format(dir=tmp_path, **files) for arg in argv])
    assert code == 2 and out == ""
    assert f"invalid input: {files['bad']}: " in err
    if (argv, content) in BAD_DIM:
        assert f"{files['bad']}: {'dims' if 'dims' in content else 'dim'} must be" in err
    if (argv, content) in COINCIDE:
        assert f"{files['bad']}: points 0 and 1 coincide" in err
    for shape in NAMED_SHAPE:
        if shape[:2] == (argv, content):
            assert f"{files['bad']}: {shape[2]}\n" in err


# JSON true and false where a number belongs; float() reads them as 1 and 0,
# so each of these used to run on (hausdorff printed 0.5 and exited 0)
BOOLEAN = {
    "points": (["hausdorff", "{bad}", "{good}"], {"dim": 1, "points": [[True], [False]]}),
    "chart-points": (["chart", "--input", "{bad}"], {"dim": 2, "points": [[0.0, 1.0], [2.0, False]]}),
    "times": (["simulate", "--input", "{bad}"], {"times": [True, 2.0], "frames": [{"dim": 1, "points": [[0.0]]}] * 2}),
    "samples": (["branched-path", "--input", "{bad}"],
                {"stages": [[{"samples": [[k / 8, [k == 8]] for k in range(9)]}]]}),
    "h": (["measure", "--frames", "{frames}", "--region", "{bad}"], dict(GOOD_GRID, h=True)),
    "origin": (["measure", "--frames", "{frames}", "--region", "{bad}"], dict(GOOD_GRID, origin=[False])),
    "values": (["measure", "--frames", "{frames}", "--region", "{bad}"], dict(GOOD_GRID, values=[0.0, True, 0.0])),
}


@pytest.mark.parametrize("key, argv, content", [(k.split("-")[-1], *v) for k, v in BOOLEAN.items()], ids=BOOLEAN.keys())
def test_a_boolean_where_a_number_belongs_exits_2_naming_the_file(capsys, tmp_path, key, argv, content):
    files = {"bad": tmp_path / "bad.json", "good": tmp_path / "good.json", "frames": tmp_path / "frames"}
    files["bad"].write_text(json.dumps(content))
    files["good"].write_text(json.dumps({"dim": 1, "points": [[0.5], [2.0]]}))
    files["frames"].mkdir()
    (files["frames"] / "frame.json").write_text(json.dumps(GOOD_GRID))
    code, out, err = run(capsys, *[arg.format(**files) for arg in argv])
    assert (code, out) == (2, "")
    where = "stages[0][0]: " if key == "samples" else ""
    assert f"invalid input: {files['bad']}: {where}{key} must be numeric, got a boolean" in err


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

def test_chart_demo(capsys):
    code, out, _ = run(capsys, "chart", "--demo", "three-points")
    assert code == 0
    rec = json.loads(out)
    assert rec["radii"] == [0.5, 0.5, 1.0]
    assert rec["disjoint"] is True


def test_chart_duplicate_points_rejected(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"dim": 1, "points": [[0.0], [0.0]]}))
    code, _, _ = run(capsys, "chart", "--input", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# branched-path
# ---------------------------------------------------------------------------

def test_branched_path_demo_validates(capsys):
    code, out, _ = run(capsys, "branched-path", "--demo", "paper-circle")
    assert code == 0
    rec = json.loads(out)
    assert rec["valid"] is True
    assert rec["stages"] == [1, 2, 1]
    assert len(rec["junctions"]) == 2
    for junction in rec["junctions"]:
        for check in junction["checks"]:
            assert check["residuals"]["3"] <= 1e-4


def test_branched_path_perturbed_fails_with_gap(capsys):
    code, _, err = run(capsys, "branched-path", "--demo", "paper-circle", "--perturb", "0.1")
    assert code == 3
    assert "0.09999999999" in err or "0.1" in err


def test_branched_path_dot_output(capsys):
    code, out, _ = run(capsys, "branched-path", "--demo", "paper-circle", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 4


def test_branched_path_jets_are_per_boundary(capsys, tmp_path):
    bp = revisit_path()
    write_json(branched_path_to_dict(bp), tmp_path / "revisit.json")
    code, out, _ = run(capsys, "branched-path", "--input", str(tmp_path / "revisit.json"))
    assert code == 0
    jets = json.loads(out)["junctions"]
    assert [(j["boundary"], j["junction"]) for j in jets] == [(0, [1.0, 0.0]), (1, [1.0, 1.0]), (2, [1.0, 0.0])]
    for j, junction in zip(jets, bp.junctions(), strict=True):
        for check, f in zip(j["checks"], coordinate_functions(2)):
            res = jet_match(junction, f)
            assert check["residuals"] == {str(k): v for k, v in res.residuals.items()}
            assert check["passed"] == res.passed
    assert jets[0]["checks"][0]["residuals"]["1"] < 1e-9


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_branched_path_tol_eq_reaches_every_check(capsys, tmp_path, fmt):
    # the last stage starts 1e-7 off the arcs' common end: a gluing gap at
    # the default tolerance, one junction at 1e-6
    write_json(branched_path_to_dict(make_split_loop(m=64, final_offset=(0.0, 1e-7))), tmp_path / "bp.json")
    for mode in (["--demo", "paper-circle", "--samples", "64", "--perturb", "1e-7"], ["--input", str(tmp_path / "bp.json")]):
        argv = ["branched-path", *mode, "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "stage 1 endpoints do not match stage 2 start points" in err
        code, out, _ = run(capsys, *argv, "--tol-eq", "1e-6")
        assert code == 0
        if fmt == "json":
            rec = json.loads(out)
            assert [j["boundary"] for j in rec["junctions"]] == [0, 1]
        else:
            assert out.count("->") == 4


def test_branched_path_bridge_is_one_junction(capsys, tmp_path):
    # the start (0.9e-9, 0) joins the ends (0, 0) and (1.8e-9, 0), which are
    # farther apart than tol_eq: one junction, where the y speeds -1 and +1
    # come in and 0 goes out
    seg = lambda a, b: PathSegment.from_function(lambda t: (1.0 - t) * np.asarray(a) + t * np.asarray(b), 64)
    bp = BranchedPath([[seg((-1.0, 1.0), (0.0, 0.0)), seg((-1.0, -1.0), (1.8e-9, 0.0))], [seg((0.9e-9, 0.0), (1.0, 0.0))]])
    write_json(branched_path_to_dict(bp), tmp_path / "bridge.json")
    code, out, _ = run(capsys, "branched-path", "--input", str(tmp_path / "bridge.json"))
    assert code == 0
    (jet,) = json.loads(out)["junctions"]
    assert (jet["boundary"], jet["junction"]) == (0, [0.0, 0.0])
    assert jet["checks"][1]["residuals"]["1"] < 1e-9


# ---------------------------------------------------------------------------
# bifurcate / section
# ---------------------------------------------------------------------------

def test_bifurcate_csv_fixed_point(capsys):
    code, out, _ = run(capsys, "bifurcate", "--a-min", "2.5", "--a-max", "3.2", "--steps", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A,orbit_point"
    at_25 = [float(line.split(",")[1]) for line in lines[1:] if line.startswith("2.5,")]
    assert at_25 == [pytest.approx(0.6, abs=1e-10)]


def test_bifurcate_has_no_row_at_four(capsys):
    # a = 4.0 is chaotic; x0 = 0.5 reaches its unstable fixed point 0 exactly
    code, out, _ = run(capsys, "bifurcate", "--a-min", "3.99", "--a-max", "4.0", "--steps", "3")
    assert code == 0
    assert not any(line.startswith("4.0,") for line in out.splitlines())


def test_bifurcate_json_rows(capsys):
    argv = ["bifurcate", "--a-min", "2.5", "--a-max", "3.2", "--steps", "8", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row for row in rows if row[0] == 2.5] == [[2.5, pytest.approx(0.6, abs=1e-10)]]


def test_section_reports_chaotic_grid_points(capsys):
    # a = 3.5 has a 4-cycle; 3.625, 3.75, 3.875 and 4.0 lock in no period
    code, out, err = run(capsys, "section", "--field", "3.5+0.5*x", "--grid-n", "5")
    assert code == 0
    assert [f is None for f in json.loads(out)["fibers"]] == [False, True, True, True, True]
    assert err == "section: 4 grid points flagged chaotic\n"


def test_section_linear_field(capsys):
    code, out, _ = run(capsys, "section", "--field", "2.5+1.0*x", "--grid-n", "21")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["grid"]) == 21
    cards = [len(f) for f in rec["fibers"]]
    assert cards[0] == 1 and 2 in cards
    kinds = {(L["cardinality_before"], L["cardinality_after"]) for L in rec["loci"]}
    assert (1, 2) in kinds


def test_parse_linear_field():
    f = parse_linear_field("2.5+1.0*x")
    assert f(np.array([0.25])) == pytest.approx(2.75)
    g = parse_linear_field("3.0")
    assert g(np.array([9.0])) == 3.0
    h = parse_linear_field("4.0-2.0*x")
    assert h(np.array([0.5])) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        parse_linear_field("sin(x)")


def test_section_field_out_of_range_is_parse_error(capsys):
    code, _, _ = run(capsys, "section", "--field", "5.0", "--grid-n", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_demo_translated(capsys):
    code, out, _ = run(capsys, "measure", "--demo", "translated-bump")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_measure_demo_growing(capsys):
    code, out, err = run(capsys, "measure", "--demo", "growing-bump")
    assert code == 3
    assert json.loads(out)["violating_step"] == 3


def test_measure_frame_directory(capsys, tmp_path):
    frames, region = make_translated_bump_path()
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i, f in enumerate(frames):
        write_grid(f, frame_dir / f"frame_{i:03d}.json")
    region_fn = GridFunction(region.astype(float), frames[0].spacing)
    write_grid(region_fn, tmp_path / "region.json")
    code, out, _ = run(
        capsys, "measure", "--frames", str(frame_dir), "--region", str(tmp_path / "region.json")
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_measure_frames_without_region_is_parse_error(capsys, tmp_path):
    code, out, err = run(capsys, "measure", "--frames", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "measure: --frames needs --region FILE\n"


def test_measure_empty_frame_directory_is_parse_error(capsys, tmp_path):
    frames, region = make_translated_bump_path()
    write_grid(GridFunction(region.astype(float), frames[0].spacing), tmp_path / "region.json")
    (tmp_path / "frames").mkdir()
    code, out, err = run(
        capsys, "measure", "--frames", str(tmp_path / "frames"), "--region", str(tmp_path / "region.json")
    )
    assert (code, out) == (2, "")
    assert err == "measure: no frame files found\n"


@pytest.mark.parametrize("n_frames", [1, 2])
def test_measure_frame_with_nan_spacing_is_named(capsys, tmp_path, n_frames):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i in range(n_frames):
        (frame_dir / f"frame_{i}.txt").write_text("3\nnan\n0.0\n0\n1\n0\n")
    write_grid(GridFunction(np.array([0.0, 1.0, 0.0]), 0.1), tmp_path / "region.json")
    code, _, err = run(
        capsys, "measure", "--frames", str(frame_dir), "--region", str(tmp_path / "region.json")
    )
    assert code == 2
    assert "frame_0.txt: spacing must be finite and positive" in err


@pytest.mark.parametrize("text", ["3\nabc\n0.0\n0\n1\n0\n", "3\n0.1\n0.0\n0\nabc\n0\n"])
def test_measure_frame_with_a_bad_number_is_named(capsys, tmp_path, text):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    (frame_dir / "frame_0.txt").write_text(text)
    write_grid(GridFunction(np.array([0.0, 1.0, 0.0]), 0.1), tmp_path / "region.json")
    code, out, err = run(
        capsys, "measure", "--frames", str(frame_dir), "--region", str(tmp_path / "region.json")
    )
    assert (code, out) == (2, "")
    assert err.endswith("frame_0.txt: could not convert string to float: 'abc'\n")


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

def test_only_branched_paths_import_csgraph():
    # the connected-components import stays out of every other command's cold start
    probe = (
        "import sys, branchspace.cli\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
        "branchspace.cli.validate_branched(branchspace.cli.make_split_loop(16))\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
    )
    src = str(Path(sys.modules["branchspace"].__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(capsys, tmp_path):
    args_sets = [
        ("bifurcate", "--a-min", "2.5", "--a-max", "3.3", "--steps", "6"),
        ("section", "--field", "2.9+0.3*x", "--grid-n", "9"),
        ("branched-path", "--demo", "paper-circle", "--samples", "64"),
        ("simulate", "--demo", "two-particle-merge"),
        ("chart", "--demo", "three-points"),
    ]
    for argv in args_sets:
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_output_file_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "events.jsonl"
    code, _, _ = run(
        capsys, "simulate", "--demo", "two-particle-merge", "--output", str(out_file)
    )
    assert code == 0
    _, stdout, _ = run(capsys, "simulate", "--demo", "two-particle-merge")
    assert out_file.read_text() == stdout
