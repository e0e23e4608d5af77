import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from branchspace import Configuration, configuration_to_dict
from branchspace.cli import build_parser, main, parse_linear_field
from branchspace.config import write_json
from branchspace.hausdorff import trajectory_to_dict, two_particle_merge_trajectory
from branchspace.measure import GridFunction, make_translated_bump_path, write_grid


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
    ],
)
def test_bad_value_exits_2_naming_the_flag(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_least_samples_for_jet_order_accepted(capsys, order):
    samples = max(8, 4 * order)
    code, out, _ = run(capsys, "branched-path", "--demo", "circle-split", "--jet-order", str(order),
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


# ---------------------------------------------------------------------------
# hausdorff
# ---------------------------------------------------------------------------

def test_hausdorff_files(capsys, tmp_path):
    write_json(configuration_to_dict(Configuration.from_points([[0.0], [2.0]])), tmp_path / "u.json")
    write_json(configuration_to_dict(Configuration.from_points([[1.0]])), tmp_path / "v.json")
    code, out, _ = run(capsys, "hausdorff", str(tmp_path / "u.json"), str(tmp_path / "v.json"))
    assert code == 0
    assert json.loads(out)["distance"] == 1.0

    code, out, _ = run(
        capsys, "hausdorff", str(tmp_path / "u.json"), str(tmp_path / "v.json"), "--indexed"
    )
    assert json.loads(out)["distance"] == 1.0


def test_hausdorff_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "hausdorff", str(tmp_path / "nope.json"), str(tmp_path / "nope2.json"))
    assert code == 4


def test_hausdorff_malformed_json_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "hausdorff", str(bad), str(bad))
    assert code == 2


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
    code, out, _ = run(capsys, "branched-path", "--demo", "circle-split", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 4


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
