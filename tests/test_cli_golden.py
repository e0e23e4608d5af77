"""Golden CLI bytes: the sha256 digests of stdout and stderr, and the exit
code, of fixed commands, kept in cli_golden.json.

Regenerate the file only for an output change that CHANGES.md logs:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

Left out, because their bytes are not fixed by the code alone:
- the `branched-path` JSON: its jet residuals go through LAPACK `solve`
  and BLAS `dot`, whose last bits may differ between machines;
- `branched-path --perturb`: the gap on stderr depends on the last bits
  of `np.sin(pi)`;
- `hausdorff --bench`: its output holds timings.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from branchspace.cli import main
from branchspace.measure import GridFunction, make_translated_bump_path, write_grid

GOLDEN = Path(__file__).with_name("cli_golden.json")

# "{dir}" is the directory that write_inputs fills
COMMANDS = [
    ["simulate", "--demo", "two-particle-merge"],
    ["simulate", "--demo", "two-particle-merge", "--format", "csv"],
    ["chart", "--demo", "three-points"],
    ["branched-path", "--demo", "paper-circle", "--format", "dot"],
    ["bifurcate", "--a-min", "2.5", "--a-max", "3.56", "--steps", "2000"],
    ["bifurcate", "--a-min", "3.57", "--a-max", "4.0", "--steps", "2000"],
    ["section", "--field", "2.5+1.0*x", "--grid-n", "101"],
    ["measure", "--demo", "growing-bump"],
    ["measure", "--frames", "{dir}/frames", "--region", "{dir}/region.txt"],
    ["hausdorff", "{dir}/u.json", "{dir}/v.json"],
    ["hausdorff", "{dir}/u.json", "{dir}/v.json", "--format", "csv"],
    ["hausdorff", "{dir}/u.json", "{dir}/v.json", "--indexed"],
]


def write_inputs(directory: Path) -> None:
    # every distance between these points is exactly 5 or 10
    (directory / "u.json").write_text(json.dumps({"dim": 2, "points": [[0.0, 0.0], [3.0, 4.0]]}))
    (directory / "v.json").write_text(json.dumps({"dim": 2, "points": [[0.0, 0.0], [6.0, 8.0]]}))
    frames, region = make_translated_bump_path()
    (directory / "frames").mkdir()
    for i, f in enumerate(frames):
        write_grid(f, directory / "frames" / f"frame_{i:03d}.txt")
    write_grid(GridFunction(region.astype(float), frames[0].spacing), directory / "region.txt")


def observe(argv: list[str], directory: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(dir=directory) for arg in argv])

    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue())}


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_cli_bytes_match_the_golden_digests(tmp_path, argv):
    write_inputs(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert observe(argv, tmp_path) == golden[shlex.join(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        record = {shlex.join(argv): observe(argv, Path(tmp)) for argv in COMMANDS}
    sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
