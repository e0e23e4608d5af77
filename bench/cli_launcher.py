"""Traced cold CLI run.

    python3 bench/cli_launcher.py SPANS.json <branchspace arguments...>

Imports branchspace.cli from the checkout's src/, installs the span
wrappers, calls branchspace.cli.main and, when main returns, writes the
spans with the import time and the time inside main to SPANS.json.
"""

import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import branchspace.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        return branchspace.cli.main(argv)
    finally:
        tracer.write(out, import_s=import_s, main_s=perf_counter() - t0)


if __name__ == "__main__":
    sys.exit(main())
