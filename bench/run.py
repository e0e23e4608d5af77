"""Benchmark of branchspace: one run of one workload.

    python3 bench/run.py --workload clouds|cascade|chaos|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is taken from src/ of that
checkout. With --trace 0 the last line of standard output is one JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run. A record of the run, with the versions, the
load average and the CPU steal, goes to .bench_work/runs/. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 3  # setup_s is the median over this many fresh interpreters
TIME_LIMIT = 170.0  # seconds for the whole run, launches included

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Pinned so that the numbers do not depend on how many cores BLAS finds.
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, read from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class Launch:
    """One worker process; `setup_s` is the time from spawn to READY."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, **THREAD_PINS)
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        timer.start()
        try:
            first = self.proc.stdout.readline()
            self.setup_s = perf_counter() - t0
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        if first.strip() != "READY":
            raise RuntimeError(f"worker did not finish set-up: {first!r}")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        self.result = json.loads(out.strip().splitlines()[-1]) if not setup_only else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="clouds, cascade, chaos or cli")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "branchspace" / "__init__.py").is_file():
        sys.stderr.write(f"no branchspace sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    (WORK / "runs").mkdir(parents=True, exist_ok=True)

    deadline = perf_counter() + TIME_LIMIT
    steal0, total0 = cpu_ticks()
    load0 = os.getloadavg()
    try:
        setups = [] if args.trace else [Launch(args, deadline, True).setup_s for _ in range(SETUP_LAUNCHES - 1)]
        run = Launch(args, deadline, False)
    except (IndexError, RuntimeError, ValueError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    setups.append(run.setup_s)
    steal1, total1 = cpu_ticks()
    result = run.result

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    else:
        units = {k: ("count" if not k.endswith("_s") else "s") for k in metrics}
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=result["rounds"], round_walls=result["round_walls"], unexpected=result["unexpected"],
                  setup_samples=setups,
                  env=dict(result["versions"], nproc=os.cpu_count(), loadavg_start=load0,
                           loadavg_end=os.getloadavg(), steal_s=(steal1 - steal0) / os.sysconf("SC_CLK_TCK"),
                           steal_share=(steal1 - steal0) / max(1, total1 - total0)))
    with open(WORK / "runs" / f"{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for reason in result["unexpected"]:
        sys.stderr.write(f"check failed: {reason}\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
