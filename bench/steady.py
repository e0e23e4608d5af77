"""Steadiness of the benchmark: run one workload once per seed, in one or
more sets, and report for every metric the median, the quartiles and the
run-to-run spread (interquartile range over the median), next to the
bound in BENCHMARK.json. With two or more sets it also reports how far
each later set's median moved from the first.

    python3 bench/steady.py --workload cascade --seeds 1-10 [--sets 2]

Every run's record (versions, nproc, load average, CPU steal) is kept in
.bench_work/steady-<workload>.json with the statistics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".bench_work" / "runs" / f"{workload}-{seed}-trace0.json", encoding="utf-8") as fh:
        line["record"] = json.load(fh)
    return line


def stats(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"], "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sets = []
    for _ in range(args.sets):
        runs = [one_run(args.workload, seed, seconds) for seed in seed_list(args.seeds)]
        sets.append({"runs": runs, "stats": stats(runs),
                     "failed_shares": sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})})

    first = sets[0]["stats"]
    print(f"{args.workload}: {len(sets[0]['runs'])} runs x {len(sets)} sets, {seconds} s each")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'drift':>8}")
    for name, s in first.items():
        drift = ""
        if len(sets) > 1:
            later = sets[-1]["stats"][name]["median"]
            worse = (later - s["median"]) if better[name] == "lower" else (s["median"] - later)
            drift = f"{worse / s['median']:+.3f}" if s["median"] else ""
        print(f"{name:32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.3f} "
              f"{bounds[name]:>6} {drift:>8}")
    for k, st in enumerate(sets):
        steal = [r["record"]["env"]["steal_share"] for r in st["runs"]]
        print(f"set {k + 1}: correct={all(r['correct'] for r in st['runs'])} "
              f"failed/attempted={st['failed_shares']} max steal share={max(steal):.4f}")
    out = ROOT / ".bench_work" / f"steady-{args.workload}.json"
    out.write_text(json.dumps({"seconds": seconds, "sets": sets}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
