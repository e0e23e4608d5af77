"""One benchmark run of one workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Builds the seeded inputs, runs one untimed warm-up round and prints
READY; that is the end of set-up. Then it runs whole rounds until S
seconds have passed, checks every output after its round, and prints one
JSON line with the counts and metrics. With --trace 1 it alternates
untraced and traced rounds and reports per-layer metrics from the spans
of the traced ones. run.py launches it and adds setup_s.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("clouds", "cascade", "chaos", "cli")

# metric -> (span names, what to sum: "time", "self", "calls" or a count key)
LAYER_SUMS = {
    "config.construct_s": (("config.construct",), "time"),
    "config.construct_calls": (("config.construct",), "calls"),
    "config.points": (("config.construct",), "points"),
    "config.load_s": (("config.load",), "time"),
    "hausdorff.scan_s": (("hausdorff.scan",), "time"),
    "hausdorff.scan_points": (("hausdorff.scan",), "points"),
    "hausdorff.index_build_s": (("hausdorff.index_build",), "time"),
    "hausdorff.index_query_s": (("hausdorff.indexed",), "self"),
    "hausdorff.indexed_points": (("hausdorff.indexed",), "points"),
    "hausdorff.events_s": (("hausdorff.events",), "time"),
    "hausdorff.event_frames": (("hausdorff.events",), "frames"),
    "charts.build_s": (("charts.build",), "time"),
    "charts.apply_s": (("charts.apply",), "time"),
    "charts.invert_s": (("charts.invert",), "time"),
    "charts.points": (("charts.build", "charts.apply", "charts.invert"), "points"),
    "logistic.periodic_s": (("logistic.periodic",), "time"),
    "logistic.periodic_calls": (("logistic.periodic",), "calls"),
    "logistic.chaotic_s": (("logistic.chaotic",), "time"),
    "logistic.chaotic_calls": (("logistic.chaotic",), "calls"),
    "sections.rows_s": (("sections.rows",), "time"),
    "sections.section_s": (("sections.section",), "time"),
    "sections.self_s": (("sections.rows", "sections.section", "sections.decompose"), "self"),
    "sections.decompose_s": (("sections.decompose",), "time"),
    "sections.loci": (("sections.section",), "loci"),
    "paths.validate_s": (("paths.validate",), "time"),
    "paths.jet_s": (("paths.jet",), "time"),
    "paths.segment_samples": (("paths.validate",), "samples"),
    "measure.read_s": (("measure.read",), "time"),
    "measure.validate_s": (("measure.validate",), "time"),
    "measure.frames": (("measure.validate",), "frames"),
}
CLI_SUBCOMMANDS = ("hausdorff", "simulate", "chart", "branched_path", "bifurcate", "section", "measure")


def layer_sums(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer totals over spans[lo:hi] of one process's span list."""
    own = self_times(spans)
    out = {}
    for metric, (names, what) in LAYER_SUMS.items():
        total = 0.0 if metric.endswith("_s") else 0
        for i in range(lo, len(spans) if hi is None else hi):
            name, start, end, _, counts = spans[i]
            if name not in names:
                continue
            if what == "time":
                total += end - start
            elif what == "self":
                total += own[i]
            elif what == "calls":
                total += 1
            else:
                total += counts[what]
        out[metric] = total
    out["logistic.bifurcation_points_s"] = sum(
        spans[i][2] - spans[i][1] for i in range(lo, len(spans) if hi is None else hi)
        if spans[i][0] == "logistic.bifurcation_points")
    return out


class Raised:
    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {self.exc!r}"


def run_round(ops):
    outputs, latencies = [], []
    t0 = perf_counter()
    for op in ops:
        t = perf_counter()
        try:
            out = op.call(outputs)
        except Exception as exc:  # a failing call is a failed operation, not a crash
            out = Raised(exc)
        latencies.append(perf_counter() - t)
        outputs.append(out)
    return outputs, latencies, perf_counter() - t0


def check_round(ops, outputs):
    """(attempted, failed, reasons of failures that are not known faults)."""
    attempted = failed = 0
    unexpected = []
    for op, out in zip(ops, outputs):
        try:
            reasons = [repr(out)] * op.ops if isinstance(out, Raised) else op.check(out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            reasons = [f"unreadable output: {exc!r}"] * op.ops
        if len(reasons) != op.ops:
            raise RuntimeError(f"{op.name}: {len(reasons)} verdicts for {op.ops} operations")
        for i, reason in enumerate(reasons):
            attempted += 1
            if reason is not None:
                failed += 1
                if i not in op.known:
                    unexpected.append(f"{op.name}: {reason}")
    return attempted, failed, unexpected


class CliRunner:
    """Runs cold commands; through the traced launcher while `spans_dir`
    is set, keeping each command's span file."""

    def __init__(self, work: Path):
        self.work = work
        self.env = workloads.child_env(ROOT)
        self.spans_dir: Path | None = None
        self.calls: list[tuple[str, Path | None]] = []

    def __call__(self, sub, argv):
        spans = None
        if self.spans_dir is not None:
            spans = self.spans_dir / f"{len(self.calls)}.json"
        self.calls.append((sub, spans))
        return workloads.run_command(ROOT, self.work, argv, self.env, spans)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    tracer = Tracer() if args.trace else None
    runner = None
    if args.workload == "cli":
        work = WORK / f"cli-{args.seed}"
        runner = CliRunner(work)
        ops = workloads.cli(rng, work, runner)
        code, _, err = runner("warm-up", ["--schema"])
        if code != 0:
            raise RuntimeError(f"branchspace --schema exited {code}: {err}")
        runner.calls.clear()
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import branchspace as bs

        if not Path(bs.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"branchspace imported from {bs.__file__}, not from {ROOT / 'src'}")
        if tracer is not None:
            tracer.install()  # set-up is traced: bifurcation_points is computed there
        ops = getattr(workloads, args.workload)(bs, rng)
        run_round(ops)
        if tracer is not None:
            tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rounds = []
    attempted = failed = 0
    unexpected: list[str] = []
    t_start = perf_counter()
    while len(rounds) < 1 + (tracer is not None) or perf_counter() - t_start < args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        mark = len(tracer.spans) if tracer is not None else 0
        if runner is not None:
            runner.calls.clear()
            if traced:
                runner.spans_dir = runner.work / "spans" / str(len(rounds))
                runner.spans_dir.mkdir(parents=True, exist_ok=True)
            else:
                runner.spans_dir = None
        elif traced:
            tracer.install()
        outputs, latencies, wall = run_round(ops)
        if traced and runner is None:
            tracer.uninstall()
        a, f, bad = check_round(ops, outputs)
        attempted, failed = attempted + a, failed + f
        unexpected += bad
        rounds.append({"traced": traced, "wall": wall, "latencies": latencies,
                       "spans": (mark, len(tracer.spans)) if traced and runner is None else None,
                       "calls": list(runner.calls) if runner is not None else None})

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected[:20],
        "rounds": len(rounds),
        "round_walls": [r["wall"] for r in rounds if not r["traced"]],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    plain = [r for r in rounds if not r["traced"]]
    if tracer is None:
        result["metrics"] = end_to_end(ops, plain, runner is not None)
    else:
        result["metrics"] = per_layer(rounds, tracer, runner)
        with open(WORK / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"in_process": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


def end_to_end(ops, rounds, children: bool) -> dict:
    """wall_s: the mean round, i.e. the timed phase's wall time over its
    rounds. items_per_s: all items over all round time. op_p50_s: the
    median over operations of each operation's mean latency across rounds;
    a call of k operations counts k times, at a k-th of its time.

    Means over the whole run, not medians of rounds: the host's speed
    switches between fast and slow spells of a few seconds, and a median
    snaps to whichever spell holds most rounds, so it moves more from run
    to run than the mean does."""
    per_op = []
    for i, op in enumerate(ops):
        per_op += [statistics.fmean(r["latencies"][i] for r in rounds) / op.ops] * op.ops
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    total = sum(r["wall"] for r in rounds)
    return {
        "wall_s": total / len(rounds),
        "items_per_s": sum(op.items for op in ops) * len(rounds) / total,
        "op_p50_s": statistics.median(per_op),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def per_layer(rounds, tracer, runner) -> dict:
    """Layer totals per traced round, medians over those rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round, imports, mains = [], [], []
    for r in traced:
        if runner is None:
            per_round.append(layer_sums(tracer.spans, *r["spans"]))
            continue
        total: dict = {}
        for _, path in r["calls"]:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            imports.append(data["import_s"])
            mains.append(data["main_s"])
            for k, v in layer_sums(data["spans"]).items():
                total[k] = total.get(k, 0) + v
        per_round.append(total)
    metrics = {k: statistics.median(d[k] for d in per_round) for k in per_round[0]}
    if runner is None:
        # cached per process: the set-up call does the work
        metrics["logistic.bifurcation_points_s"] = layer_sums(tracer.spans)["logistic.bifurcation_points_s"]
    latency = {sub: [] for sub in CLI_SUBCOMMANDS}
    if runner is not None:
        for r in plain:
            for (sub, _), t in zip(r["calls"], r["latencies"]):
                latency[sub].append(t)
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["cli.main_s"] = statistics.median(mains) if mains else 0.0
    for sub, ts in latency.items():
        metrics[f"cli.{sub}_s"] = statistics.median(ts) if ts else 0.0
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in plain))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
