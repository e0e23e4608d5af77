"""The benchmark's workloads: seeded inputs, the calls into branchspace
that a round times, and the independent checks of their outputs.

A round is a fixed list of Ops run one after another. Each Op makes one
call into the program (or one cold CLI command), counts `items` of work
and `ops` operations, and its check returns one reason per operation
(None when it passed). Inputs depend only on the seed; every round of a
run repeats the same calls, so the share of failed operations is the same
in every run. Expected values that depend only on the inputs are wrapped in
functools.cache, so they are computed at the first check, after set-up.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

TOL_EQ = 1e-9  # the library's default distinctness tolerance
ORBIT_TOL = 1e-10  # the library's default orbit tolerance
TOL_SUPP = 1e-12  # the library's default support tolerance
A4_FAULT = "logistic_attractor(4.0) returns the unstable fixed point 0 instead of a chaotic verdict"


@dataclass
class Op:
    name: str
    call: Callable[[list], Any]  # receives the outputs of earlier ops in the round
    check: Callable[[Any], list]  # one reason or None per operation
    items: int
    ops: int = 1
    known: dict = field(default_factory=dict)  # operation index -> known fault


def cloud(rng, n: int, d: int, kind: str, centres: np.ndarray | None = None) -> np.ndarray:
    """n points in d dimensions at unit density: uniform in a box, or
    normal clusters around 8 uniform centres. Clouds that are compared
    share their centres: the grid index's ring search crosses the empty
    space between unrelated clusters one ring at a time."""
    side = n ** (1.0 / d)
    if kind == "uniform":
        pts = rng.uniform(0.0, side, size=(n, d))
    else:
        if centres is None:
            centres = rng.uniform(0.0, side, size=(8, d))
        pts = centres[rng.integers(0, len(centres), size=n)] + rng.normal(0.0, side / 40.0, size=(n, d))
    reason = oracles.check_distinct(pts, TOL_EQ)
    if reason is not None:
        raise RuntimeError(f"generated cloud is not a configuration: {reason}")
    return pts


# ---------------------------------------------------------------------------
# clouds: config, hausdorff, charts
# ---------------------------------------------------------------------------

CONSTRUCT_SIZES = (2048, 2049, 4096)  # both sides of the n^2 check limit
HUB, PARTNERS, ONE_SHOT = 300, (200, 250, 350, 400, 450, 500), (200, 250)
CHARTS = ((3000, 2, "uniform"), (2000, 3, "clustered"))


def clouds(bs, rng) -> list[Op]:
    ops: list[Op] = []
    kinds = ("uniform", "clustered")

    def add(op: Op) -> int:
        ops.append(op)
        return len(ops) - 1

    for d in (1, 2, 3):
        for j, n in enumerate(CONSTRUCT_SIZES):
            pts = cloud(rng, n, d, kinds[(j + d) % 2])
            add(Op(f"config.construct n={n} d={d}", lambda out, p=pts: bs.Configuration(p),
                   lambda cfg, p=pts: [oracles.check_canonical(cfg.points, p)], n))

    for d in (1, 2, 3):
        kind = kinds[d % 2]
        centres = rng.uniform(0.0, HUB ** (1.0 / d), size=(8, d))
        hub = bs.Configuration(cloud(rng, HUB, d, kind, centres))
        partners = [bs.Configuration(cloud(rng, n, d, kind, centres)) for n in PARTNERS]
        builds = []
        for cfg in [hub] + partners:
            builds.append(add(Op(f"hausdorff.index_build n={len(cfg)} d={d}",
                                 lambda out, c=cfg: bs.GridIndex(c),
                                 lambda idx, c=cfg: [None if np.array_equal(idx.points, c.points)
                                                     else "index does not hold its configuration"],
                                 len(cfg))))
        for k, cfg in enumerate(partners):
            want = functools.cache(lambda h=hub, c=cfg: oracles.hausdorff(h.points, c.points))
            pair = HUB + len(cfg)
            add(Op(f"hausdorff.query {HUB}x{len(cfg)} d={d}",
                   lambda out, h=hub, c=cfg, iu=builds[0], iv=builds[k + 1]:
                       bs.hausdorff_distance_indexed(h, c, idx_u=out[iu], idx_v=out[iv]),
                   lambda got, w=want: [oracles.check_distance(got, w())], pair))
            add(Op(f"hausdorff.scan {HUB}x{len(cfg)} d={d}",
                   lambda out, h=hub, c=cfg: bs.hausdorff_distance(h, c),
                   lambda got, w=want: [oracles.check_distance(got, w())], pair))
        left, right = (bs.Configuration(cloud(rng, n, d, kind, centres)) for n in ONE_SHOT)
        want = functools.cache(lambda l=left, r=right: oracles.hausdorff(l.points, r.points))
        add(Op(f"hausdorff.one_shot {ONE_SHOT[0]}x{ONE_SHOT[1]} d={d}",
               lambda out, l=left, r=right: bs.hausdorff_distance_indexed(l, r),
               lambda got, w=want: [oracles.check_distance(got, w())], sum(ONE_SHOT)))
        add(Op(f"hausdorff.scan {ONE_SHOT[0]}x{ONE_SHOT[1]} d={d}",
               lambda out, l=left, r=right: bs.hausdorff_distance(l, r),
               lambda got, w=want: [oracles.check_distance(got, w())], sum(ONE_SHOT)))

    for n, d, kind in CHARTS:
        pts = cloud(rng, n, d, kind)
        base = bs.LocallyFiniteConfiguration(pts)
        direction = rng.normal(size=(n, d))
        z = direction / np.linalg.norm(direction, axis=1)[:, None] * rng.uniform(0.0, 0.9, size=(n, 1))
        radii = functools.cache(lambda p=pts: oracles.chart_radii(p))
        ib = add(Op(f"charts.build n={n} d={d}", lambda out, b=base: bs.build_chart(b),
                    lambda c, r=radii, p=pts: [
                        "chart base is not the given points" if not np.array_equal(c.base.points, p)
                        else oracles.check_radii(c.radii, r())], n))
        ia = add(Op(f"charts.apply n={n} d={d}", lambda out, i=ib, zz=z: bs.chart_apply(out[i], zz),
                    lambda img, r=radii, p=pts, zz=z: [oracles.check_chart_image(p, r(), zz, img.points)], n))
        add(Op(f"charts.invert n={n} d={d}", lambda out, i=ib, j=ia: bs.chart_invert(out[i], out[j]),
               lambda zb, r=radii, p=pts, zz=z: [oracles.check_roundtrip(p, r(), zz, zb)], n))
    return ops


# ---------------------------------------------------------------------------
# cascade and chaos: logistic, sections
# ---------------------------------------------------------------------------

def sweep_op(bs, name: str, a_min: float, a_max: float, steps: int, check_one, known=None) -> Op:
    """bifurcation_rows over linspace(a_min, a_max, steps); one operation
    per parameter, checked by check_one(index, a, orbit or None)."""
    params = np.linspace(a_min, a_max, steps)

    def check(rows):
        orbits = oracles.group_rows(params, rows)
        return [check_one(i, float(a), orb) for i, (a, orb) in enumerate(zip(params, orbits))]

    return Op(name, lambda out: bs.sections.bifurcation_rows(a_min, a_max, steps), check, steps, steps, known or {})


def cascade_check(i, a, orbit):
    if orbit is None:
        return f"no periodic orbit at a={a!r} in the period-doubling regime"
    return oracles.check_orbit(a, orbit, ORBIT_TOL, oracles.cascade_periods(a))


def fiber_orbit(a: float, fiber) -> list[float] | None:
    """Put a fiber (a sorted orbit) back into iteration order from its
    smallest point, or None when the map does not permute it."""
    pts = np.asarray(fiber, dtype=float)
    order = [int(np.argmin(pts))]
    for _ in range(len(pts) - 1):
        order.append(int(np.argmin(np.abs(pts - oracles.logistic_step(a, pts[order[-1]])))))
    if len(set(order)) != len(pts):
        return None
    return pts[order].tolist()


def check_section(params, grid_x, fibers, loci) -> list:
    reasons = []
    for a, fiber in zip(params, fibers):
        if fiber is None:
            reasons.append(f"no periodic orbit at a={a!r} in the period-doubling regime")
            continue
        orbit = fiber_orbit(a, fiber)
        reasons.append("the map does not permute the fiber" if orbit is None
                       else oracles.check_orbit(a, orbit, ORBIT_TOL, oracles.cascade_periods(a)))
    if all(r is None for r in reasons):
        bad = oracles.check_loci(params, fibers, loci, grid_x)
        if bad is not None:
            reasons[-1] = bad
    return reasons


def section_op(bs, name: str, a0: float, b: float, grid_n: int) -> Op:
    grid = np.linspace(0.0, 1.0, grid_n).reshape(-1, 1)
    params = [a0 + b * float(x) for x in grid[:, 0]]

    def check(result):
        sample, loci = result
        if not np.array_equal(np.asarray(sample.parameters), params):
            return ["section parameters differ from the field"] * grid_n
        fibers = [None if f is None else f.points[:, 0].tolist() for f in sample.fibers]
        return check_section(params, grid[:, 0], fibers, [l.to_json_dict() for l in loci])

    return Op(name, lambda out: bs.branched_equilibrium_section(lambda p: a0 + b * float(p[0]), grid),
              check, grid_n, grid_n)


def cascade(bs, rng) -> list[Op]:
    a = (2.5,) + oracles.CASCADE
    ops: list[Op] = []
    # One sweep inside each period band, 0.005 of its width clear of its
    # doublings: within ~3e-8 above a_6 logistic_attractor returns the
    # unstable period-32 cycle (see CHANGES.md). The sweeps below straddle
    # each doubling instead, at controlled offsets.
    for k, steps in enumerate((60, 60, 50, 50, 40, 40, 40)):
        lo, hi = a[k], a[k + 1]
        m = 0.005 * (hi - lo)
        start = lo + m + rng.uniform(0.0, (hi - lo - 2 * m) / steps)
        ops.append(sweep_op(bs, f"sections.rows period {2 ** k}", start, hi - m, steps, cascade_check))
    a = oracles.CASCADE
    for k in range(6):
        # 8 parameters straddling a_k at 0.01..0.05 of the gap, where the
        # multiplier approaches -1, clear of the doubling margin
        half = rng.uniform(0.01, 0.05) * (a[k + 1] - a[k])
        ops.append(sweep_op(bs, f"sections.rows near a_{k + 1}", a[k] - half, a[k] + half, 8, cascade_check))
    # linear fields crossing a_1; a_1 and a_2; a_2, a_3 and a_4
    for lo, hi in ((2.8, 3.3), (2.9, 3.5), (3.40, 3.566)):
        a0 = lo + rng.uniform(0.0, 0.05)
        b = hi + rng.uniform(0.0, 0.001) - a0
        ops.append(section_op(bs, f"sections.section {lo}..{hi}", a0, b, 61))
    # a period-2 band, threaded into two selections
    a0 = 3.05 + rng.uniform(0.0, 0.05)
    b = 3.40 + rng.uniform(0.0, 0.03) - a0
    band = section_op(bs, "sections.section period-2 band", a0, b, 61)
    ops.append(band)
    index = len(ops) - 1
    branches = oracles.period_two_branches(a0 + b * np.linspace(0.0, 1.0, 61))

    def check_decomposition(dec):
        if dec.selections is None:
            return [f"period-2 band reported as not decomposable: {dec.witness}"]
        err = float(np.max(np.abs(np.asarray(dec.selections) - branches)))
        return [None if err <= 1e-8 else f"selections differ from the closed-form branches by {err:.3g}"]

    ops.append(Op("sections.decompose period-2 band",
                  lambda out: bs.decompose_or_witness(out[index][0]), check_decomposition, 0))
    return ops


CHAOS_STEPS = 33
# The sweep starts at 3.57 plus one of 100 offsets of a thousandth of its
# step, so every seed sweeps nearly the same mix of chaotic and periodic
# parameters. Offset 12 is left out: its sweep holds a = 3.597026171875,
# where logistic_attractor returns an unstable period-50 orbit.
CHAOS_OFFSETS = tuple(s for s in range(100) if s != 12)
_S8 = 1.0 + math.sqrt(8.0)
# periodic windows and their edges, including period 3 just above 1+sqrt(8)
WINDOWS = (_S8 - 1e-3, _S8 - 1e-4, _S8 + 1e-6, _S8 + 1e-4, 3.835, 3.845,
           3.627, 3.7020, 3.7390, 3.906, 3.9605)


def chaos(bs, rng) -> list[Op]:
    step = (4.0 - 3.57) / (CHAOS_STEPS - 1)
    a_min = 3.57 + step * CHAOS_OFFSETS[int(rng.integers(len(CHAOS_OFFSETS)))] / 1000
    params = np.linspace(a_min, 4.0, CHAOS_STEPS)
    lyap = functools.cache(lambda: oracles.lyapunov(np.concatenate([params, WINDOWS])))

    def sweep_check(i, a, orbit):
        return oracles.check_verdict(a, orbit, lyap()[i], ORBIT_TOL)

    ops = [sweep_op(bs, "sections.rows 3.57..4", a_min, 4.0, CHAOS_STEPS, sweep_check,
                    known={CHAOS_STEPS - 1: A4_FAULT})]
    for j, a in enumerate(WINDOWS):
        def check(att, a=a, j=j):
            pts = list(att.points) if hasattr(att, "points") else None
            return [oracles.check_verdict(a, pts, lyap()[CHAOS_STEPS + j], ORBIT_TOL)]

        ops.append(Op(f"logistic.attractor {a:.6f}", lambda out, a=a: bs.logistic_attractor(a), check, 1))
    return ops


# ---------------------------------------------------------------------------
# cli: cold `branchspace <cmd>` runs
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _config_json(pts: np.ndarray) -> dict:
    return {"dim": int(pts.shape[1]), "points": pts.tolist()}


def merge_trajectory(rng):
    """Seven particles in the plane: two pairs merge, then a particle
    splits in two. Returns the trajectory and its expected events."""
    times = np.linspace(0.0, 1.0, 21)
    centre = rng.uniform(0.0, 10.0, size=(5, 2)) + np.arange(5)[:, None] * 12.0  # far apart
    heading = rng.normal(size=(5, 2))
    heading /= np.linalg.norm(heading, axis=1)[:, None]
    gap = rng.uniform(0.5, 1.5, size=5)
    k_merge, k_merge2, k_split = 6, 11, 15
    frames, events = [], []
    for k, t in enumerate(times):
        pts = []
        for p, k_end in ((0, k_merge), (1, k_merge2)):
            if k < k_end:
                half = 0.5 * gap[p] * (1.0 - t / times[k_end])
                pts += [centre[p] - half * heading[p], centre[p] + half * heading[p]]
            else:
                pts.append(centre[p])
        pts.append(centre[2])
        pts.append(centre[3])
        if k < k_split:
            pts.append(centre[4])
        else:
            half = 0.02 * (k - k_split + 1)
            pts += [centre[4] - half * heading[4], centre[4] + half * heading[4]]
        frames.append(np.asarray(pts))
    for k, kind, at in ((k_merge, "merge", centre[0]), (k_merge2, "merge", centre[1]), (k_split, "split", centre[4])):
        events.append({"t": float(times[k]), "kind": kind, "from": len(frames[k - 1]),
                       "to": len(frames[k]), "at": at.tolist()})
    traj = {"times": times.tolist(), "frames": [_config_json(f) for f in frames]}
    return traj, events


def split_ellipse(rx: float, ry: float, m: int) -> list:
    """Samples of a line that splits into the upper and lower halves of an
    ellipse and rejoins: stages {in}, {upper, lower}, {out}."""
    t = np.arange(m + 1) / m
    curves = [
        [np.column_stack([t - 1.0 - rx, 0.0 * t])],
        [np.column_stack([-rx * np.cos(np.pi * t), ry * np.sin(np.pi * t)]),
         np.column_stack([-rx * np.cos(np.pi * t), -ry * np.sin(np.pi * t)])],
        [np.column_stack([rx + t, 0.0 * t])],
    ]
    return curves


def jet_residuals(rx: float) -> dict:
    """Closed-form |incoming - outgoing| derivative sums, orders 1..3, of
    x and y at both junctions of split_ellipse: x jumps by 1 at order 1
    and by 2 rx pi^2 at order 2; y matches at every order."""
    return {"x0": [1.0, 2.0 * rx * math.pi**2, 0.0], "x1": [0.0, 0.0, 0.0]}


# Allowed error of a one-sided finite-difference derivative of order k at
# m = 1024 samples: truncation is negligible, rounding grows like h^-k.
JET_GATE = (1e-7, 1e-4, 1e-1)


def bump_frames(rng, shape=(24, 24), steps=10):
    """A seeded 3x2 bump sliding right inside a fixed region, whose ring
    it crosses near the end, so one run of clear frames restarts."""
    region = np.zeros(shape, dtype=bool)
    region[4:12, 3:13] = True
    values = rng.uniform(0.5, 2.0, size=(3, 2))
    row = int(rng.integers(5, 9))
    frames = []
    for j in range(steps):
        f = np.zeros(shape)
        f[row : row + 3, 4 + j : 6 + j] = values
        frames.append(f)
    return frames, region


def _grid_text(values: np.ndarray, spacing: float) -> str:
    lines = [" ".join(str(s) for s in values.shape), repr(spacing), " ".join("0.0" for _ in values.shape)]
    lines += [repr(float(v)) for v in values.ravel()]
    return "\n".join(lines) + "\n"


class CliCommands:
    """Writes the inputs to a work directory and lists the commands, each
    with the check of its standard output."""

    def __init__(self, rng, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.commands: list[tuple[str, list[str], Callable[[str], str | None]]] = []

        u, v = cloud(rng, 1500, 2, "uniform"), cloud(rng, 1200, 2, "clustered")
        centres = rng.uniform(0.0, 25.0, size=(8, 2))
        w1, w2 = cloud(rng, 600, 2, "clustered", centres), cloud(rng, 700, 2, "clustered", centres)
        for name, pts in (("u", u), ("v", v), ("w1", w1), ("w2", w2)):
            _write_json(work / f"{name}.json", _config_json(pts))
        for left, right, extra in ((u, v, []), (w1, w2, ["--indexed"])):
            want = functools.cache(lambda l=left, r=right: oracles.hausdorff(l, r))

            def check(out, l=left, r=right, w=want, indexed=bool(extra)):
                res = json.loads(out)
                if (res["n_left"], res["n_right"], res["indexed"]) != (len(l), len(r), indexed):
                    return f"wrong sizes or mode in {res}"
                return oracles.check_distance(res["distance"], w())

            names = ["u.json", "v.json"] if not extra else ["w1.json", "w2.json"]
            self.add("hausdorff", ["hausdorff", *names, *extra], check)

        traj, events = merge_trajectory(rng)
        _write_json(work / "traj.json", traj)
        self.add("simulate", ["simulate", "--input", "traj.json", "--merge-tol", "0.5"],
                 lambda out, e=events: self.check_events(out, e))
        demo_events = [{"t": 1.0, "kind": "merge", "from": 2, "to": 1, "at": [0.0]}]
        self.add("simulate", ["simulate", "--demo", "two-particle-merge"],
                 lambda out: self.check_events(out, demo_events))

        cfg = cloud(rng, 800, 2, "clustered")
        _write_json(work / "cfg.json", _config_json(cfg))
        self.add("chart", ["chart", "--input", "cfg.json"], lambda out: self.check_chart(out, oracles.canonical(cfg)))
        self.add("chart", ["chart", "--demo", "three-points"],
                 lambda out: self.check_chart(out, np.array([[0.0], [1.0], [3.0]])))

        rx, ry = rng.uniform(0.8, 1.5), rng.uniform(0.5, 1.2)
        stages = split_ellipse(rx, ry, 1024)
        ts = np.arange(1025) / 1024
        _write_json(work / "bp.json", {"stages": [[{"samples": [[float(t), p.tolist()] for t, p in zip(ts, seg)]}
                                                    for seg in stage] for stage in stages]})
        self.add("branched_path", ["branched-path", "--input", "bp.json"],
                 lambda out: self.check_jets(out, stages, rx))
        self.add("branched_path", ["branched-path", "--demo", "paper-circle", "--format", "dot"], self.check_dot)

        a_min = 2.5 + rng.uniform(0.0, 0.01)
        params = np.linspace(a_min, 3.56, 300)
        self.add("bifurcate", ["bifurcate", "--a-min", repr(a_min), "--a-max", "3.56", "--steps", "300"],
                 lambda out: self.check_bifurcate(out, params))

        a0 = 2.6 + rng.uniform(0.0, 0.1)
        b = 3.55 + rng.uniform(0.0, 0.01) - a0
        self.add("section", ["section", "--field", f"{a0!r}+{b!r}*x", "--grid-n", "101"],
                 lambda out: self.check_section(out, a0, b, 101))

        frames, region = bump_frames(rng)
        (work / "frames").mkdir(exist_ok=True)
        for j, f in enumerate(frames):
            (work / "frames" / f"frame_{j:02d}.txt").write_text(_grid_text(f, 0.1), encoding="utf-8")
        (work / "region.txt").write_text(_grid_text(region.astype(float), 0.1), encoding="utf-8")
        want = oracles.volume_report(frames, region, TOL_SUPP)
        self.add("measure", ["measure", "--frames", "frames", "--region", "region.txt"],
                 lambda out: self.check_equal(out, want))
        demo = {"ok": True, "violating_step": None, "cells_in_region": [4] * 6, "ring_clear": [True] * 6}
        self.add("measure", ["measure", "--demo", "translated-bump"], lambda out: self.check_equal(out, demo))

    def add(self, sub, argv, check):
        self.commands.append((sub, argv, check))

    @staticmethod
    def check_events(out: str, want: list) -> str | None:
        got = [json.loads(line) for line in out.splitlines() if line.strip()]
        if len(got) != len(want):
            return f"{len(got)} events, expected {len(want)}"
        for g, w in zip(got, want):
            if any(g[k] != w[k] for k in ("t", "kind", "from", "to")):
                return f"event {g} differs from {w}"
            if np.max(np.abs(np.asarray(g["at"]) - w["at"])) > 1e-12:
                return f"event at {g['at']}, expected {w['at']}"
        return None

    @staticmethod
    def check_chart(out: str, base: np.ndarray) -> str | None:
        res = json.loads(out)
        pts = np.asarray(res["base"]["points"], dtype=float)
        if not res.get("disjoint") or not np.array_equal(pts, base):
            return "chart base differs from the input or balls reported overlapping"
        return oracles.check_radii(res["radii"], oracles.chart_radii(base))

    @staticmethod
    def check_jets(out: str, stages, rx: float) -> str | None:
        res = json.loads(out)
        if not res["valid"] or res["stages"] != [1, 2, 1]:
            return f"path reported as {res['valid']} with stages {res['stages']}"
        junctions = [np.array([-rx, 0.0]), np.array([rx, 0.0])]
        want = jet_residuals(rx)
        if len(res["junctions"]) != 2:
            return f"{len(res['junctions'])} junctions, expected 2"
        for b, (jn, point) in enumerate(zip(res["junctions"], junctions)):
            if jn["boundary"] != b or np.max(np.abs(np.asarray(jn["junction"]) - point)) > 1e-12:
                return f"junction {b} at {jn['junction']}, expected {point.tolist()}"
            segs = [s for s in stages[b]] + [s for s in stages[b + 1]]
            for j, chk in enumerate(jn["checks"]):
                tol = 1e-4 * max(1.0, max(float(np.max(np.abs(s[:, j]))) for s in segs))
                if abs(chk["tolerance"] - tol) > 1e-15:
                    return f"jet tolerance {chk['tolerance']!r}, expected {tol!r}"
                res_k = [chk["residuals"][str(k)] for k in (1, 2, 3)]
                for k, (got, exact, gate) in enumerate(zip(res_k, want[chk["function"]], JET_GATE), 1):
                    if abs(got - exact) > gate * max(1.0, exact):
                        return f"order-{k} residual of {chk['function']} is {got!r}, exact {exact!r}"
                if chk["passed"] != all(r <= chk["tolerance"] for r in res_k):
                    return "jet verdict disagrees with its residuals"
        return None

    @staticmethod
    def check_dot(out: str) -> str | None:
        lines = [l.strip() for l in out.strip().splitlines()]
        nodes = [l for l in lines if "->" not in l and l.startswith("n")]
        edges = [l.split("[")[0].strip() for l in lines if "->" in l]
        if edges != ["n0 -> n1", "n1 -> n2", "n1 -> n2", "n2 -> n3"]:
            return f"unexpected edges {edges}"
        want = ([-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0])
        for line, w in zip(nodes, want):
            label = line.split('"')[1].strip("{}")
            if np.max(np.abs(np.asarray([float(x) for x in label.split(",")]) - w)) > 1e-12:
                return f"node {line} is not the junction {w}"
        return None if len(nodes) == 4 else f"{len(nodes)} nodes, expected 4"

    @staticmethod
    def check_bifurcate(out: str, params) -> str | None:
        lines = out.splitlines()
        if lines[0] != "A,orbit_point":
            return "missing CSV header"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        for i, (a, orbit) in enumerate(zip(params, oracles.group_rows(params, rows))):
            reason = cascade_check(i, float(a), orbit)
            if reason is not None:
                return reason
        return None

    @staticmethod
    def check_section(out: str, a0: float, b: float, grid_n: int) -> str | None:
        res = json.loads(out)
        x = np.linspace(0.0, 1.0, grid_n)
        params = [a0 + b * float(v) for v in x]
        if np.max(np.abs(np.asarray(res["parameters"]) - params)) > 1e-12:
            return "section parameters differ from the field"
        if not np.array_equal(np.asarray(res["grid"])[:, 0], x):
            return "section grid differs from linspace(0, 1, grid_n)"
        reasons = check_section(params, x, res["fibers"], res["loci"])
        return next((r for r in reasons if r is not None), None)

    @staticmethod
    def check_equal(out: str, want: dict) -> str | None:
        got = json.loads(out)
        return None if got == want else f"report {got} differs from {want}"


def cli(rng, work: Path, runner) -> list[Op]:
    """One Op per command; runner(sub, argv) runs it cold and returns
    (exit code, stdout, stderr)."""
    commands = CliCommands(rng, work)
    ops = []
    for sub, argv, check in commands.commands:
        def run(out, sub=sub, argv=argv):
            return runner(sub, argv)

        def verify(result, check=check, argv=argv):
            code, out, err = result
            if code != 0:
                return [f"`branchspace {' '.join(argv)}` exited {code}: {err.strip()[-300:]}"]
            try:
                return [check(out)]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return [f"unreadable output of `branchspace {' '.join(argv)}`: {exc!r}"]

        ops.append(Op(f"cli.{sub} {' '.join(argv[1:])}", run, verify, 1))
    return ops


def run_command(root: Path, work: Path, argv: list[str], env: dict, launcher_spans: Path | None = None):
    """Run one cold CLI command in `work`; traced through the launcher
    when launcher_spans is given."""
    if launcher_spans is None:
        cmd = [sys.executable, "-m", "branchspace.cli", *argv]
    else:
        cmd = [sys.executable, str(root / "bench" / "cli_launcher.py"), str(launcher_spans), *argv]
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
