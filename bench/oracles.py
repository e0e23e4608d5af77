"""Independent checks for the benchmark's outputs.

Nothing here imports branchspace: every expected value comes from numpy,
scipy.spatial.cKDTree, closed forms, or literature constants. Each check
returns None when the output passes and a one-line reason when it does
not, so a caller can count failures per operation.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.spatial import cKDTree

# Period-doubling parameters a_1..a_7 of the logistic cascade: a_1 = 3 and
# a_2 = 1 + sqrt(6) in closed form, a_3..a_7 published values. The checks
# use them to 1e-7 or coarser; successive gaps shrink by Feigenbaum's
# delta = 4.669 (Feigenbaum 1978), which a_7 - a_6 = (a_6 - a_5) / 4.669
# reproduces to 1e-8.
CASCADE = (
    3.0,
    1.0 + math.sqrt(6.0),
    3.5440903595519228536,
    3.5644072660954325977,
    3.5687594195446299,
    3.5696916098013960,
    3.5698912593780,
)
# Share of the gap to the next doubling within which either period is
# accepted: convergence there is too slow to resolve the period reliably.
DOUBLING_MARGIN = 1e-3
# How far |multiplier| may exceed 1 through rounding in the cycle product.
MULTIPLIER_SLACK = 1e-9
# Finite-time Lyapunov verdicts: above +LYAP_CLEAR the attractor is
# chaotic, below -LYAP_CLEAR it is periodic; in between no verdict.
LYAP_CLEAR = 0.02
LYAP_BURN = 4096
LYAP_STEPS = 32768
HAUSDORFF_GATE = 1e-12
RADIUS_GATE = 1e-12


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

def min_separation(points: np.ndarray) -> float:
    """Smallest distance between two points, by a k=2 kd-tree query."""
    d, _ = cKDTree(points).query(points, k=2)
    return float(np.min(d[:, 1]))


def check_distinct(points: np.ndarray, tol_eq: float) -> str | None:
    sep = min_separation(points)
    if sep <= tol_eq:
        return f"points closer than tol_eq={tol_eq:g} (min separation {sep:.3g})"
    return None


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance by nearest-neighbour queries in both directions."""
    d_ab = cKDTree(b).query(a, k=1)[0]
    d_ba = cKDTree(a).query(b, k=1)[0]
    return float(max(np.max(d_ab), np.max(d_ba)))


def check_distance(got: float, want: float) -> str | None:
    if not _rel_err(got, want) <= HAUSDORFF_GATE:
        return f"distance {got!r} differs from the kd-tree value {want!r}"
    return None


def canonical(points: np.ndarray) -> np.ndarray:
    """Points in lexicographic coordinate order."""
    return points[np.lexsort(points.T[::-1])]


def check_canonical(stored: np.ndarray, given: np.ndarray) -> str | None:
    if stored.shape != given.shape or not np.array_equal(stored, canonical(given)):
        return "stored points are not the lexicographically sorted input"
    return None


def chart_radii(points: np.ndarray) -> np.ndarray:
    """Half the distance from each point to its nearest other point."""
    d, _ = cKDTree(points).query(points, k=2)
    return 0.5 * d[:, 1]


def check_radii(radii: np.ndarray, want: np.ndarray) -> str | None:
    radii = np.asarray(radii, dtype=float)
    if radii.shape != want.shape:
        return f"{radii.shape[0]} radii for {want.shape[0]} points"
    err = np.abs(radii - want) / np.maximum(1.0, want)
    if not np.all(err <= RADIUS_GATE):
        i = int(np.argmax(err))
        return f"radius {i} is {radii[i]!r}, half the k=2 distance is {want[i]!r}"
    return None


def check_chart_image(base: np.ndarray, radii: np.ndarray, z: np.ndarray, image: np.ndarray) -> str | None:
    """The image of z keeps each point strictly inside its own ball, at
    distance radius * |z| from its centre."""
    if image.shape != base.shape:
        return "image shape differs from the base"
    off = np.sqrt(np.sum((image - base) ** 2, axis=1))
    want = radii * np.sqrt(np.sum(z**2, axis=1))
    scale = np.abs(base).max(axis=1) + radii
    if not np.all(off < radii):
        return "an image point left its chart ball"
    if not np.all(np.abs(off - want) <= 8 * np.finfo(float).eps * scale):
        return "an image point is not at radius * |z| from its centre"
    return None


def check_roundtrip(base: np.ndarray, radii: np.ndarray, z: np.ndarray, z_back: np.ndarray) -> str | None:
    """chart_invert(chart_apply(z)) returns z up to the rounding of
    (u + r z - u) / r, which is a few ulps of |u| / r."""
    z_back = np.asarray(z_back, dtype=float)
    if z_back.shape != z.shape:
        return "inverse returned the wrong shape"
    tol = 8 * np.finfo(float).eps * (np.abs(base).max(axis=1) + radii) / radii
    err = np.max(np.abs(z_back - z), axis=1)
    if not np.all(err <= tol):
        i = int(np.argmax(err / tol))
        return f"round trip moved coordinate {i} by {err[i]:.3g}"
    return None


# ---------------------------------------------------------------------------
# Logistic orbits
# ---------------------------------------------------------------------------

def logistic_step(a, x):
    return a * x * (1.0 - x)


def cascade_periods(a: float) -> tuple[int, ...]:
    """Attractor periods allowed at a in [2.5, a_7): 2^k between a_k and
    a_(k+1), either neighbour within the margin around a doubling."""
    k = sum(1 for ak in CASCADE if ak <= a)
    if k >= len(CASCADE):
        raise ValueError(f"{a} lies beyond a_7; the period would exceed 64")
    periods = {2**k}
    for j, ak in enumerate(CASCADE[:-1]):
        gap = CASCADE[j + 1] - ak
        if abs(a - ak) <= DOUBLING_MARGIN * gap:
            periods.update((2**j, 2 ** (j + 1)))
    return tuple(sorted(periods))


def check_orbit(a: float, points, orbit_tol: float, periods: tuple[int, ...] | None = None) -> str | None:
    """An attracting primitive cycle of x -> a x (1 - x).

    Every step maps a point to the next within orbit_tol, some point
    returns to itself after p steps within orbit_tol, no proper divisor
    of p closes the cycle, the first point is the smallest, and the cycle
    multiplier has modulus at most 1.
    """
    x = np.asarray(points, dtype=float)
    p = x.shape[0]
    if p == 0:
        return "empty orbit"
    if periods is not None and p not in periods:
        return f"period {p} at a={a!r}, expected {' or '.join(map(str, periods))}"
    if np.argmin(x) != 0:
        return "orbit does not start at its smallest point"
    step = np.abs(logistic_step(a, x) - np.roll(x, -1))
    if not np.all(step <= orbit_tol):
        return f"orbit points do not follow the map (step error {np.max(step):.3g})"
    y = x.copy()
    for _ in range(p):
        y = logistic_step(a, y)
    if not np.min(np.abs(y - x)) <= orbit_tol:
        return f"no point returns after {p} steps within {orbit_tol:g}"
    for q in range(1, p):
        if p % q == 0 and np.max(np.abs(np.roll(x, -q) - x)) <= orbit_tol:
            return f"period {p} is not primitive: the cycle closes after {q}"
    mult = float(np.prod(a * (1.0 - 2.0 * x)))
    if abs(mult) > 1.0 + MULTIPLIER_SLACK:
        return f"not an attractor: multiplier {mult:.6g}"
    return None


def lyapunov(params) -> np.ndarray:
    """Finite-time Lyapunov exponents, mean of log|a (1 - 2x)| along an
    orbit from x0 = 0.3, one per parameter, iterated as one vector."""
    a = np.asarray(params, dtype=float)
    x = np.full_like(a, 0.3)
    for _ in range(LYAP_BURN):
        x = a * x * (1.0 - x)
    acc = np.zeros_like(a)
    with np.errstate(divide="ignore"):
        for _ in range(LYAP_STEPS):
            acc += np.log(np.abs(a * (1.0 - 2.0 * x)))
            x = a * x * (1.0 - x)
    return acc / LYAP_STEPS


@functools.lru_cache(maxsize=None)
def attractor_period(a: float, max_period: int = 64) -> int | None:
    """Period of the attractor reached from x0 = 0.3 after 10^6 steps, if
    it is at most max_period; None otherwise."""
    x = 0.3
    for _ in range(1_000_000):
        x = a * x * (1.0 - x)
    window = np.empty(5 * max_period)
    for k in range(window.shape[0]):
        window[k] = x
        x = a * x * (1.0 - x)
    for p in range(1, max_period + 1):
        if np.max(np.abs(window[p:] - window[:-p])) <= 1e-7:
            return p
    return None


def check_verdict(a: float, points, lyap: float, orbit_tol: float) -> str | None:
    """One parameter of a sweep: points is the orbit, or None for a
    chaotic verdict. A clearly positive exponent requires chaos; a clearly
    negative one requires a periodic orbit unless the attractor's period
    exceeds 64, which the program reports as chaos. Every orbit returned
    must pass check_orbit."""
    if points is None:
        if lyap < -LYAP_CLEAR:
            p = attractor_period(a)
            if p is not None:
                return f"chaotic verdict at a={a!r}, where the attractor has period {p}"
        return None
    if lyap > LYAP_CLEAR:
        return f"period-{len(points)} orbit at a={a!r} with Lyapunov exponent {lyap:.3g}"
    return check_orbit(a, points, orbit_tol)


def group_rows(params, rows) -> list[list[float] | None]:
    """Split (parameter, orbit point) rows into one orbit per parameter
    of the sweep, None where the sweep emitted no row."""
    out: list[list[float] | None] = [None] * len(params)
    i = 0
    for k, a in enumerate(params):
        pts = []
        while i < len(rows) and rows[i][0] == a:
            pts.append(rows[i][1])
            i += 1
        out[k] = pts or None
    if i != len(rows):
        raise ValueError(f"row {i} has a parameter outside the sweep")
    return out


def period_two_branches(a: np.ndarray) -> np.ndarray:
    """Closed-form period-2 orbit (lower, upper) for 3 < a < 1 + sqrt(6)."""
    a = np.asarray(a, dtype=float)
    root = np.sqrt((a + 1.0) * (a - 3.0))
    return np.stack([(a + 1.0 - root) / (2.0 * a), (a + 1.0 + root) / (2.0 * a)])


def check_loci(params, fibers, loci, grid_x) -> str | None:
    """Branch loci of an equilibrium section over an increasing field:
    one per change of fiber cardinality, each a doubling whose parameter
    value is the literature a_k and whose location is where the field
    crosses it."""
    want = []
    for i in range(len(fibers) - 1):
        n0, n1 = len(fibers[i]), len(fibers[i + 1])
        if n0 != n1:
            want.append((i, n0, n1))
    if len(loci) != len(want):
        return f"{len(loci)} loci for {len(want)} cardinality changes"
    for locus, (i, n0, n1) in zip(loci, want):
        if (locus["cardinality_before"], locus["cardinality_after"]) != (n0, n1):
            return f"locus at interval {i} reports {locus['cardinality_before']}->{locus['cardinality_after']}"
        if n1 != 2 * n0:
            return f"cardinality jump {n0}->{n1} is not a doubling"
        ak = CASCADE[int(math.log2(n1)) - 1]
        if abs(locus["parameter_value"] - ak) > 1e-7:
            return f"locus parameter {locus['parameter_value']!r}, literature a_k {ak!r}"
        a0, a1 = params[i], params[i + 1]
        x = grid_x[i] + (ak - a0) / (a1 - a0) * (grid_x[i + 1] - grid_x[i])
        if abs(locus["base_location"][0] - x) > 1e-6:
            return f"locus at {locus['base_location'][0]!r}, the field crosses a_k at {x!r}"
    return None


# ---------------------------------------------------------------------------
# Grid frames
# ---------------------------------------------------------------------------

def support_ring(region: np.ndarray) -> np.ndarray:
    """Face-adjacent one-cell ring around a 2-D mask, by array shifts."""
    grown = region.copy()
    grown[1:, :] |= region[:-1, :]
    grown[:-1, :] |= region[1:, :]
    grown[:, 1:] |= region[:, :-1]
    grown[:, :-1] |= region[:, 1:]
    return grown & ~region


def volume_report(frames, region: np.ndarray, tol_supp: float) -> dict:
    """Expected constant-volume report: support cells inside the region
    and ring clearance per frame, and the first in-run volume change."""
    ring = support_ring(region)
    cells = [int(np.count_nonzero((np.abs(f) > tol_supp) & region)) for f in frames]
    clear = [not bool(np.any(np.abs(f[ring]) > tol_supp)) for f in frames]
    violating, base = None, None
    for j, (c, ok) in enumerate(zip(cells, clear)):
        if not ok:
            base = None
        elif base is None:
            base = c
        elif c != base:
            violating = j
            break
    return {
        "ok": violating is None,
        "violating_step": violating,
        "cells_in_region": cells,
        "ring_clear": clear,
    }
