import numpy as np
import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument

from scipy.spatial import cKDTree

from branchspace import (
    BranchedPath,
    BranchedPathReport,
    Configuration,
    Junction,
    LengthMismatch,
    NonConstantCardinality,
    NotInDomain,
    PathSegment,
    hausdorff_distance,
)
from branchspace.config import DEFAULT_TOL_EQ, as_point_array, frozen
from branchspace.paths import segments_compatible
from branchspace.sections import GAP_RATIO, Decomposition, ThreadingWitness

# `--hypothesis-profile=ci` (the CI tier-1 step): a failing property prints
# its @reproduce_failure blob. Where Hypothesis has a "ci" profile of its
# own, its other settings are kept.
try:
    _ci = settings.get_profile("ci")
except InvalidArgument:
    _ci = None
settings.register_profile("ci", parent=_ci, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_configuration(rng, n: int, dim: int, scale: float = 10.0) -> Configuration:
    """Random configuration with a controlled minimum separation: points
    on a jittered lattice, so tolerance-sensitive checks stay meaningful."""
    side = int(np.ceil(n ** (1.0 / dim)))
    cells = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    take = rng.permutation(cells.shape[0])[:n]
    spacing = scale / side
    pts = cells[take] * spacing + rng.uniform(0.2, 0.8, size=(n, dim)) * spacing
    return Configuration(pts)


def segment_image_distance(s1: PathSegment, s2: PathSegment) -> float:
    """Symmetric distance between segment images as polylines: max over
    the samples of one of the distance to the other's polyline. The oracle
    of `paths.segments_compatible`, which only decides whether it exceeds
    tol_eq."""
    return max(_samples_to_polyline(s1.values, s2.values), _samples_to_polyline(s2.values, s1.values))


def _samples_to_polyline(samples: np.ndarray, poly: np.ndarray) -> float:
    a, b = poly[:-1], poly[1:]  # (k, d) segment endpoints
    ab = b - a
    denom = np.sum(ab**2, axis=1)
    denom[denom == 0.0] = 1.0
    worst = 0.0
    for p in samples:
        t = np.clip(np.sum((p - a) * ab, axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        worst = max(worst, float(np.min(np.sqrt(np.sum((proj - p) ** 2, axis=1)))))
    return worst


def validate_branched_loop(bp: BranchedPath) -> BranchedPathReport:
    """Every pair of segments of a stage compared in (a, b) order, then the
    gluing condition: the oracle of `paths.validate_branched`, which compares
    only the pairs whose ends a kd-tree finds within tol_eq."""
    for i, stage in enumerate(bp.stages):
        for a in range(len(stage)):
            for b in range(a + 1, len(stage)):
                if not segments_compatible(stage[a], stage[b], bp.tol_eq):
                    return BranchedPathReport(
                        False, f"segments {a} and {b} of stage {i} are incompatible", i, None
                    )
    for i in range(len(bp.stages) - 1):
        _, k, labels = bp._boundary(i)
        if not np.array_equal(np.unique(labels[:k]), np.unique(labels[k:])):
            return BranchedPathReport(
                False,
                f"stage {i} endpoints do not match stage {i + 1} start points",
                i,
                hausdorff_distance(bp.omega_config(i), bp.alpha_config(i + 1)),
            )
    return BranchedPathReport(True)


def junctions_loop(bp: BranchedPath) -> list[Junction]:
    """Both stages of a boundary scanned once per component of an end: the
    oracle of `BranchedPath.junctions`, which files each segment under its
    component in one pass."""
    out = []
    for i in range(len(bp.stages) - 1):
        points, k, labels = bp._boundary(i)
        for e in np.sort(np.unique(labels[:k], return_index=True)[1]):
            incoming = tuple(g for g, c in zip(bp.stages[i], labels[:k]) if c == labels[e])
            outgoing = tuple(g for g, c in zip(bp.stages[i + 1], labels[k:]) if c == labels[e])
            if outgoing:
                out.append(Junction(i, frozen(points[e]), incoming, outgoing))
    return out


def revisit_path(m=64):
    """A -> B, B -> C, C -> B, B -> A with A = (0, 0), B = (1, 0), C = (1, 1):
    B is the junction of boundaries 0 and 2. At boundary 0 the x speeds
    match (1 in, 1 out); at boundary 2 they do not (0 in, -1 out)."""
    return BranchedPath([
        [PathSegment.from_function(lambda t: (t, 0.0), m)],
        [PathSegment.from_function(lambda t: (1.0 + t * (1.0 - t), t), m)],
        [PathSegment.from_function(lambda t: (1.0, 1.0 - t), m)],
        [PathSegment.from_function(lambda t: (1.0 - t, 0.0), m)],
    ])


def dyadic_split_loop(m=256):
    """The split loop with parabolic arcs: a line into (-1, 0), the arcs
    (x, +-(1 - x^2)) with x = 2t - 1, and a line out of (1, 0). For m a
    power of two every sample is a dyadic rational computed exactly, with
    no libm call, so its JSON bytes are fixed."""
    return BranchedPath([
        [PathSegment.from_function(lambda t: (t - 2.0, 0.0), m)],
        [PathSegment.from_function(lambda t, s=s: (2.0 * t - 1.0, s * (1.0 - (2.0 * t - 1.0) ** 2)), m) for s in (1.0, -1.0)],
        [PathSegment.from_function(lambda t: (t + 1.0, 0.0), m)],
    ])


def decompose_oracle(sample):
    """Nearest-continuation threading one selection at a time, with a full
    sort of the next fiber per selection: the oracle of
    `sections.decompose_or_witness`, which matches consecutive fibers rank
    by rank."""
    cards = sample.cardinalities()
    if any(c is None for c in cards):
        raise NonConstantCardinality("chaotic fibers present; restrict to a periodic run first")
    n = cards[0]
    if any(c != n for c in cards):
        raise NonConstantCardinality(f"cardinalities vary: {sorted(set(cards))}")

    fibers = [f.points[:, 0] for f in sample.fibers]
    count = len(fibers)
    sel = np.empty((n, count))
    sel[:, 0] = fibers[0]
    for j in range(count - 1):
        nxt = fibers[j + 1]
        taken = np.zeros(n, dtype=bool)
        for k in range(n):
            d = np.abs(nxt - sel[k, j])
            order = np.argsort(d, kind="stable")
            best = int(order[0])
            if n >= 2:
                d1, d2 = float(d[order[0]]), float(d[order[1]])
                if d1 > 0.0 and d2 < GAP_RATIO * d1:
                    return Decomposition(
                        None,
                        ThreadingWitness(
                            j, k, d1, d2, "second-best continuation below the gap ratio"
                        ),
                    )
            if taken[best]:
                return Decomposition(
                    None,
                    ThreadingWitness(
                        j, k, float(d[best]), float("nan"), "two selections claim one fiber point"
                    ),
                )
            taken[best] = True
            sel[k, j + 1] = nxt[best]
    return Decomposition(sel, None)


def constant_volume_oracle(cells, clear):
    """The first violating step of the constant-volume condition, by a
    baseline tracked per run of ring-clear frames: the oracle of
    `measure.validate_constant_volume_path`, which compares neighbours."""
    baseline = None
    for j, (c, ok) in enumerate(zip(cells, clear)):
        if not ok:
            baseline = None
            continue
        if baseline is None:
            baseline = c
        elif c != baseline:
            return j
    return None


def ball_assignment_loop(c, v):
    """Each chart ball's point, matched point by point in a Python loop:
    the oracle of `charts.ball_assignment`, which finds the first point
    outside every ball or sharing one with numpy."""
    pts = as_point_array(v)
    if pts.shape[0] != len(c):
        raise LengthMismatch(f"expected {len(c)} points, got {pts.shape[0]}")
    d, near = cKDTree(c.base.points).query(pts)
    r = c.radii[near]
    on_boundary = np.abs(d - r) <= DEFAULT_TOL_EQ
    if np.any(on_boundary):
        j = int(np.argmax(on_boundary))
        raise NotInDomain(f"point {j} lies on the boundary of ball {near[j]} within tol_eq")
    inside = d < r
    pi = np.full(len(c), -1, dtype=np.intp)
    for j, i in enumerate(near.tolist()):
        if not inside[j]:
            raise NotInDomain(f"point {j} lies in no chart ball")
        if pi[i] >= 0:
            raise NotInDomain(f"points {int(pi[i])} and {j} both fall in ball {i}")
        pi[i] = j
    return pi
