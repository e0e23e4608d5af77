"""Branched paths: staged configurations of sampled path segments.

A segment is a curve sampled on the uniform grid t_k = k/m over [0, 1]
with endpoints alpha (start) and omega (end). A branched path is a
sequence of stages, each a set of mutually compatible segments, where the
set of stage-i endpoints equals the set of stage-(i+1) start points; the
points of one component of the within-tol_eq graph at a stage boundary, for
the path's own tol_eq, are one point. A junction is such a component that
holds both stage-i ends and stage-(i+1) starts; derivative sums of a test
function over its incoming and outgoing segments can be compared order by
order (truncated jets, one-sided finite differences).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import factorial, fsum, prod
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.sparse import coo_array
from scipy.spatial import cKDTree

from .config import DEFAULT_TOL_EQ, _check_integer, _check_positive, as_point_array, frozen
from .errors import EndpointMismatch, InsufficientResolution
from .hausdorff import hausdorff_distance

MIN_INTERVALS = 8
MAX_JET_ORDER = 5
DEFAULT_JET_ORDER = 3
JET_TOL = 1e-4

# One-sided stencils use order + _STENCIL_EXTRA points; the extra width
# keeps the truncation error at O(h^4), which the order-3 checks at
# m = 256 need to resolve residuals near 1e-5.
_STENCIL_EXTRA = 4


@dataclass(frozen=True, eq=False)
class PathSegment:
    """A curve sampled at t_k = k/m, m >= 8 intervals."""

    values: np.ndarray  # (m + 1, d)

    def __post_init__(self):
        vals = as_point_array(self.values)
        if vals.shape[0] < MIN_INTERVALS + 1:
            raise ValueError(f"segments need at least {MIN_INTERVALS} intervals")
        object.__setattr__(self, "values", frozen(vals))

    @classmethod
    def from_function(cls, fn: Callable[[float], Sequence[float]], m: int = 256) -> "PathSegment":
        _check_integer(m, "m")
        if m < MIN_INTERVALS:
            raise ValueError(f"m must be at least {MIN_INTERVALS}, got {m}")
        ts = np.arange(m + 1) / m
        return cls(np.asarray([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in ts]))

    @property
    def intervals(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def alpha(self) -> np.ndarray:
        return self.values[0]

    @property
    def omega(self) -> np.ndarray:
        return self.values[-1]

    def at(self, t: float) -> np.ndarray:
        """Value at parameter t by linear interpolation between samples."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter must lie in [0, 1]")
        return self._interp([t])[0]

    def resampled(self, m: int) -> "PathSegment":
        if m == self.intervals:
            return self
        return PathSegment(self._interp(np.arange(m + 1) / m))

    def _interp(self, ts) -> np.ndarray:
        src = np.arange(self.intervals + 1) / self.intervals
        return np.column_stack([np.interp(ts, src, self.values[:, j]) for j in range(self.dimension)])


def compose(g1: PathSegment, g2: PathSegment) -> PathSegment:
    """Groupoid composition: traverse g1 on [0, 1/2], then g2 on [1/2, 1].

    Requires omega(g1) = alpha(g2) within DEFAULT_TOL_EQ; the junction
    sample is their midpoint. alpha/omega of the result are g1's alpha and
    g2's omega, bitwise.
    """
    gap = float(np.linalg.norm(g1.omega - g2.alpha))
    if gap > DEFAULT_TOL_EQ:
        raise EndpointMismatch(gap)
    half = max(g1.intervals, g2.intervals)
    a = g1.resampled(half).values
    b = g2.resampled(half).values
    joint = 0.5 * (a[-1] + b[0])
    return PathSegment(np.vstack([a[:-1], joint[None, :], b[1:]]))


def _sample_distances(samples: np.ndarray, poly: np.ndarray) -> Iterator[float]:
    """Distance of each sample, in sample order, to the polyline `poly`."""
    a, b = poly[:-1], poly[1:]  # (k, d) segment endpoints
    ab = b - a
    denom = np.sum(ab**2, axis=1)
    denom[denom == 0.0] = 1.0
    for p in samples:
        t = np.clip(np.sum((p - a) * ab, axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        yield float(np.min(np.sqrt(np.sum((proj - p) ** 2, axis=1))))


def segments_compatible(g1: PathSegment, g2: PathSegment, tol_eq: float = DEFAULT_TOL_EQ) -> bool:
    """Two segments may share a stage unless they have the same image and
    the same (alpha, omega) pair. Image equality is decided at sampling
    resolution, and the scan stops at the first sample of either segment
    that lies further than tol_eq from the other's polyline."""
    _check_positive(tol_eq, "tol_eq")
    same_ends = (
        float(np.linalg.norm(g1.alpha - g2.alpha)) <= tol_eq
        and float(np.linalg.norm(g1.omega - g2.omega)) <= tol_eq
    )
    if not same_ends:
        return True
    forward, backward = _sample_distances(g1.values, g2.values), _sample_distances(g2.values, g1.values)
    return any(d > tol_eq for d in chain(forward, backward))


def _clusters(points: np.ndarray, tol_eq: float) -> np.ndarray:
    """Component label of each point in the graph joining points within tol_eq."""
    from scipy.sparse.csgraph import connected_components  # only branched paths pay its import

    pairs, n = cKDTree(points).query_pairs(tol_eq, output_type="ndarray"), points.shape[0]
    return connected_components(coo_array((np.ones(len(pairs)), pairs.T), shape=(n, n)), directed=False)[1]


@dataclass(frozen=True, eq=False)
class Junction:
    """A component at stage boundary i = `boundary` that holds stage-i ends
    and stage-(i+1) starts: `point` is its lowest-index end, `incoming` the
    stage-i segments that end in it, `outgoing` the stage-(i+1) segments
    that start in it, both in stage order."""

    boundary: int
    point: np.ndarray
    incoming: tuple[PathSegment, ...]
    outgoing: tuple[PathSegment, ...]


@dataclass(frozen=True, eq=False)
class BranchedPath:
    """Stages of segments, glued endpoint-configuration to start-configuration;
    every question asked of the path takes the points of one component of
    the within-tol_eq graph at a stage boundary as one point."""

    stages: tuple[tuple[PathSegment, ...], ...]
    tol_eq: float

    def __init__(self, stages: Sequence[Sequence[PathSegment]], tol_eq: float = DEFAULT_TOL_EQ):
        _check_positive(tol_eq, "tol_eq")
        object.__setattr__(self, "stages", tuple(tuple(stage) for stage in stages))
        object.__setattr__(self, "tol_eq", tol_eq)
        if not self.stages or any(len(s) == 0 for s in self.stages):
            raise ValueError("a branched path needs at least one nonempty stage")
        for i, stage in enumerate(self.stages):
            for j, g in enumerate(stage):
                if g.dimension != self.dimension:
                    raise ValueError(
                        f"segment {j} of stage {i} has dimension {g.dimension}, segment 0 of stage 0 has {self.dimension}"
                    )

    @property
    def dimension(self) -> int:
        return self.stages[0][0].dimension

    def _boundary(self, i: int) -> tuple[np.ndarray, int, np.ndarray]:
        """The stage-i ends then the stage-(i+1) starts (i = -1 and the last
        stage have one side), the number of ends, and each point's component."""
        ends = [g.omega for g in self.stages[i]] if i >= 0 else []
        starts = [g.alpha for g in self.stages[i + 1]] if i + 1 < len(self.stages) else []
        points = np.asarray(ends + starts)
        return points, len(ends), _clusters(points, self.tol_eq)

    # a configuration is the lowest-index point of each component, in index order
    def omega_config(self, i: int) -> np.ndarray:
        points, k, labels = self._boundary(i)
        return points[np.sort(np.unique(labels[:k], return_index=True)[1])]

    def alpha_config(self, i: int) -> np.ndarray:
        points, k, labels = self._boundary(i - 1)
        return points[k + np.sort(np.unique(labels[k:], return_index=True)[1])]

    def junctions(self) -> list[Junction]:
        """The junctions in boundary order, then in omega_config(i) order."""
        out = []
        for i in range(len(self.stages) - 1):
            points, k, labels = self._boundary(i)
            for e in np.sort(np.unique(labels[:k], return_index=True)[1]):
                incoming = tuple(g for g, c in zip(self.stages[i], labels[:k]) if c == labels[e])
                outgoing = tuple(g for g, c in zip(self.stages[i + 1], labels[k:]) if c == labels[e])
                if outgoing:
                    out.append(Junction(i, frozen(points[e]), incoming, outgoing))
        return out


@dataclass(frozen=True)
class BranchedPathReport:
    """Outcome of validate_branched: ok plus the first violation, if any."""

    ok: bool
    reason: str | None = None
    stage: int | None = None
    gap: float | None = None


def validate_branched(bp: BranchedPath) -> BranchedPathReport:
    """Check stage compatibility and the endpoint-gluing condition.

    Consecutive stages must satisfy: the configuration of stage-i
    endpoints equals the configuration of stage-(i+1) start points, as
    sets: every component of the within-bp.tol_eq graph at the boundary
    holds an end and a start (a failure's gap is their Hausdorff distance).
    """
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


# ---------------------------------------------------------------------------
# Truncated jets at junctions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2 * MAX_JET_ORDER)  # every jet order, forward and backward
def fd_weights(deriv: int, offsets: tuple[int, ...]) -> tuple[float, ...]:
    """Finite-difference weights on the integer offsets (in units of the
    step h): sum_j w_j f(x + o_j h) ~ h^deriv f^(deriv)(x). Weight j is
    deriv! [x^deriv] prod_{i!=j} (x - o_i) / prod_{i!=j} (o_j - o_i), a
    rational (Fornberg, Math. Comp. 51, 1988) computed in integers and
    rounded once."""
    if not 0 <= deriv < len(offsets):
        raise ValueError("the derivative order must be >= 0 and below the number of stencil points")
    weights = []
    for j, oj in enumerate(offsets):
        others = offsets[:j] + offsets[j + 1 :]
        poly = [1]  # coefficients of prod (x - o_i), lowest degree first
        for o in others:
            poly = [a - o * b for a, b in zip([0] + poly, poly + [0])]
        weights.append(factorial(deriv) * poly[deriv] / prod(oj - o for o in others))
    return tuple(weights)


def _one_sided_derivative(samples: np.ndarray, order: int, at_start: bool) -> float:
    """order-th derivative of a sampled scalar function at t=0 (forward
    stencil) or t=1 (backward stencil); the weighted samples are summed
    with fsum, so the result does not depend on summation order."""
    m = samples.shape[0] - 1
    sign, origin = (1, 0) if at_start else (-1, m)
    offsets = tuple(sign * o for o in range(order + _STENCIL_EXTRA))
    return fsum(w * samples[origin + o] for w, o in zip(fd_weights(order, offsets), offsets)) * m**order


@dataclass(frozen=True, eq=False)
class JetMatchResult:
    """Per-order residuals |sum of incoming derivatives - sum of outgoing
    derivatives| of f along the junction's segments. `passed` is True when
    every computed order is within tolerance; individual orders can be
    inspected in `residuals` (keyed by derivative order)."""

    passed: bool
    residuals: dict[int, float]
    tolerance: float
    junction: np.ndarray
    incoming: int
    outgoing: int


def jet_match(
    junction: Junction, f: Callable[[np.ndarray], float], order: int = DEFAULT_JET_ORDER
) -> JetMatchResult:
    """Compare derivative sums of f across a junction, orders 1..order.

    Incoming segments contribute one-sided derivatives at t=1, outgoing
    ones at t=0. The tolerance is JET_TOL scaled by max(1, max |f| over the
    involved samples). Orders above the sampling resolution raise
    InsufficientResolution. Rounding noise in the samples grows like
    m^order, so fine sampling fails first: a straight junction of x speed
    0.3 leaves 0.012 at order 5 for m = 256 and 0.0059 at order 4 for m = 1024.
    """
    _check_integer(order, "order")
    if not 1 <= order <= MAX_JET_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_JET_ORDER}")
    incoming, outgoing = junction.incoming, junction.outgoing

    min_m = min(g.intervals for g in incoming + outgoing)
    if min_m < 4 * order:
        raise InsufficientResolution(
            f"order-{order} jets need at least {4 * order} intervals, finest segment has {min_m}"
        )

    traces_in = [np.asarray([float(f(q)) for q in g.values]) for g in incoming]
    traces_out = [np.asarray([float(f(q)) for q in g.values]) for g in outgoing]
    scale = max(1.0, max(float(np.max(np.abs(tr))) for tr in traces_in + traces_out))
    tol = JET_TOL * scale

    residuals: dict[int, float] = {}
    for k in range(1, order + 1):
        d_in = sum(_one_sided_derivative(tr, k, at_start=False) for tr in traces_in)
        d_out = sum(_one_sided_derivative(tr, k, at_start=True) for tr in traces_out)
        residuals[k] = abs(d_in - d_out)
    return JetMatchResult(
        passed=all(r <= tol for r in residuals.values()),
        residuals=residuals,
        tolerance=tol,
        junction=junction.point,
        incoming=len(incoming),
        outgoing=len(outgoing),
    )


def coordinate_functions(dimension: int) -> list[Callable[[np.ndarray], float]]:
    return [(lambda q, j=j: float(q[j])) for j in range(dimension)]


# ---------------------------------------------------------------------------
# Demos and interchange
# ---------------------------------------------------------------------------

def make_split_loop(m: int = 256, final_offset: Sequence[float] = (0.0, 0.0)) -> BranchedPath:
    """A line segment that splits into the upper and lower unit half
    circles and rejoins into a line: stages {in}, {upper, lower}, {out}.

    `final_offset` translates the outgoing straight segment, which breaks
    the gluing condition and is useful for negative tests.
    """
    off = np.asarray(final_offset, dtype=float)
    g_in = PathSegment.from_function(lambda t: (t - 2.0, 0.0), m)
    g_up = PathSegment.from_function(lambda t: (np.cos(np.pi * (1.0 - t)), np.sin(np.pi * t)), m)
    g_dn = PathSegment.from_function(lambda t: (np.cos(np.pi * (1.0 - t)), -np.sin(np.pi * t)), m)
    g_out = PathSegment.from_function(lambda t: (t + 1.0 + off[0], 0.0 + off[1]), m)
    return BranchedPath([[g_in], [g_up, g_dn], [g_out]])


def branched_path_to_dict(bp: BranchedPath) -> dict:
    def seg_dict(g: PathSegment) -> dict:
        ts = np.arange(g.intervals + 1) / g.intervals
        return {"samples": [[float(t), v.tolist()] for t, v in zip(ts, g.values)]}

    return {"stages": [[seg_dict(g) for g in stage] for stage in bp.stages]}


def branched_path_from_dict(obj: dict) -> BranchedPath:
    stages = []
    for stage in obj["stages"]:
        segs = []
        for g in stage:
            samples = g["samples"]
            ts = np.asarray([s[0] for s in samples], dtype=float)
            m = len(samples) - 1
            if m < 1 or not np.allclose(ts, np.arange(m + 1) / m, atol=1e-12):
                raise ValueError("segment samples must sit on the uniform grid k/m")
            segs.append(PathSegment([s[1] for s in samples]))
        stages.append(segs)
    return BranchedPath(stages)


def branched_path_to_dot(bp: BranchedPath) -> str:
    """DOT digraph: nodes are junction configurations, edges are segments."""

    def fmt(points: np.ndarray) -> str:
        return "{" + "; ".join(",".join(f"{x:g}" for x in p) for p in points) + "}"

    nodes = [bp.alpha_config(0)] + [bp.omega_config(i) for i in range(len(bp.stages))]
    lines = ["digraph branched_path {"]
    for k, pts in enumerate(nodes):
        lines.append(f'  n{k} [label="{fmt(pts)}"];')
    for i, stage in enumerate(bp.stages):
        for j, _ in enumerate(stage):
            lines.append(f'  n{i} -> n{i + 1} [label="s{i}.{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
