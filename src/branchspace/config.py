"""Finite point configurations: ordered tuples, their permutation quotient,
and symmetrized functionals.

An ordered configuration is a finite sequence of points of R^d that are
pairwise compatible under a symmetric relation (default: distinctness).
The unordered quotient is represented canonically by sorting the points in
lexicographic coordinate order, so value equality of `Configuration` is
plain array equality.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import CompatibilityViolation, EmptyConfiguration, StratumTooLarge

DEFAULT_TOL_EQ = 1e-9


def as_point(p) -> np.ndarray:
    """Coerce a single point to a finite float vector."""
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("a point needs at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def as_point_array(points, dim: int | None = None) -> np.ndarray:
    """Coerce a sequence of points to a finite (n, d) float array."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        # allow a flat list of 1-d points
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {arr.shape}")
    if arr.shape[0] > 0 and arr.shape[1] == 0:
        raise ValueError("points need at least one coordinate")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def _check_tol_eq(tol_eq: float) -> None:
    if not 0.0 < tol_eq < math.inf:
        raise ValueError(f"tol_eq must be finite and positive, got {tol_eq!r}")


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


@dataclass(frozen=True)
class AmbientSpace:
    """The space the points live in: R^d with a pluggable metric.

    `bounds`, when given, is a (2, d) array of lower/upper corners of an
    axis-aligned box. The metric must satisfy the usual axioms; this is
    property-tested rather than enforced per call.
    """

    dimension: int
    metric: Callable[[np.ndarray, np.ndarray], float] = euclidean
    bounds: np.ndarray | None = None
    tol_eq: float = DEFAULT_TOL_EQ

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        _check_tol_eq(self.tol_eq)
        if self.bounds is not None:
            b = np.asarray(self.bounds, dtype=float).reshape(2, self.dimension)
            if not np.all(b[0] <= b[1]):
                raise ValueError("bounds lower corner must not exceed upper corner")
            object.__setattr__(self, "bounds", b)

    def distance(self, x, y) -> float:
        return self.metric(as_point(x), as_point(y))

    def contains(self, p) -> bool:
        if self.bounds is None:
            return True
        q = as_point(p)
        return bool(np.all(q >= self.bounds[0]) and np.all(q <= self.bounds[1]))


def euclidean_space(dimension: int, tol_eq: float = DEFAULT_TOL_EQ) -> AmbientSpace:
    return AmbientSpace(dimension=dimension, tol_eq=tol_eq)


@dataclass(frozen=True)
class CompatibilityRelation:
    """Symmetric predicate on point pairs whose truth forces distinctness."""

    predicate: Callable[[np.ndarray, np.ndarray], bool]
    name: str = "custom"

    def __call__(self, x, y) -> bool:
        return bool(self.predicate(as_point(x), as_point(y)))


def default_relation(
    tol_eq: float = DEFAULT_TOL_EQ,
    metric: Callable[[np.ndarray, np.ndarray], float] = euclidean,
) -> CompatibilityRelation:
    """The default relation: points are compatible iff they are distinct,
    i.e. further apart than tol_eq."""

    def pred(x, y):
        return metric(x, y) > tol_eq

    return CompatibilityRelation(pred, name=f"distinct(tol={tol_eq:g})")


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting points lexicographically by coordinates."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    return np.lexsort(points.T[::-1])


@dataclass(frozen=True, eq=False)
class OrderedConfiguration:
    """A finite indexed tuple of points with an attached compatibility
    relation. Not validated on construction; see validate()/canonicalize()."""

    points: np.ndarray
    relation: CompatibilityRelation = field(default_factory=default_relation)

    def __post_init__(self):
        pts = as_point_array(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def permuted(self, sigma: Sequence[int]) -> "OrderedConfiguration":
        idx = np.asarray(sigma, dtype=np.intp)
        if sorted(idx.tolist()) != list(range(len(self))):
            raise ValueError("sigma is not a permutation of the index range")
        return OrderedConfiguration(self.points[idx], self.relation)


@dataclass(frozen=True, eq=False)
class Configuration:
    """Canonical representative of an unordered finite configuration.

    Points are stored sorted in lexicographic coordinate order, so two
    configurations are equal iff their point arrays are bitwise equal.
    """

    points: np.ndarray
    tol_eq: float = DEFAULT_TOL_EQ

    def __post_init__(self):
        _check_tol_eq(self.tol_eq)
        pts = as_point_array(self.points)
        pts = pts[canonical_order(pts)]
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        _check_distinct(pts, self.tol_eq)

    @classmethod
    def from_points(cls, points, tol_eq: float = DEFAULT_TOL_EQ) -> "Configuration":
        return cls(as_point_array(points), tol_eq)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        return hash((self.points.shape, (self.points + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"Configuration(n={len(self)}, d={self.dimension})"


def _check_distinct(points: np.ndarray, tol_eq: float) -> None:
    """Reject coincident points: the closest pair, found by a kd-tree
    query for each point's two nearest points, must be further apart than
    tol_eq."""
    n = points.shape[0]
    if n < 2:
        return
    dist, near = cKDTree(points).query(points, k=2)
    # a point coincident with i may come back ahead of i itself
    other = np.where(near[:, 0] == np.arange(n), near[:, 1], near[:, 0])
    i = int(np.argmin(dist[:, 1]))
    if dist[i, 1] <= tol_eq:
        i, j = sorted((i, int(other[i])))
        raise CompatibilityViolation(i, j, f"points {i} and {j} coincide within tol_eq={tol_eq:g}")


def validate(
    points,
    relation: CompatibilityRelation | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Check all unordered pairs against the relation.

    Returns (True, None) when every pair is compatible, otherwise
    (False, (i, j)) with the first violating pair in index order.
    """
    rel = relation if relation is not None else default_relation()
    pts = as_point_array(points)
    n = pts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if not rel(pts[i], pts[j]):
                return False, (i, j)
    return True, None


def canonicalize(
    o: OrderedConfiguration | np.ndarray | Sequence,
    relation: CompatibilityRelation | None = None,
    tol_eq: float = DEFAULT_TOL_EQ,
) -> Configuration:
    """Quotient an ordered configuration by permutations.

    All orderings of the same point multiset map to the identical canonical
    Configuration. Raises CompatibilityViolation (with the offending index
    pair) when any pair fails the relation.
    """
    if isinstance(o, OrderedConfiguration):
        pts, rel = o.points, o.relation
    else:
        pts, rel = as_point_array(o), relation if relation is not None else default_relation(tol_eq)
    ok, pair = validate(pts, rel)
    if not ok:
        raise CompatibilityViolation(*pair)
    return Configuration(pts, tol_eq=tol_eq)


def symmetrize(
    f: Callable[[OrderedConfiguration], float],
    o: OrderedConfiguration,
    max_stratum: int = 9,
) -> float:
    """Average f over all n! orderings of o.

    The result is permutation invariant by construction. Guarded at
    n <= max_stratum because the enumeration is factorial.
    """
    n = len(o)
    if n > max_stratum:
        raise StratumTooLarge(f"stratum {n} exceeds the factorial guard {max_stratum}")
    total = 0.0
    count = 0
    for sigma in itertools.permutations(range(n)):
        total += float(f(OrderedConfiguration(o.points[list(sigma)], o.relation)))
        count += 1
    return total / count


def empirical_average(f: Callable[[np.ndarray], float], u: Configuration) -> float:
    """Mean of f over the points of u: the generating functional of the
    branched topology."""
    if len(u) == 0:
        raise EmptyConfiguration("empirical average of an empty configuration")
    return float(sum(float(f(p)) for p in u.points) / len(u))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def configuration_to_dict(u: Configuration) -> dict:
    """{"dim": d, "points": [[...], ...]} with points in canonical order."""
    return {"dim": u.dimension, "points": u.points.tolist()}


def configuration_from_dict(obj: dict, tol_eq: float = DEFAULT_TOL_EQ) -> Configuration:
    """Accepts points in any order; canonicalizes on load."""
    pts = as_point_array(obj["points"], dim=int(obj["dim"]))
    return Configuration(pts, tol_eq=tol_eq)


def read_json(path):
    """The JSON value stored in the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(obj, path) -> None:
    """Store obj in the file at path as one line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")
