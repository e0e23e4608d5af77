"""Finite point configurations: ordered tuples, their permutation quotient,
and symmetrized functionals.

Points live in Euclidean R^d. An ordered configuration is a finite
sequence of points that are pairwise compatible under a symmetric relation
(default: distinctness).
The unordered quotient is represented canonically by sorting the points in
lexicographic coordinate order, so value equality of `Configuration` is
plain array equality.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
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


# A compatibility relation: a symmetric predicate on point pairs whose truth
# forces distinctness. None means distinct within tol_eq (Configuration's check).
Relation = Callable[[np.ndarray, np.ndarray], bool]


def default_relation(tol_eq: float = DEFAULT_TOL_EQ) -> Relation:
    """The default relation as a predicate: points are compatible iff they
    are distinct, i.e. further apart than tol_eq. Checking it pair by pair
    is the slow oracle of `relation=None`."""
    return lambda x, y: euclidean(x, y) > tol_eq


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting points lexicographically by coordinates."""
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    return np.lexsort(points.T[::-1])


@dataclass(frozen=True, eq=False)
class PointTuple:
    """A read-only (n, d) array of finite points of R^d, compared by
    identity."""

    points: np.ndarray

    def __post_init__(self):
        self._freeze(as_point_array(self.points))

    def _freeze(self, pts: np.ndarray) -> None:
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class OrderedConfiguration(PointTuple):
    """A finite indexed tuple of points with an attached compatibility
    relation (None: distinctness). Not validated on construction; see
    validate()/canonicalize()."""

    relation: Relation | None = None

    def permuted(self, sigma: Sequence[int]) -> "OrderedConfiguration":
        idx = np.asarray(sigma, dtype=np.intp)
        if sorted(idx.tolist()) != list(range(len(self))):
            raise ValueError("sigma is not a permutation of the index range")
        return OrderedConfiguration(self.points[idx], self.relation)


@dataclass(frozen=True, eq=False)
class Configuration(PointTuple):
    """Canonical representative of an unordered finite configuration.

    Points are stored sorted in lexicographic coordinate order, so two
    configurations are equal iff their point arrays are bitwise equal.
    """

    tol_eq: float = DEFAULT_TOL_EQ

    def __post_init__(self):
        _check_tol_eq(self.tol_eq)
        pts = as_point_array(self.points)
        self._freeze(pts[canonical_order(pts)])
        _check_distinct(self.points, self.tol_eq)

    @classmethod
    def from_points(cls, points, tol_eq: float = DEFAULT_TOL_EQ) -> "Configuration":
        return cls(as_point_array(points), tol_eq)

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
    """Reject coincident sorted points: no two adjacent rows may be equal
    (a kd-tree cannot split a pile of equal points), and then the closest
    pair, from a kd-tree query for each point's two nearest points, must be
    further apart than tol_eq."""
    n = points.shape[0]
    if n < 2:
        return
    same = np.flatnonzero(np.all(points[1:] == points[:-1], axis=1))
    if same.size:
        i, j = int(same[0]), int(same[0]) + 1
    else:
        dist, near = cKDTree(points).query(points, k=2)
        # a point at distance 0 from i (its square underflowed) may come first
        other = np.where(near[:, 0] == np.arange(n), near[:, 1], near[:, 0])
        i = int(np.argmin(dist[:, 1]))
        if dist[i, 1] > tol_eq:
            return
        i, j = sorted((i, int(other[i])))
    raise CompatibilityViolation(i, j, f"points {i} and {j} coincide within tol_eq={tol_eq:g}")


def _distinct_configuration(points: np.ndarray, tol_eq: float) -> Configuration:
    """Configuration(points, tol_eq); a violation names indices into points."""
    try:
        return Configuration(points, tol_eq)
    except CompatibilityViolation as err:
        order = canonical_order(points)
        i, j = sorted(int(order[k]) for k in err.pair)
        raise CompatibilityViolation(i, j) from None


def validate(points, relation: Relation | None = None) -> tuple[bool, tuple[int, int] | None]:
    """Check all unordered pairs against the relation.

    Returns (True, None) when every pair is compatible, otherwise
    (False, (i, j)) with i < j. With no relation the points must be
    distinct within DEFAULT_TOL_EQ, and the pair is a closest one; a
    relation passed in is checked pair by pair, and the pair is the first
    violating one in index order.
    """
    pts = as_point_array(points)
    if relation is None:
        try:
            _distinct_configuration(pts, DEFAULT_TOL_EQ)
            return True, None
        except CompatibilityViolation as err:
            return False, err.pair
    for i, j in itertools.combinations(range(pts.shape[0]), 2):
        if not relation(pts[i], pts[j]):
            return False, (i, j)
    return True, None


def canonicalize(
    o: OrderedConfiguration | np.ndarray | Sequence,
    relation: Relation | None = None,
    tol_eq: float = DEFAULT_TOL_EQ,
) -> Configuration:
    """Quotient an ordered configuration by permutations.

    All orderings of the same point multiset map to the identical canonical
    Configuration. Raises CompatibilityViolation with the offending pair of
    input indices when two points lie within tol_eq, or when a pair fails
    the relation (an OrderedConfiguration's own, if o is one)."""
    if isinstance(o, OrderedConfiguration):
        pts, relation = o.points, o.relation
    else:
        pts = as_point_array(o)
    if relation is not None:
        ok, pair = validate(pts, relation)
        if not ok:
            raise CompatibilityViolation(*pair)
    return _distinct_configuration(pts, tol_eq)


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
