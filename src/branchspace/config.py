"""Finite point configurations: ordered tuples, their permutation quotient,
each point's separation from the rest, and symmetrized functionals.

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

from .errors import CompatibilityViolation, EmptyConfiguration, SingletonConfiguration, StratumTooLarge

DEFAULT_TOL_EQ = 1e-9
MAX_STRATUM = 9


def frozen(values) -> np.ndarray:
    """A read-only float copy of values: every array an object stores is
    one, so no caller's array can change the object after construction."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def as_point(p) -> np.ndarray:
    """Coerce a single point to a finite float vector."""
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("a point needs at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def as_point_array(points, dim: int | None = None) -> np.ndarray:
    """Coerce a point tuple or a sequence of points to a finite (n, d) float array."""
    arr = points.points if isinstance(points, PointTuple) else np.asarray(points, dtype=float)
    if arr.ndim == 1:
        # a flat list of 1-d points; an empty one takes a valid dim it is given
        arr = arr.reshape((0, dim) if arr.size == 0 and dim is not None and dim > 0 else (-1, 1))
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, d) array of points, got shape {arr.shape}")
    if arr.shape[0] > 0 and arr.shape[1] == 0:
        raise ValueError("points need at least one coordinate")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def _check_positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


# A compatibility relation: a symmetric predicate on point pairs whose truth
# forces distinctness. An OrderedConfiguration without one asks only for
# distinctness within tol_eq (Configuration's check).
Relation = Callable[[np.ndarray, np.ndarray], bool]


def default_relation(tol_eq: float = DEFAULT_TOL_EQ) -> Relation:
    """The default relation as a predicate: points are compatible iff they
    are distinct, i.e. further apart than tol_eq. Checking it pair by pair
    is the slow oracle of the distinctness check."""
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
        object.__setattr__(self, "points", frozen(as_point_array(self.points)))

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
        _check_positive(self.tol_eq, "tol_eq")
        pts = as_point_array(self.points)
        object.__setattr__(self, "points", frozen(pts[canonical_order(pts)]))
        _check_distinct(self.points, self.tol_eq)

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


def separations(u) -> np.ndarray:
    """Distance from each point to the rest of the configuration, 0 for a
    point with an exact copy."""
    pts = as_point_array(u)
    if pts.shape[0] < 2:
        raise SingletonConfiguration("separation needs at least two points")
    order = canonical_order(pts)
    out = np.empty(pts.shape[0])
    out[order] = _sorted_separations(pts[order])
    return out


def _sorted_separations(rows: np.ndarray) -> np.ndarray:
    """separations of at least two rows already in canonical order.

    A kd-tree cannot split a pile of equal points, so the rows equal to
    their neighbour are collapsed first and one query runs over the
    distinct rows only: O(n log n) at every n."""
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    pile = np.cumsum(new) - 1  # each row's distinct row
    distinct = rows[new]
    dist, _ = cKDTree(distinct).query(distinct, k=2)
    sep = dist[:, 1]
    sep[np.bincount(pile) > 1] = 0.0
    return sep[pile]


def _check_distinct(points: np.ndarray, tol_eq: float) -> None:
    """Reject coincident points among rows in canonical order: the point of
    least separation must be further than tol_eq from the rest. Otherwise
    its pair with its nearest point is reported, i < j; for a pile of
    equal sorted points that is the pile's first two rows."""
    if points.shape[0] < 2:
        return
    sep = _sorted_separations(points)
    i = int(np.argmin(sep))
    if sep[i] > tol_eq:
        return
    dist = np.sqrt(np.sum((points - points[i]) ** 2, axis=1))
    dist[i] = math.inf
    i, j = sorted((i, int(np.argmin(dist))))
    raise CompatibilityViolation(i, j, f"points {i} and {j} coincide within tol_eq={tol_eq:g}")


def validate(points) -> tuple[bool, tuple[int, int] | None]:
    """Check all unordered pairs of points.

    Returns (True, None) when every pair is compatible, otherwise
    (False, (i, j)) with i < j. An OrderedConfiguration with a relation is
    checked against it pair by pair, and the pair is the first violating
    one in index order. Otherwise the points must be distinct within
    DEFAULT_TOL_EQ, and the pair is a closest one.
    """
    pts = as_point_array(points)
    relation = points.relation if isinstance(points, OrderedConfiguration) else None
    if relation is not None:
        for i, j in itertools.combinations(range(pts.shape[0]), 2):
            if not relation(pts[i], pts[j]):
                return False, (i, j)
        return True, None
    try:
        canonicalize(pts)
    except CompatibilityViolation as err:
        return False, err.pair
    return True, None


def canonicalize(
    o: OrderedConfiguration | np.ndarray | Sequence, tol_eq: float = DEFAULT_TOL_EQ
) -> Configuration:
    """Quotient an ordered configuration by permutations.

    All orderings of the same point multiset map to the identical canonical
    Configuration. Raises CompatibilityViolation with the offending pair of
    input indices when two points lie within tol_eq, or when a pair fails
    the relation of an OrderedConfiguration."""
    if isinstance(o, OrderedConfiguration) and o.relation is not None:
        ok, pair = validate(o)
        if not ok:
            raise CompatibilityViolation(*pair)
    pts = as_point_array(o)
    try:
        return Configuration(pts, tol_eq)
    except CompatibilityViolation as err:
        order = canonical_order(pts)
        raise CompatibilityViolation(*sorted(int(order[k]) for k in err.pair)) from None


def symmetrize(f: Callable[[OrderedConfiguration], float], o: OrderedConfiguration) -> float:
    """Average f over all n! orderings of o.

    The result is permutation invariant by construction. Guarded at
    n <= MAX_STRATUM because the enumeration is factorial.
    """
    n = len(o)
    if n > MAX_STRATUM:
        raise StratumTooLarge(f"stratum {n} exceeds the factorial guard {MAX_STRATUM}")
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
