"""Manifold-style charts around locally finite configurations.

Each point of a configuration gets a radius equal to half its separation
(distance to the rest of the configuration). Mapping unit-ball coordinates
z_i to u_i + eps_i * z_i then moves every point inside its own ball; the
balls of radius eps_i are pairwise disjoint and the doubled balls contain
no other point of the configuration, so the image is always a valid
configuration and the map inverts uniquely on its domain. Transition maps
between overlapping charts are blockwise affine.

Infinite locally finite configurations are represented by their
restriction to a compact window, which is where all computations happen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from .config import (
    _MIN_RADIUS, DEFAULT_TOL_EQ, PointTuple, _check_positive, _numeric, _points_from_dict, _sorted_separations,
    as_point_array, canonical_order, configuration_to_dict, frozen, separations
)
from .errors import (
    DuplicatePoints,
    LengthMismatch,
    NotInDomain,
    NotInOverlap,
    OutOfUnitBall,
    SingletonConfiguration,
)

# Chart.verify's relative allowance for rounding when 2 eps_i equals sep_i
_VERIFY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class LocallyFiniteConfiguration(PointTuple):
    """A finite window onto a locally finite configuration.

    Point order is meaningful here (charts are indexed per point), so no
    canonicalization happens.
    """


@dataclass(frozen=True, eq=False)
class Chart:
    """Per-point radii eps_i over a base configuration.

    Invariants (checked on construction): all radii positive, the open
    balls B(u_i, eps_i) are pairwise disjoint, and B(u_i, 2 eps_i) contains
    no other point of the base. A base given as an array is stored as a
    LocallyFiniteConfiguration.
    """

    base: PointTuple
    radii: np.ndarray

    def __post_init__(self):
        self._store(self.base, self.radii)

    def _store(self, base, radii, sep: np.ndarray | None = None) -> "Chart":
        """Store and check base and radii, against sep when it is given."""
        if not isinstance(base, PointTuple):
            base = LocallyFiniteConfiguration(base)
        r = frozen(np.ravel(radii))
        if r.shape[0] != len(base):
            raise LengthMismatch("one radius per base point required")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "radii", r)
        ok, why = self.verify() if sep is None else self._verify(sep)
        if not ok:
            raise ValueError(f"invalid chart radii: {why}")
        return self

    def __len__(self) -> int:
        return len(self.base)

    def verify(self) -> tuple[bool, str | None]:
        """Check the radius invariants, with a relative _VERIFY_SLACK for
        equality cases (radii from build_chart sit exactly on the bounds)."""
        return self._verify(separations(self.base) if len(self.base) >= 2 else None)

    def _verify(self, sep: np.ndarray | None) -> tuple[bool, str | None]:
        r = self.radii
        if not np.all(r > 0):
            return False, "radii must be strictly positive"
        # 2 eps_i <= sep_i for every i also makes the balls disjoint:
        # eps_i + eps_j <= (sep_i + sep_j) / 2 <= |u_i - u_j|.
        if sep is not None and np.any(2.0 * r > sep * (1.0 + _VERIFY_SLACK)):
            return False, "a doubled ball B(u_i, 2 eps_i) captures another base point"
        return True, None


def build_chart(u, tol_eq: float = DEFAULT_TOL_EQ) -> Chart:
    """Chart with the canonical radii eps_i = separation_i / 2.

    In the flat ambient space the supremum defining the chart radius is
    attained exactly at the separation, so this is closed form.
    """
    _check_positive(tol_eq, "tol_eq")
    pts = as_point_array(u)
    if pts.shape[0] < 2:
        raise SingletonConfiguration("charts need at least two points")
    sep = separations(pts)
    i = int(np.argmin(sep))
    if sep[i] > tol_eq:  # the invariants are checked against sep, with no second search
        return Chart.__new__(Chart)._store(u, sep / 2.0, sep)
    raise DuplicatePoints(f"point {i} has a neighbor within tol_eq={tol_eq:g}")


def chart_apply(c: Chart, z) -> LocallyFiniteConfiguration:
    """Map unit-ball coordinates through the chart: u_i + eps_i * z_i.

    Every ||z_i|| must be < 1. The image is verified pairwise distinct
    (guaranteed by ball disjointness, so a failure means degenerate
    floating-point input): the check asks only whether two image points
    are 0 apart, so its kd-tree search stops at the least radius.
    """
    zz = as_point_array(z, dim=c.base.dimension)
    if zz.shape[0] != len(c):
        raise LengthMismatch(f"expected {len(c)} coordinates, got {zz.shape[0]}")
    norms = np.sqrt(np.sum(zz**2, axis=1))
    if np.any(norms >= 1.0):
        i = int(np.argmax(norms >= 1.0))
        raise OutOfUnitBall(f"coordinate {i} has norm {norms[i]:.6g} >= 1")
    out = c.base.points + c.radii[:, None] * zz
    if out.shape[0] >= 2 and np.min(_sorted_separations(out[canonical_order(out)], _MIN_RADIUS)) <= 0.0:
        raise DuplicatePoints("chart image degenerated to coincident points")
    return LocallyFiniteConfiguration(out)


def ball_assignment(c: Chart, v) -> np.ndarray:
    """Match each chart ball to the unique point of v inside it.

    Returns pi with pi[i] = index into v of the point in ball i. Raises
    NotInDomain when a point lies in no ball, two points share a ball, or
    a point sits on a ball boundary within DEFAULT_TOL_EQ (the open domain
    excludes boundaries, so membership would be ambiguous).
    """
    pts = as_point_array(v)
    if pts.shape[0] != len(c):
        raise LengthMismatch(f"expected {len(c)} points, got {pts.shape[0]}")
    # 2 eps_i <= sep_i puts a point that lies in or on ball i at least
    # eps_i from every other base point, so only the ball of its nearest
    # base point can hold it or pass through it
    d, near = cKDTree(c.base.points).query(pts)
    r = c.radii[near]
    on_boundary = np.abs(d - r) <= DEFAULT_TOL_EQ
    if np.any(on_boundary):
        j = int(np.argmax(on_boundary))
        raise NotInDomain(f"point {j} lies on the boundary of ball {near[j]} within tol_eq")
    inside = d < r
    _, first, ball = np.unique(near, return_index=True, return_inverse=True)
    fault = ~inside | (first[ball] < np.arange(len(c)))  # outside, or in an earlier point's ball
    if np.any(fault):
        j = int(np.argmax(fault))
        if not inside[j]:
            raise NotInDomain(f"point {j} lies in no chart ball")
        raise NotInDomain(f"points {first[ball[j]]} and {j} both fall in ball {near[j]}")
    return first  # near is a permutation, so first[i] is the point in ball i


def chart_invert(c: Chart, v) -> np.ndarray:
    """Inverse chart map: coordinates z with chart_apply(c, z) = v.

    Defined when every point of v sits strictly inside exactly one ball;
    otherwise NotInDomain.
    """
    pts = as_point_array(v)
    pi = ball_assignment(c, pts)
    return (pts[pi] - c.base.points) / c.radii[:, None]


def _in_overlap(step, c1: Chart, c2: Chart, z):
    """step(c1, chart_apply(c2, z)) for a step that assigns the image to
    c1's balls; NotInOverlap when the image leaves the domain of c1."""
    try:
        return step(c1, chart_apply(c2, z))
    except NotInDomain as err:
        raise NotInOverlap(str(err)) from err


def transition(c1: Chart, c2: Chart, z) -> np.ndarray:
    """Transition map between charts: invert c1 after applying c2.

    On the overlap this is affine in each matched coordinate block with
    scale eps2_j / eps1_i. Raises NotInOverlap when the image of z leaves
    the domain of c1.
    """
    return _in_overlap(chart_invert, c1, c2, z)


def transition_jacobian(c1: Chart, c2: Chart, z) -> csr_array:
    """Analytic Jacobian of transition(c1, c2, .) at z, as a sparse
    (n*d, n*d) block permutation with n*d stored values: block
    (i, pi(i)) equals (eps2_pi(i)/eps1_i) * I."""
    pi = _in_overlap(ball_assignment, c1, c2, z)
    n, d = len(c1), c1.base.dimension
    cols = (pi[:, None] * d + np.arange(d)).ravel()
    scales = np.repeat(c2.radii[pi] / c1.radii, d)
    return csr_array((scales, (np.arange(n * d), cols)), shape=(n * d, n * d))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def chart_to_dict(c: Chart) -> dict:
    """Chart JSON. The base uses the configuration schema but keeps its
    stored point order: radii are aligned with it."""
    return {
        "base": configuration_to_dict(c.base),
        "radii": c.radii.tolist(),
    }


def chart_from_dict(obj: dict) -> Chart:
    return Chart(_points_from_dict(obj["base"]), _numeric(obj["radii"], "radii"))
