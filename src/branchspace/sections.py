"""Branched sections of trivial bundles: multivalued fiber assignments
over a sampled base, branch-locus detection, and decomposition into
single-valued selections.

The flagship producer is the equilibrium section of the logistic map: a
smooth parameter field over the base determines, at each base point, the
attractor orbit as a fiber configuration. Fiber cardinality jumps where
the field crosses a period-doubling parameter; those crossings are the
branch loci.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import Configuration, _check_integer, as_point_array, frozen
from .errors import NonConstantCardinality, ParameterOutOfRange
from .logistic import (
    DEFAULT_ORBIT_TOL,
    MAX_PERIODS,
    Chaotic,
    PeriodicOrbit,
    _validate_parameter,
    attractors,
    bifurcation_points,
)

GAP_RATIO = 2.0


@dataclass(frozen=True, eq=False)
class BranchedSectionSample:
    """Sampled multivalued section: one fiber per base point, a 1-D
    Configuration (its points in R, stored sorted).

    A fiber of None marks a base point where no periodic attractor locked
    in (flagged, never fabricated); `parameters` optionally records the
    field value at each base point.
    """

    base_points: np.ndarray
    fibers: tuple[Configuration | None, ...]
    parameters: np.ndarray | None = None

    def __post_init__(self):
        pts = frozen(as_point_array(self.base_points))
        if pts.shape[0] == 0:
            raise ValueError("a section sample needs at least one base point")
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "fibers", tuple(self.fibers))
        if len(self.fibers) != pts.shape[0]:
            raise ValueError("one fiber per base point required")
        for i, f in enumerate(self.fibers):
            if f is not None and not (isinstance(f, Configuration) and f.dimension == 1 and len(f) > 0):
                raise ValueError(f"the fiber at base point {i} is not a nonempty 1-D Configuration (or None)")
        if self.parameters is not None:
            par = frozen(np.ravel(self.parameters))
            if par.shape[0] != pts.shape[0]:
                raise ValueError("one parameter per base point required")
            object.__setattr__(self, "parameters", par)

    def __len__(self) -> int:
        return self.base_points.shape[0]

    @property
    def chaotic_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.fibers) if f is None)

    def cardinalities(self) -> list[int | None]:
        return [None if f is None else len(f) for f in self.fibers]

    def restrict(self, indices: Sequence[int]) -> "BranchedSectionSample":
        idx = list(indices)
        return BranchedSectionSample(
            self.base_points[idx],
            tuple(self.fibers[i] for i in idx),
            None if self.parameters is None else self.parameters[idx],
        )


@dataclass(frozen=True, eq=False)
class BranchLocus:
    """A fiber-cardinality change between adjacent base samples.

    At a period-doubling locus the cardinality doubles and
    parameter_value is the cascade parameter being crossed;
    base_location interpolates where the field crosses it.
    """

    base_location: np.ndarray
    cardinality_before: int
    cardinality_after: int
    parameter_value: float

    def __post_init__(self):
        object.__setattr__(self, "base_location", frozen(self.base_location))

    def to_json_dict(self) -> dict:
        return {
            "base_location": self.base_location.tolist(),
            "cardinality_before": self.cardinality_before,
            "cardinality_after": self.cardinality_after,
            "parameter_value": self.parameter_value,
        }


def _doubling_parameter(card_lo: int, card_hi: int) -> float | None:
    """Cascade parameter crossed when the period card_lo, a power of two,
    doubles to card_hi; None for any other jump, window doublings included."""
    if card_hi != 2 * card_lo or card_lo & (card_lo - 1):
        return None
    k = card_lo.bit_length()  # card_lo = 2^(k-1); periods <= 64 keep k <= 6
    return bifurcation_points(k)[k - 1]


def branched_equilibrium_section(
    a_field: Callable[[np.ndarray], float],
    grid,
    max_period: int = MAX_PERIODS[-1],
    orbit_tol: float = DEFAULT_ORBIT_TOL,
) -> tuple[BranchedSectionSample, list[BranchLocus]]:
    """Equilibrium section of the logistic map over a sampled base.

    At each grid point the fiber is the attractor orbit of the map at
    parameter a_field(point); points without a periodic attractor up to
    max_period are flagged (fiber None). A locus is reported at every grid
    interval where the fiber cardinality changes between two periodic
    samples; for doubling jumps the location interpolates where the field
    crosses the cascade parameter, otherwise the midpoint is used.
    """
    pts = as_point_array(grid)

    def field():
        for i, g in enumerate(pts):
            try:
                yield _validate_parameter(a_field(g))
            except ParameterOutOfRange as err:
                raise ParameterOutOfRange(f"grid point {i}: {err}") from None

    atts = attractors(field(), max_period, orbit_tol)
    params = np.array([att.parameter for att in atts])
    fibers = [None if isinstance(att, Chaotic) else Configuration([[x] for x in att.points]) for att in atts]

    sample = BranchedSectionSample(pts, tuple(fibers), params)

    loci: list[BranchLocus] = []
    for i in range(pts.shape[0] - 1):
        f0, f1 = fibers[i], fibers[i + 1]
        if f0 is None or f1 is None or len(f0) == len(f1):
            continue
        n0, n1 = len(f0), len(f1)
        a0, a1 = params[i], params[i + 1]
        crossing = _doubling_parameter(min(n0, n1), max(n0, n1))
        if crossing is not None and min(a0, a1) <= crossing <= max(a0, a1) and a1 != a0:
            t = (crossing - a0) / (a1 - a0)
            location = pts[i] + t * (pts[i + 1] - pts[i])
            parameter = crossing
        else:
            location = 0.5 * (pts[i] + pts[i + 1])
            parameter = 0.5 * (a0 + a1)
        loci.append(BranchLocus(location, n0, n1, float(parameter)))
    return sample, loci


@dataclass(frozen=True)
class ThreadingWitness:
    """Where nearest-continuation threading became ambiguous: the grid
    edge (from_index, from_index + 1), the selection involved, and the
    best/second-best continuation distances."""

    edge: int
    selection: int
    best: float
    second: float
    reason: str


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Either n single-valued selections (selections[k][j] = value of
    selection k at base point j) or a witness of non-decomposability at
    the sampled resolution."""

    selections: np.ndarray | None
    witness: ThreadingWitness | None

    def __post_init__(self):
        if self.selections is not None:
            object.__setattr__(self, "selections", frozen(self.selections))

    @property
    def decomposable(self) -> bool:
        return self.selections is not None


def decompose_or_witness(sample: BranchedSectionSample) -> Decomposition:
    """Thread n single-valued selections through a constant-cardinality
    sampled section by nearest continuation.

    A step is unambiguous when the second-best candidate is at least
    GAP_RATIO times further than the best and no two selections claim the
    same fiber point. In one dimension nearest continuation never crosses
    (s < s' with unique nearest points t, t' gives t <= t'), so unambiguous
    steps match consecutive fibers rank by rank, every grid edge in one
    array of distances, and the selections are the sorted fibers. The
    first ambiguous step is returned as a witness (branching or monodromy
    at sampling resolution).
    """
    cards = sample.cardinalities()
    if any(c is None for c in cards):
        raise NonConstantCardinality("chaotic fibers present; restrict to a periodic run first")
    if any(c != cards[0] for c in cards):
        raise NonConstantCardinality(f"cardinalities vary: {sorted(set(cards))}")

    ranks = np.hstack([f.points for f in sample.fibers])  # ranks[k, j]: rank k at point j
    # dist[j, k, i] = |ranks[i, j + 1] - ranks[k, j]|, every grid edge at once
    dist = np.abs(ranks.T[1:, None, :] - ranks.T[:-1, :, None])
    near = dist.argmin(axis=2)
    # best and second-best distances; the inf column is a one-point fiber's missing second
    d = np.partition(np.pad(dist, ((0, 0), (0, 0), (0, 1)), constant_values=np.inf), 1, axis=2)
    gap = (d[..., 0] > 0.0) & (d[..., 1] < GAP_RATIO * d[..., 0])
    # the nearest map is monotone on the ranks that passed, so a claimed
    # point is the previous rank's
    claim = np.zeros_like(gap)
    claim[:, 1:] = near[:, 1:] == near[:, :-1]
    flagged = np.argwhere(gap | claim)
    if flagged.size:
        j, k = (int(i) for i in flagged[0])
        if gap[j, k]:
            reason, second = "second-best continuation below the gap ratio", float(d[j, k, 1])
        else:
            reason, second = "two selections claim one fiber point", float("nan")
        return Decomposition(None, ThreadingWitness(j, k, float(d[j, k, 0]), second, reason))
    return Decomposition(ranks, None)


# ---------------------------------------------------------------------------
# Interchange
# ---------------------------------------------------------------------------

def section_to_dict(sample: BranchedSectionSample, loci: Sequence[BranchLocus]) -> dict:
    return {
        "grid": sample.base_points.tolist(),
        "fibers": [None if f is None else f.points[:, 0].tolist() for f in sample.fibers],
        "loci": [locus.to_json_dict() for locus in loci],
        "parameters": None if sample.parameters is None else sample.parameters.tolist(),
    }


def bifurcation_rows(
    a_min: float,
    a_max: float,
    steps: int,
    max_period: int = MAX_PERIODS[-1],
    orbit_tol: float = DEFAULT_ORBIT_TOL,
) -> list[tuple[float, float]]:
    """(parameter, orbit point) rows of the attractor sweep, for diagram
    plotting. Chaotic parameters contribute no rows."""
    _check_integer(steps, "steps", 2)
    atts = attractors(np.linspace(a_min, a_max, steps).tolist(), max_period, orbit_tol)
    return [(att.parameter, x) for att in atts if isinstance(att, PeriodicOrbit) for x in att.points]
