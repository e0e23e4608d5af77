"""The branched-configuration metric: Hausdorff distance between finite
point configurations, a kd-tree index for exact nearest-neighbor
queries, and detection of merge/split events along trajectories.

The metric is
    d(u, v) = max( max_{x in u} min_{y in v} |x - y|,
                   max_{y in v} min_{x in u} |x - y| )
which glues the fixed-cardinality strata along their merge diagonals: two
particles converging to one point converge to the single-particle
configuration in this metric.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, directed_hausdorff

from .config import (
    Configuration,
    DEFAULT_TOL_EQ,
    _at,
    _check_integer,
    _check_positive,
    _numeric,
    as_point,
    as_point_array,
    configuration_from_dict,
    configuration_to_dict,
    frozen,
)
from .errors import EmptyConfiguration, IndexMismatch, NonMonotoneTime

DEFAULT_MERGE_TOL = 10 * DEFAULT_TOL_EQ

# Relative gap below which kd-tree distances are not trusted to order as
# the reference's do (for d >= 8 it sums squares in another order).
_NEAR = 1e-12


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of the distance to b by scipy's exact early-break scan.
    Its shuffle changes the time, never the value; a generator per call is
    far cheaper than an int seed (positional: scipy 1.15 renamed seed to rng)."""
    return directed_hausdorff(a, b, np.random.default_rng(0))[0]


def dist_to_set(x, v) -> float:
    """Distance from a point to a nonempty configuration: min over its
    points."""
    x = as_point(x)
    pts = as_point_array(v, dim=x.shape[0])
    if pts.shape[0] == 0:
        raise EmptyConfiguration("distance to an empty configuration")
    return _directed(x[None, :], pts)


def _pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v as the metric compares them: nonempty, of one dimension."""
    a, b = as_point_array(u), as_point_array(v)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptyConfiguration("hausdorff distance needs nonempty configurations")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"hausdorff distance needs one dimension, got {a.shape[1]} and {b.shape[1]}")
    return a, b


def hausdorff_distance(u, v) -> float:
    """Hausdorff distance between two nonempty configurations.

    Cardinalities need not agree.
    """
    a, b = _pair(u, v)
    return max(_directed(a, b), _directed(b, a))


# ---------------------------------------------------------------------------
# kd-tree index
# ---------------------------------------------------------------------------

class GridIndex(cKDTree):
    """Exact nearest-neighbor index: a cKDTree over one configuration's
    points that keeps a read-only copy of them in `points`."""

    def __init__(self, points):
        self.points = frozen(as_point_array(points))
        if self.points.shape[0] == 0:
            raise EmptyConfiguration("cannot index an empty configuration")
        super().__init__(self.points)


def hausdorff_distance_indexed(
    u,
    v,
    idx_u: cKDTree | None = None,
    idx_v: cKDTree | None = None,
) -> float:
    """Same value as hausdorff_distance (within 1e-12), via kd-trees.

    Indexes are built on the fly when not supplied. A supplied index may be
    any cKDTree, and its `data` must equal its configuration's points or
    IndexMismatch is raised.
    """
    a, b = _pair(u, v)
    if idx_u is None:
        idx_u = GridIndex(a)
    elif not np.array_equal(idx_u.data, a):
        raise IndexMismatch("idx_u does not cover u")
    if idx_v is None:
        idx_v = GridIndex(b)
    elif not np.array_equal(idx_v.data, b):
        raise IndexMismatch("idx_v does not cover v")
    d_ab, _ = idx_v.query(a)
    d_ba, _ = idx_u.query(b)
    return float(max(np.max(d_ab), np.max(d_ba)))


# ---------------------------------------------------------------------------
# Stratum-crossing events
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StratumEvent:
    """A cardinality change along a trajectory, resolved to the sampling
    grid. `location` holds the absorbing (merge) or spawning (split)
    points, one row each."""

    time: float
    kind: str  # "merge" | "split"
    before_cardinality: int
    after_cardinality: int
    location: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "location", frozen(self.location))

    def to_json_dict(self) -> dict:
        return {
            "t": self.time,
            "kind": self.kind,
            "from": self.before_cardinality,
            "to": self.after_cardinality,
            "at": self.location[0].tolist(),
        }


def detect_stratum_events(
    traj: Sequence[tuple[float, Configuration]],
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> list[StratumEvent]:
    """Scan a sampled trajectory for merge/split events.

    A merge is emitted at a step where the cardinality drops and every
    point of the old configuration lies within merge_tol of the new one
    (directed Hausdorff); splits are symmetric. Cardinality changes that
    are not local in this sense produce no event.
    """
    _check_positive(merge_tol, "merge_tol")
    times = [float(t) for t, _ in traj]
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise NonMonotoneTime(f"times must be strictly increasing, got {a} then {b}")
    frames = [u for _, u in traj]
    for k, u in enumerate(frames):
        if len(u) == 0:
            raise EmptyConfiguration(f"trajectory frames must be nonempty, frame {k} is empty")
        if u.dimension != frames[0].dimension:
            raise ValueError(
                f"trajectory frames must share one dimension, frame {k} has "
                f"{u.dimension} and frame 0 has {frames[0].dimension}"
            )

    events: list[StratumEvent] = []
    for k in range(1, len(frames)):
        old, new = frames[k - 1].points, frames[k].points
        n_old, n_new = old.shape[0], new.shape[0]
        if n_new == n_old:
            continue
        kind, src, dst = ("merge", old, new) if n_new < n_old else ("split", new, old)
        near, nearest = cKDTree(dst).query(src, k=2)
        d = near[:, 0]
        # rows within _NEAR of merge_tol, if any, are decided by the reference scan
        close = src[d > merge_tol * (1 - _NEAR)]
        if d.max() <= merge_tol * (1 + _NEAR) and (close.shape[0] == 0 or _directed(close, dst) <= merge_tol):
            # each src point goes to its nearest dst point, a tie to the lowest index
            tie = np.flatnonzero(near[:, 1] <= d * (1 + _NEAR))
            nearest[tie, 0] = [np.argmin(cdist(src[i : i + 1], dst)) for i in tie]
            counts = np.bincount(nearest[:, 0], minlength=dst.shape[0])
            events.append(StratumEvent(times[k], kind, n_old, n_new, dst[counts >= 2]))
    return events


# ---------------------------------------------------------------------------
# Trajectory interchange and benchmarking
# ---------------------------------------------------------------------------

def trajectory_to_dict(traj: Sequence[tuple[float, Configuration]]) -> dict:
    return {
        "times": [float(t) for t, _ in traj],
        "frames": [configuration_to_dict(u) for _, u in traj],
    }


def trajectory_from_dict(obj: dict, tol_eq: float = DEFAULT_TOL_EQ) -> list[tuple[float, Configuration]]:
    times = [float(t) for t in _numeric(obj["times"], "times")]
    frames = [_at(f"frames[{j}]", configuration_from_dict, f, tol_eq=tol_eq) for j, f in enumerate(obj["frames"])]
    if len(times) != len(frames):
        raise ValueError("times and frames must have equal length")
    return list(zip(times, frames))


def events_to_json_lines(events: Iterable[StratumEvent]) -> str:
    return "".join(json.dumps(e.to_json_dict(), sort_keys=True) + "\n" for e in events)


def two_particle_merge_trajectory(times: Sequence[float] | None = None) -> list[tuple[float, Configuration]]:
    """Two particles at +-(1-t) on the line, coalescing at t = 1."""
    ts = [0.0, 0.5, 1.0] if times is None else [float(t) for t in times]
    traj = []
    for t in ts:
        r = 1.0 - t
        pts = [[0.0]] if r == 0.0 else [[-r], [r]]
        traj.append((t, Configuration(pts)))
    return traj


def benchmark(n: int, dimension: int = 2, seed: int = 0) -> dict:
    """Time the exact reference (hausdorff_distance, reported as "brute")
    against the indexed distance on two uniform clouds of n points;
    reports agreement and speedup."""
    _check_integer(n, "n", 1)
    _check_integer(dimension, "dimension", 1)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    side = float(n) ** (1.0 / dimension)
    u = rng.uniform(0.0, side, size=(n, dimension))
    v = rng.uniform(0.0, side, size=(n, dimension))

    t0 = time.perf_counter()
    brute = hausdorff_distance(u, v)
    t1 = time.perf_counter()
    idx_u, idx_v = GridIndex(u), GridIndex(v)
    t2 = time.perf_counter()
    fast = hausdorff_distance_indexed(u, v, idx_u, idx_v)
    t3 = time.perf_counter()

    brute_s, build_s, query_s = t1 - t0, t2 - t1, t3 - t2
    indexed_s = build_s + query_s
    return {
        "n": n,
        "dimension": dimension,
        "seed": seed,
        "brute_seconds": brute_s,
        "index_build_seconds": build_s,
        "index_query_seconds": query_s,
        "indexed_seconds": indexed_s,
        "speedup": brute_s / indexed_s if indexed_s > 0 else float("inf"),
        "difference": abs(brute - fast),
        "distance": brute,
    }
