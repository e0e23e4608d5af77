import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from branchspace import (
    DEFAULT_TOL_EQ,
    CompatibilityViolation,
    Configuration,
    EmptyConfiguration,
    GridIndex,
    IndexMismatch,
    NonMonotoneTime,
    detect_stratum_events,
    dist_to_set,
    hausdorff_distance,
    hausdorff_distance_indexed,
    two_particle_merge_trajectory,
)
from branchspace.hausdorff import (
    benchmark,
    events_to_json_lines,
    trajectory_from_dict,
    trajectory_to_dict,
)

from conftest import random_configuration


def brute_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Plain-python sup formula, the oracle for everything else here."""
    d_ab = max(min(math.dist(x, y) for y in b) for x in a)
    d_ba = max(min(math.dist(x, y) for x in a) for y in b)
    return max(d_ab, d_ba)


# ---------------------------------------------------------------------------
# dist_to_set
# ---------------------------------------------------------------------------

def test_dist_to_set_singleton():
    assert dist_to_set([0.0], Configuration([[1.0]])) == 1.0


def test_dist_to_set_membership():
    v = Configuration([[0.0, 2.0], [1.0, 1.0]])
    assert dist_to_set([1.0, 1.0], v) == 0.0


def test_dist_to_set_linear_scan_oracle():
    v = Configuration([[3.0, 4.0], [1.0, 1.0]])
    assert dist_to_set([0.0, 0.0], v) == pytest.approx(math.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize(
    "x, message", [([], "a point needs at least one coordinate"), ([math.nan], "point coordinates must be finite")]
)
def test_dist_to_set_rejects_a_point_that_is_not_one(x, message):
    with pytest.raises(ValueError, match=message):
        dist_to_set(x, Configuration([[1.0]]))


def test_dist_to_set_empty():
    with pytest.raises(EmptyConfiguration):
        dist_to_set([0.0], Configuration(np.empty((0, 1))))


# ---------------------------------------------------------------------------
# hausdorff_distance
# ---------------------------------------------------------------------------

def test_two_singletons():
    u = Configuration([[0.0]])
    v = Configuration([[1.0]])
    assert hausdorff_distance(u, v) == 1.0


def test_identity():
    u = Configuration([[0.5, 0.25], [3.0, -1.0]])
    assert hausdorff_distance(u, u) == 0.0


def test_unequal_cardinalities():
    u = Configuration([[0.0], [2.0]])
    v = Configuration([[1.0]])
    # sup formula by hand: d(0,{1})=1, d(2,{1})=1, d(1,{0,2})=1
    assert hausdorff_distance(u, v) == 1.0


def test_matches_brute_oracle(rng):
    for _ in range(30):
        u = random_configuration(rng, int(rng.integers(1, 40)), int(rng.integers(1, 4)))
        v = random_configuration(rng, int(rng.integers(1, 40)), u.dimension)
        assert hausdorff_distance(u, v) == pytest.approx(
            brute_hausdorff(u.points, v.points), abs=1e-12
        )


def test_metric_axioms(rng):
    for _ in range(120):
        dim = int(rng.integers(1, 4))
        u = random_configuration(rng, int(rng.integers(1, 50)), dim)
        v = random_configuration(rng, int(rng.integers(1, 50)), dim)
        w = random_configuration(rng, int(rng.integers(1, 50)), dim)
        duv, dvu = hausdorff_distance(u, v), hausdorff_distance(v, u)
        assert duv == dvu  # symmetry, exact
        assert hausdorff_distance(u, w) <= duv + hausdorff_distance(v, w) + 1e-12


def test_zero_iff_equal_as_sets(rng):
    u = random_configuration(rng, 20, 2)
    shuffled = Configuration(u.points[rng.permutation(20)])
    assert hausdorff_distance(u, shuffled) == 0.0
    assert shuffled == u
    v = Configuration(u.points + np.array([1e-13, 0.0]))
    assert 0.0 < hausdorff_distance(u, v) <= u.tol_eq


def test_extension_property(rng):
    u = random_configuration(rng, 25, 2)
    x = np.array([17.0, -3.0])
    extended = Configuration(np.vstack([u.points, x]))
    assert hausdorff_distance(u, extended) == dist_to_set(x, u)


@pytest.mark.parametrize("distance", [hausdorff_distance, hausdorff_distance_indexed])
@pytest.mark.parametrize("swap", [False, True])
def test_the_metric_compares_configurations_of_one_dimension(distance, swap):
    # each used to end in a scipy message that named no dimension, and the
    # two messages differed
    pair = [Configuration([[0.0], [1.0]]), Configuration([[0.0, 0.0]])]
    dims = "2 and 1" if swap else "1 and 2"
    with pytest.raises(ValueError, match=f"^hausdorff distance needs one dimension, got {dims}$"):
        distance(*(pair[::-1] if swap else pair))


def test_dist_to_set_needs_the_points_dimension():
    with pytest.raises(ValueError, match="^expected dimension 2, got 1$"):
        dist_to_set([0.0, 0.0], Configuration([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="^expected dimension 1, got 2$"):
        dist_to_set([0.0], Configuration([[0.0, 0.0]]))


def test_empty_rejected():
    u = Configuration([[0.0]])
    empty = Configuration(np.empty((0, 1)))
    with pytest.raises(EmptyConfiguration):
        hausdorff_distance(u, empty)


# ---------------------------------------------------------------------------
# kd-tree index
# ---------------------------------------------------------------------------

def assert_nearest_is_scan(idx, pts, q):
    d, i = idx.query(q)
    scan = np.sqrt(np.sum((pts - q) ** 2, axis=1))
    assert d == float(np.min(scan))
    assert d == float(scan[i])


def test_index_nearest_matches_linear_scan(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        u = random_configuration(rng, int(rng.integers(2, 200)), dim)
        idx = GridIndex(u)
        for _ in range(20):
            assert_nearest_is_scan(idx, u.points, rng.uniform(-2.0, 12.0, size=dim))

    # coordinates 25 orders of magnitude apart: no overflow, exact answers
    pts = np.array([[0.0], [1e-13], [1e12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx = GridIndex(pts)
        for q in (-1.0, 0.0, 2e-13, 4e11, 9e11, 1e12, 3e12):
            assert_nearest_is_scan(idx, pts, np.array([q]))
    assert idx.query([2e-13]) == (1e-13, 1)
    assert idx.query([9e11]) == (1e11, 2)


def test_index_far_query():
    u = Configuration([[0.0, 0.0], [1.0, 0.0]])
    d, i = GridIndex(u).query([500.0, 500.0])
    assert d == pytest.approx(math.dist([500.0, 500.0], [1.0, 0.0]), abs=1e-12)
    assert i == 1


def test_indexed_equals_brute(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        u = random_configuration(rng, int(rng.integers(1, 300)), dim)
        v = random_configuration(rng, int(rng.integers(1, 300)), dim)
        assert hausdorff_distance_indexed(u, v) == pytest.approx(
            hausdorff_distance(u, v), abs=1e-12
        )
    # 1-d clouds clustered around different centres: every query is far
    # from the other cloud
    a = rng.normal(0.0, 1.0, size=(1000, 1))
    b = rng.normal(50.0, 1.0, size=(1000, 1))
    assert hausdorff_distance_indexed(a, b) == hausdorff_distance(a, b)


# floats across 24 orders of magnitude, so one set can spread 1e12
COORDINATES = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    st.integers(-12, 12),
)


@st.composite
def point_set_pairs(draw, dims=st.integers(1, 3)):
    """Two raw point arrays of one dimension drawn from dims: free,
    collinear, or the second made of near-duplicates (within tol_eq) of
    the first."""
    dim = draw(dims)
    point = st.lists(COORDINATES, min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(["free", "collinear", "near-duplicates"]))
    if kind == "collinear":
        origin, direction = np.array(draw(point)), np.array(draw(point))
        steps = st.lists(COORDINATES, min_size=1, max_size=20)
        a = origin + np.array(draw(steps))[:, None] * direction
        b = origin + np.array(draw(steps))[:, None] * direction
        return a, b
    a = np.array(draw(st.lists(point, min_size=1, max_size=20)))
    if kind == "free":
        return a, np.array(draw(st.lists(point, min_size=1, max_size=20)))
    picks = draw(st.lists(st.integers(0, a.shape[0] - 1), min_size=1, max_size=20))
    offset = st.floats(-DEFAULT_TOL_EQ, DEFAULT_TOL_EQ, allow_nan=False)
    shifts = draw(st.lists(st.lists(offset, min_size=dim, max_size=dim),
                           min_size=len(picks), max_size=len(picks)))
    return a, a[picks] + np.array(shifts)


@given(point_set_pairs())
@example((np.array([[0.5]]), np.array([[-2.0]])))
@example((np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0, 3.0 + 5e-10], [1e12, 0.0, -1e12]])))
@settings(deadline=None, max_examples=300)
def test_indexed_equals_scan_property(pair):
    a, b = pair
    assert hausdorff_distance_indexed(a, b) == hausdorff_distance(a, b)
    assert hausdorff_distance_indexed(b, a) == hausdorff_distance(b, a)


def two_pass_directed(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of the distance to b by a blocked cdist scan of its own:
    one direction of the two-pass reference that scipy's early-break scan
    must equal bit for bit."""
    worst = 0.0
    for lo in range(0, a.shape[0], 256):
        d2 = cdist(a[lo : lo + 256], b, "sqeuclidean")
        worst = max(worst, float(np.max(np.min(d2, axis=1))))
    return float(np.sqrt(worst))


def two_pass_events(traj, merge_tol: float) -> list:
    """(time, kind, location) of each event, by two_pass_directed and a full
    distance matrix whose argmin sends ties to the lowest dst index."""
    out = []
    for (_, u), (t, w) in zip(traj, traj[1:]):
        kind, src, dst = ("merge", u.points, w.points) if len(w) < len(u) else ("split", w.points, u.points)
        if len(u) != len(w) and two_pass_directed(src, dst) <= merge_tol:
            counts = np.bincount(np.argmin(cdist(src, dst), axis=1), minlength=len(dst))
            out.append((t, kind, dst[counts >= 2].tolist()))
    return out


def assert_early_break_is_two_pass(a: np.ndarray, b: np.ndarray) -> None:
    d_ab, d_ba = two_pass_directed(a, b), two_pass_directed(b, a)
    assert hausdorff_distance(a, b) == max(d_ab, d_ba)
    assert hausdorff_distance(b, a) == max(d_ba, d_ab)
    for x in a:
        assert dist_to_set(x, b) == two_pass_directed(x[None, :], b)
    try:
        u, w = (Configuration(np.unique(p, axis=0), tol_eq=5e-324) for p in (a, b))
    except CompatibilityViolation:
        return  # two distinct points whose distance underflows to 0
    # the frames alternate, so one step merges and the next splits (none
    # at equal sizes); merge_tol is exactly the larger frame's directed
    # distance to the smaller, so the threshold is met with equality; that
    # distance is 0 only for equal frames, which have no event at any
    # tolerance, and there the least positive one stands in
    traj = [(0.0, u), (1.0, w), (2.0, u)]
    big, small = (u, w) if len(u) > len(w) else (w, u)
    merge_tol = max(two_pass_directed(big.points, small.points), 5e-324)
    got = [(e.time, e.kind, e.location.tolist()) for e in detect_stratum_events(traj, merge_tol)]
    assert got == two_pass_events(traj, merge_tol)


SQUARE = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


# scipy's scan must sum squares in cdist's order at every d; the kd-tree does not from d = 8
@given(point_set_pairs(st.sampled_from([1, 2, 3, 8, 17, 64])))
@example((np.array([[0.0], [2.0]]), np.array([[1.0]])))  # an exact tie
@example((np.array([[-1.0], [1.0], [3.0]]), np.array([[0.0], [2.0]])))  # an attribution tie
# no row of a set against itself or its subset ever breaks early
@example((SQUARE, SQUARE))
@example((SQUARE, SQUARE[1:3]))
@example((np.array([[0.5, -2.0, 1e9]]), np.array([[0.0, 0.0, 0.0], [3.0, 0.0, -1.0]])))  # a one-point set
@settings(deadline=None, max_examples=300)
def test_early_break_scan_equals_two_pass_property(pair):
    assert_early_break_is_two_pass(*pair)


def test_early_break_scan_equals_two_pass_on_large_inputs(rng):
    # up to 2^18 + 1 points on one side, and one point against them all
    for n, m, d in ((513, 512, 1), (749, 700, 2), (6554, 40, 3), (1, 262145, 2)):
        assert_early_break_is_two_pass(rng.uniform(-5.0, 5.0, size=(n, d)), rng.uniform(-5.0, 5.0, size=(m, d)))


@st.composite
def lattice_trajectories(draw):
    """A merge, a split and a non-local merge between a frame of integer
    lattice points (d = 1..3 or 8, scaled) and a larger frame holding some
    of them and cell centres. A centre is equidistant from the 2 to 2^d
    corners of its cell, so attribution meets exact ties (and, scaled by
    0.1 or 1/3, near ties). merge_tol is the directed distance of the merge
    or one ulp either side."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    corner = st.lists(st.integers(0, 4 if d < 8 else 1), min_size=d, max_size=d)
    small = np.unique(np.array(draw(st.lists(corner, min_size=1, max_size=12)), float), axis=0)
    centres = np.array(draw(st.lists(corner, min_size=1, max_size=12)), float) + 0.5
    kept = small[: draw(st.integers(0, small.shape[0]))]
    big = np.unique(np.concatenate([kept, centres]), axis=0)
    assume(big.shape[0] > small.shape[0])
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]))
    u, w = Configuration(big * scale), Configuration(small * scale)
    far = Configuration(small * scale + 100.0)
    merge_tol = two_pass_directed(u.points, w.points)
    merge_tol = [np.nextafter(merge_tol, 0.0), merge_tol, np.nextafter(merge_tol, np.inf)][draw(st.integers(0, 2))]
    return [(0.0, u), (1.0, w), (2.0, u), (3.0, far)], float(merge_tol)


# a cell centre whose two nearest corners the kd-tree (d >= 8) and cdist order apart
D8_NEAR_TIE = np.array([[0, 1, 0, 0, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1, 1, 0], [0.5, 1.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5]]) * 0.1


@given(lattice_trajectories())
@example(([(0.0, Configuration([[0.0], [1.0]])), (1.0, Configuration([[0.5]]))], 0.5))  # a one-point dst
@example(([(0.0, Configuration(D8_NEAR_TIE)), (1.0, Configuration(D8_NEAR_TIE[:2]))], 0.25))
@settings(deadline=None, max_examples=300)
def test_events_equal_two_pass_on_lattice_ties(case):
    traj, merge_tol = case
    got = [(e.time, e.kind, e.location.tolist()) for e in detect_stratum_events(traj, merge_tol)]
    assert got == two_pass_events(traj, merge_tol)


def test_a_lattice_merge_sends_each_cell_centre_to_its_lowest_corner():
    # 39^2 grid points and the 38^2 centres of their cells (2965 points)
    # merge onto the grid; each centre ties four ways at merge_tol
    k = 38
    grid = np.stack(np.meshgrid(np.arange(k + 1.0), np.arange(k + 1.0), indexing="ij"), axis=-1).reshape(-1, 2)
    centres = grid[(grid[:, 0] < k) & (grid[:, 1] < k)] + 0.5
    u, w = Configuration(np.concatenate([grid, centres])), Configuration(grid)
    traj = [(0.0, u), (1.0, w)]
    merge_tol = two_pass_directed(u.points, w.points)
    (event,) = detect_stratum_events(traj, merge_tol)
    assert event.location.tolist() == (centres - 0.5).tolist()
    assert [(event.time, event.kind, event.location.tolist())] == two_pass_events(traj, merge_tol)


def test_indexed_identical_grids():
    side = np.arange(100, dtype=float)
    pts = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)  # 10^4 grid points
    u = Configuration(pts)
    assert hausdorff_distance_indexed(u, u) == 0.0


def test_indexed_translation_is_exact_shift(rng):
    u = random_configuration(rng, 500, 2, scale=100.0)  # spacing >> 2h
    h = 0.25
    v = Configuration(u.points + np.array([h, 0.0]))
    d_idx = hausdorff_distance_indexed(u, v)
    assert d_idx == pytest.approx(h, abs=1e-12)
    assert d_idx == pytest.approx(hausdorff_distance(u, v), abs=1e-12)


def test_index_mismatch():
    u = Configuration([[0.0], [1.0]])
    v = Configuration([[5.0], [6.0]])
    idx_wrong = GridIndex(v)
    with pytest.raises(IndexMismatch):
        hausdorff_distance_indexed(u, v, idx_u=idx_wrong, idx_v=GridIndex(v))


def test_any_kd_tree_over_the_points_is_an_index():
    u = Configuration([[0.0], [1.0]])
    v = Configuration([[5.0], [6.0]])
    assert hausdorff_distance_indexed(u, v, idx_u=cKDTree(u.points), idx_v=cKDTree(v.points)) == 5.0
    for kwargs in ({"idx_u": cKDTree(v.points)}, {"idx_v": cKDTree(u.points)}):
        with pytest.raises(IndexMismatch):
            hausdorff_distance_indexed(u, v, **kwargs)


def test_a_wrong_second_index_is_rejected():
    u = Configuration([[0.0], [1.0]])
    v = Configuration([[5.0], [6.0]])
    with pytest.raises(IndexMismatch, match="idx_v does not cover v"):
        hausdorff_distance_indexed(u, v, idx_u=GridIndex(u), idx_v=GridIndex(u))


def test_an_index_of_no_points_is_rejected():
    with pytest.raises(EmptyConfiguration, match="cannot index an empty configuration"):
        GridIndex(np.empty((0, 2)))


@pytest.mark.parametrize("empty_side", [0, 1])
def test_indexed_distance_rejects_an_empty_side(empty_side):
    pair = [[[0.0, 0.0]], [[1.0, 0.0]]]
    pair[empty_side] = np.empty((0, 2))
    with pytest.raises(EmptyConfiguration, match="needs nonempty configurations"):
        hausdorff_distance_indexed(*pair)


# ---------------------------------------------------------------------------
# stratum events
# ---------------------------------------------------------------------------

def test_forced_merge_event():
    traj = [
        (0.0, Configuration([[-1.0], [1.0]])),
        (1.0, Configuration([[0.0]])),
    ]
    events = detect_stratum_events(traj, merge_tol=2.0)
    assert len(events) == 1
    e = events[0]
    assert (e.time, e.kind, e.before_cardinality, e.after_cardinality) == (1.0, "merge", 2, 1)
    assert e.location.tolist() == [[0.0]]


def test_constant_trajectory_no_events():
    u = Configuration([[0.0], [3.0]])
    traj = [(float(t), u) for t in range(4)]
    assert detect_stratum_events(traj) == []


def test_two_particle_merge_at_final_sample():
    traj = two_particle_merge_trajectory([0.0, 0.5, 1.0])
    events = detect_stratum_events(traj, merge_tol=1.0)
    assert [e.time for e in events] == [1.0]
    assert events[0].kind == "merge"
    # converging pair approaches the single-point stratum continuously
    target = Configuration([[0.0]])
    for t, u in traj:
        assert hausdorff_distance(u, target) == pytest.approx(1.0 - t, abs=1e-12)


def test_attribution_tie_goes_to_the_lowest_dst_index():
    # each odd src point is exactly equidistant from two dst points
    src = Configuration(np.arange(601.0))
    dst = Configuration(np.arange(0.0, 601.0, 2.0))
    for traj, kind in (([(0.0, src), (1.0, dst)], "merge"), ([(0.0, dst), (1.0, src)], "split")):
        (event,) = detect_stratum_events(traj, merge_tol=1.0)
        assert event.kind == kind
        assert event.location.tolist() == dst.points[:-1].tolist()


def test_split_event_symmetry():
    traj = [
        (0.0, Configuration([[0.0]])),
        (1.0, Configuration([[-0.1], [0.1]])),
    ]
    events = detect_stratum_events(traj, merge_tol=0.5)
    assert [e.kind for e in events] == ["split"]
    assert events[0].before_cardinality == 1 and events[0].after_cardinality == 2


def test_distant_disappearance_is_not_a_merge():
    traj = [
        (0.0, Configuration([[0.0], [100.0]])),
        (1.0, Configuration([[0.0]])),
    ]
    assert detect_stratum_events(traj, merge_tol=1.0) == []


@pytest.mark.parametrize("merge_tol", [math.nan, -1.0, 0.0, math.inf])
def test_merge_tolerance_must_be_finite_and_positive(merge_tol):
    traj = two_particle_merge_trajectory(np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="merge_tol must be finite and positive"):
        detect_stratum_events(traj, merge_tol=merge_tol)


@pytest.mark.parametrize("name", ["n", "dimension", "seed"])
@pytest.mark.parametrize("bad", [True, 10.5])
def test_benchmark_arguments_must_be_integers(name, bad):
    kwargs = {"n": 10, "dimension": 2, "seed": 0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        benchmark(**kwargs)


@pytest.mark.parametrize("name, bad, low", [("n", -1, 1), ("n", 0, 1), ("dimension", 0, 1), ("seed", -1, 0)])
def test_benchmark_arguments_must_lie_in_range(name, bad, low):
    # dimension=0 used to raise ZeroDivisionError, n=-1 a TypeError about a
    # complex number and seed=-1 numpy's message, which names no argument
    kwargs = {"n": 10, "dimension": 2, "seed": 0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be at least {low}, got {bad}"):
        benchmark(**kwargs)


def test_non_monotone_time():
    u = Configuration([[0.0]])
    with pytest.raises(NonMonotoneTime):
        detect_stratum_events([(0.0, u), (0.0, u)])


@pytest.mark.parametrize(
    "frames",
    [
        [[[0.0], [1.0]], [[0.0, 0.0]]],  # a merge across dimensions
        [[[0.0], [1.0]], [[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0]]],  # no change at frame 1
    ],
)
def test_frames_of_another_dimension_are_rejected_by_index(frames):
    traj = [(float(t), Configuration(f)) for t, f in enumerate(frames)]
    with pytest.raises(ValueError, match="frame 1 has 2 and frame 0 has 1"):
        detect_stratum_events(traj)


def test_an_empty_frame_is_rejected_by_index():
    u = Configuration([[0.0, 0.0]])
    with pytest.raises(EmptyConfiguration, match="frame 2 is empty"):
        detect_stratum_events([(0.0, u), (1.0, u), (2.0, Configuration(np.empty((0, 2))))])


def test_trajectory_json_roundtrip_and_event_lines():
    traj = two_particle_merge_trajectory([0.0, 0.5, 1.0])
    obj = trajectory_to_dict(traj)
    back = trajectory_from_dict(json.loads(json.dumps(obj)))
    assert [t for t, _ in back] == [0.0, 0.5, 1.0]
    assert all(a == b for (_, a), (_, b) in zip(back, traj))

    events = detect_stratum_events(traj, merge_tol=1.0)
    lines = events_to_json_lines(events).strip().split("\n")
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec == {"t": 1.0, "kind": "merge", "from": 2, "to": 1, "at": [0.0]}


def test_a_trajectory_with_more_times_than_frames_is_rejected():
    obj = trajectory_to_dict(two_particle_merge_trajectory([0.0, 0.5]))
    obj["times"].append(1.0)
    with pytest.raises(ValueError, match="times and frames must have equal length"):
        trajectory_from_dict(obj)
