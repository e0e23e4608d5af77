import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchspace import (
    DEFAULT_TOL_EQ,
    CompatibilityViolation,
    Configuration,
    EmptyConfiguration,
    LocallyFiniteConfiguration,
    OrderedConfiguration,
    StratumTooLarge,
    canonicalize,
    configuration_from_dict,
    configuration_to_dict,
    default_relation,
    empirical_average,
    euclidean,
    symmetrize,
    validate,
)
from branchspace.charts import Chart, build_chart, chart_invert, separations
from branchspace.config import as_point_array, read_json, write_json
from branchspace.hausdorff import (
    GridIndex,
    StratumEvent,
    dist_to_set,
    hausdorff_distance,
    hausdorff_distance_indexed,
)
from branchspace.measure import GridFunction
from branchspace.paths import PathSegment, jet_match, make_split_loop
from branchspace.sections import BranchedSectionSample, BranchLocus, Decomposition

from conftest import random_configuration


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_sorts_two_points():
    c = canonicalize(np.array([[2.0, 0.0], [1.0, 0.0]]))
    assert c.points.tolist() == [[1.0, 0.0], [2.0, 0.0]]


def test_canonicalize_singleton_fixed():
    c = canonicalize(np.array([[0.0, 0.0]]))
    assert c.points.tolist() == [[0.0, 0.0]]


def test_canonicalize_all_orderings_agree():
    # oracle: independently sort the tuples; check every permutation lands there
    pts = [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]
    expected = sorted(pts)
    for perm in itertools.permutations(pts):
        c = canonicalize(np.array(perm))
        assert [tuple(p) for p in c.points] == expected


def test_canonicalize_reports_offending_pair():
    with pytest.raises(CompatibilityViolation) as err:
        canonicalize(np.array([[0.0], [1.0], [0.0]]))
    assert err.value.pair == (0, 2)


def test_canonicalize_validates_at_its_own_tol_eq():
    # below the default tolerance it accepts what Configuration accepts
    c = canonicalize(np.array([[5e-10], [0.0]]), tol_eq=1e-10)
    assert c == Configuration([[0.0], [5e-10]], tol_eq=1e-10)
    # above it, the pair that fails is reported in input order
    with pytest.raises(CompatibilityViolation) as err:
        canonicalize(np.array([[5.0], [0.0], [5.0 + 1e-6]]), tol_eq=1e-5)
    assert err.value.pair == (0, 2)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True), st.integers(1, 3))
@settings(deadline=None)
def test_canonicalize_permutation_invariant_bitwise(cells, dim):
    # distinct integer-derived coordinates; invariance must be exact
    pts = np.array([[math.sin(7.0 * c + j) for j in range(dim)] for c in cells])
    o = OrderedConfiguration(pts)
    base = canonicalize(o)
    for perm in itertools.permutations(range(len(cells))):
        again = canonicalize(o.permuted(perm))
        assert np.array_equal(again.points, base.points)


# ---------------------------------------------------------------------------
# Configuration: distinctness and hashing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 2000, 3000])
def test_configuration_rejects_near_duplicates_at_every_size(n):
    k = n // 2
    pts = np.vstack([np.arange(n - 1, dtype=float).reshape(-1, 1), [[k + 1e-11]]])
    with pytest.raises(CompatibilityViolation) as err:
        Configuration(pts)
    assert err.value.pair == (k, k + 1)
    assert str(err.value) == f"points {k} and {k + 1} coincide within tol_eq=1e-09"


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=12),
    st.sampled_from([0.0, 0.5e-9, 2e-9, 0.5]),
)
@settings(deadline=None)
def test_configuration_distinctness_matches_pairwise_oracle(cells, nudge):
    # integer cells, the last one nudged: coincident, near and clear pairs
    pts = np.array(cells, dtype=float)
    pts[-1, 0] += nudge
    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    dist = np.sqrt(np.sum((sorted_pts[:, None, :] - sorted_pts[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    closest = np.argwhere(dist == np.min(dist))
    if np.min(dist) > DEFAULT_TOL_EQ:
        assert np.array_equal(Configuration(pts).points, sorted_pts)
        return
    with pytest.raises(CompatibilityViolation) as err:
        Configuration(pts)
    i, j = err.value.pair
    assert i < j and dist[i, j] == np.min(dist)
    if len(closest) == 2:  # one closest pair, seen from both ends
        assert (i, j) == tuple(closest[0])


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=2, max_size=12)
    ),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.5e-9, 2e-9, 0.5]),
    st.sampled_from([DEFAULT_TOL_EQ, 1e-10, 1.0]),
)
@settings(deadline=None)
def test_default_distinctness_matches_the_pairwise_loop(cells, copies, nudge, tol_eq):
    # integer cells with extra copies of the first (piles of three or more
    # coincident points), the last one nudged; the loop under
    # default_relation is the oracle of the kd-tree check
    pts = np.array(cells + [cells[0]] * copies, dtype=float)
    pts[-1, 0] += nudge
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)

    def assert_closest(pair):
        i, j = pair
        assert i < j and dist[i, j] == np.min(dist)

    ok, pair = validate(pts)
    assert ok == validate(OrderedConfiguration(pts, default_relation()))[0]
    if not ok:
        assert_closest(pair)
    accepted = validate(OrderedConfiguration(pts, default_relation(tol_eq)))[0]
    for o in (pts, OrderedConfiguration(pts)):
        if accepted:
            assert canonicalize(o, tol_eq=tol_eq) == Configuration(pts, tol_eq)
            continue
        with pytest.raises(CompatibilityViolation) as err:
            canonicalize(o, tol_eq=tol_eq)
        assert_closest(err.value.pair)


def test_a_pile_of_coincident_points_is_rejected_at_once():
    pts = np.zeros((100_000, 2))
    assert validate(pts) == (False, (0, 1))
    with pytest.raises(CompatibilityViolation) as err:
        Configuration(pts)
    assert err.value.pair == (0, 1)


def test_equal_configurations_are_one_set_member():
    a = Configuration([[0.0, 1.0], [2.0, -0.0]])
    b = Configuration([[2.0, 0.0], [0.0, 1.0]])
    c = Configuration([[2.0, 0.0]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, c}) == 2
    assert {a: "first"}[b] == "first"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_duplicate_pair():
    ok, pair = validate(np.array([[0.0, 0.0], [0.0, 0.0]]))
    assert not ok and pair == (0, 1)


def test_validate_distinct_points():
    ok, pair = validate(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert ok and pair is None


def test_validate_many_random_distinct(rng):
    u = random_configuration(rng, 100, 3)
    ok, _ = validate(u.points)
    assert ok


def test_validate_matches_tolerance_threshold():
    rel = default_relation(tol_eq=1e-9)
    ok, _ = validate(OrderedConfiguration(np.array([[0.0], [5e-10]]), rel))
    assert not ok
    ok, _ = validate(OrderedConfiguration(np.array([[0.0], [2e-9]]), rel))
    assert ok


# ---------------------------------------------------------------------------
# symmetrize
# ---------------------------------------------------------------------------

def brute_symmetrize(f, o):
    vals = [f(o.permuted(p)) for p in itertools.permutations(range(len(o)))]
    return sum(vals) / len(vals)


def test_symmetrize_first_coordinate():
    o = OrderedConfiguration(np.array([[0.0], [2.0]]))
    assert symmetrize(lambda c: c.points[0, 0], o) == pytest.approx(1.0, abs=1e-15)


def test_symmetrize_symmetric_function_unchanged():
    o = OrderedConfiguration(np.array([[1.0], [2.0], [5.0]]))
    f = lambda c: float(np.sum(c.points))
    assert symmetrize(f, o) == pytest.approx(f(o), abs=1e-12)


def test_symmetrize_index_weighted_product():
    # f = sum_i (i+1) * x_i, averaged over both orderings of [(1,), (2,)]
    o = OrderedConfiguration(np.array([[1.0], [2.0]]))
    f = lambda c: float(sum((i + 1) * c.points[i, 0] for i in range(len(c))))
    expected = brute_symmetrize(f, o)
    assert expected == pytest.approx((1 * 1 + 2 * 2 + 1 * 2 + 2 * 1) / 2.0)
    assert symmetrize(f, o) == pytest.approx(expected, abs=1e-12)


def test_symmetrize_permutation_invariant(rng):
    for n in range(2, 7):
        pts = rng.normal(size=(n, 2))
        o = OrderedConfiguration(pts)
        f = lambda c: float(np.sum(c.points[:, 0] * np.arange(1, len(c) + 1)))
        base = symmetrize(f, o)
        for _ in range(5):
            perm = rng.permutation(n)
            assert symmetrize(f, o.permuted(perm)) == pytest.approx(base, abs=1e-12)


def test_symmetrize_stratum_guard():
    o = OrderedConfiguration(np.arange(10, dtype=float).reshape(-1, 1))
    with pytest.raises(StratumTooLarge):
        symmetrize(lambda c: 0.0, o)


# ---------------------------------------------------------------------------
# empirical_average
# ---------------------------------------------------------------------------

def test_empirical_average_mean_coordinate():
    u = Configuration([[0.0, 0.0], [2.0, 0.0]])
    assert empirical_average(lambda p: p[0], u) == pytest.approx(1.0)


def test_empirical_average_constant():
    u = Configuration([[0.0], [4.0], [9.0]])
    assert empirical_average(lambda p: 3.25, u) == 3.25


def test_empirical_average_squared_norm():
    u = Configuration([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    expected = (1.0 + 1.0 + 2.0) / 3.0  # direct summation oracle
    assert empirical_average(lambda p: float(p @ p), u) == pytest.approx(expected, abs=1e-15)


def test_empirical_average_empty():
    u = Configuration(np.empty((0, 2)))
    with pytest.raises(EmptyConfiguration):
        empirical_average(lambda p: 0.0, u)


def test_empirical_average_order_independent(rng):
    pts = rng.normal(size=(12, 3))
    f = lambda p: float(np.cos(p[0]) + p[1] * p[2])
    u = Configuration(pts)
    direct = sum(f(p) for p in pts) / len(pts)
    assert empirical_average(f, u) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# ambient space and relations
# ---------------------------------------------------------------------------

def test_metric_axioms_on_random_triples(rng):
    for _ in range(200):
        x, y, z = rng.normal(size=(3, 3))
        assert euclidean(x, x) == 0.0
        assert euclidean(x, y) == euclidean(y, x) >= 0.0
        assert euclidean(x, z) <= euclidean(x, y) + euclidean(y, z) + 1e-12


def test_relation_symmetry(rng):
    rel = default_relation()
    for _ in range(50):
        x, y = rng.normal(size=(2, 2))
        assert rel(x, y) == rel(y, x)
        assert not rel(x, x)


def test_compatible_implies_distinct(rng):
    rel = default_relation(tol_eq=1e-9)
    for _ in range(50):
        x, y = rng.normal(size=(2, 2))
        if rel(x, y):
            assert not np.array_equal(x, y)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_json_roundtrip_canonicalizes(tmp_path):
    obj = {"dim": 2, "points": [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
    u = configuration_from_dict(obj)
    assert u.points.tolist() == [[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
    out = configuration_to_dict(u)
    assert out == {"dim": 2, "points": [[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]}

    path = tmp_path / "cfg.json"
    write_json(configuration_to_dict(u), path)
    assert configuration_from_dict(read_json(path)) == u
    # file contents are already canonical
    assert json.loads(path.read_text())["points"] == out["points"]


def test_an_empty_configuration_file_keeps_its_dimension():
    for dim in (1, 2, 3):
        u = configuration_from_dict({"dim": dim, "points": []})
        assert u.points.shape == (0, dim) and configuration_to_dict(u) == {"dim": dim, "points": []}


@pytest.mark.parametrize("tol_eq", [-1.0, 0.0, math.nan, math.inf])
def test_nonpositive_or_nonfinite_tol_eq_rejected(tol_eq):
    with pytest.raises(ValueError, match="tol_eq"):
        Configuration([[0.0], [0.0]], tol_eq=tol_eq)


@pytest.mark.parametrize("cls", [OrderedConfiguration, Configuration, LocallyFiniteConfiguration])
def test_nonfinite_points_rejected(cls):
    """The shared point-tuple base: coercion, rejected input, read-only
    points, len and dimension."""
    u = cls([3.0, 1.0, 2.0])  # a flat list is n points on the line
    assert u.points.shape == (3, 1)
    v = cls([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    for w in (u, v):
        assert (len(w), w.dimension) == w.points.shape
        with pytest.raises(ValueError):
            w.points[0, 0] = 5.0
    for bad in ([[np.nan]], [[np.inf, 0.0]], np.zeros((2, 0))):
        with pytest.raises(ValueError):
            cls(bad)


@pytest.mark.parametrize(
    "points, dim, message",
    [
        (np.zeros((2, 2, 1)), None, r"expected an \(n, d\) array of points, got shape \(2, 2, 1\)"),
        ([[0.0, 1.0]], 3, "expected dimension 3, got 2"),
    ],
)
def test_point_arrays_of_the_wrong_shape_are_named(points, dim, message):
    with pytest.raises(ValueError, match=message):
        as_point_array(points, dim)


def test_a_permutation_must_be_one():
    with pytest.raises(ValueError, match="sigma is not a permutation of the index range"):
        OrderedConfiguration([[0.0], [1.0]]).permuted([0, 0])


# array-holding result types, each built fresh by a call
ARRAY_HOLDERS = {
    "LocallyFiniteConfiguration": lambda: LocallyFiniteConfiguration([[0.0, 0.0], [1.0, 2.0]]),
    "Chart": lambda: build_chart(LocallyFiniteConfiguration([[0.0], [1.0], [3.0]])),
    "Junction": lambda: make_split_loop(m=64).junctions()[0],
    "JetMatchResult": lambda: jet_match(make_split_loop(m=64).junctions()[0], lambda q: q[1]),
    "StratumEvent": lambda: StratumEvent(1.0, "merge", 2, 1, np.array([[0.0, 0.0]])),
    "BranchLocus": lambda: BranchLocus(np.array([0.1, 0.2]), 1, 2, 3.0),
    "Decomposition": lambda: Decomposition(np.array([[1.0, 2.0]]), None),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    x = make()
    assert x == x
    assert (x == make()) is False
    assert hash(x) == hash(x)


# ---------------------------------------------------------------------------
# Objects own their arrays; functions take any point tuple
# ---------------------------------------------------------------------------

def _index_answers_for_its_points(idx: GridIndex, raw: np.ndarray, before: np.ndarray) -> bool:
    d = np.linalg.norm(before - [5.0, 5.0], axis=1)
    scan = hausdorff_distance(before, before[:5])
    return (
        not idx.covers(raw)
        and idx.nearest([5.0, 5.0]) == (pytest.approx(d.min(), abs=1e-12), int(np.argmin(d)))
        and hausdorff_distance_indexed(before, before[:5] + 0, idx_u=idx) == pytest.approx(scan, abs=1e-12)
    )


THREE = LocallyFiniteConfiguration([[0.0], [1.0], [3.0]])
UNIFORM = np.random.default_rng(7).uniform(0.0, 10.0, size=(200, 2))

# name: (the caller's array, constructor, the array the object returns,
# a check that the object is still what it was built as)
OWNERS = {
    "OrderedConfiguration": (
        [[2.0, 3.0], [0.0, 1.0]], OrderedConfiguration, lambda o: o.points, None),
    "Configuration": ([[2.0, 3.0], [0.0, 1.0]], Configuration, lambda o: o.points, None),
    "LocallyFiniteConfiguration": (
        [[2.0, 3.0], [0.0, 1.0]], LocallyFiniteConfiguration, lambda o: o.points, None),
    "Chart.radii": (
        [0.25, 0.5, 1.0], lambda r: Chart(THREE, r), lambda c: c.radii, lambda c, *_: c.verify() == (True, None)),
    "Chart.base": (
        [[0.0], [1.0], [3.0]], lambda b: Chart(b, [0.25, 0.5, 1.0]), lambda c: c.base.points,
        lambda c, *_: c.verify() == (True, None)),
    "PathSegment": (np.linspace(0.0, 1.0, 18).reshape(9, 2), PathSegment, lambda g: g.values, None),
    "BranchedSectionSample.base_points": (
        [[0.0], [0.5]], lambda b: BranchedSectionSample(b, (None, None)), lambda s: s.base_points, None),
    "BranchedSectionSample.parameters": (
        [3.2, 3.3], lambda a: BranchedSectionSample([[0.0], [0.5]], (None, None), a), lambda s: s.parameters, None),
    "GridFunction.values": (np.ones((3, 4)), lambda v: GridFunction(v, 0.1), lambda f: f.values, None),
    "GridFunction.origin": (
        [0.5, -0.5], lambda o: GridFunction(np.ones((3, 4)), 0.1, o), lambda f: f.origin, None),
    "GridIndex": (UNIFORM, GridIndex, lambda idx: idx.points, _index_answers_for_its_points),
}


@pytest.mark.parametrize("values, build, read, still_valid", OWNERS.values(), ids=OWNERS.keys())
def test_objects_keep_a_read_only_copy_of_the_callers_array(values, build, read, still_valid):
    raw = np.array(values, dtype=float)
    before = raw.copy()
    obj = build(raw)
    kept = read(obj).copy()
    raw[...] = 5.0  # the caller's array stays writable
    assert np.array_equal(read(obj), kept)
    with pytest.raises(ValueError):
        read(obj)[...] = 0.0
    if still_valid is not None:
        assert still_valid(obj, raw, before)


def test_a_junction_point_and_its_jet_result_are_read_only():
    junction = make_split_loop(m=64).junctions()[0]
    result = jet_match(junction, lambda q: q[1])
    for point in (junction.point, result.junction):
        with pytest.raises(ValueError):
            point[...] = 0.0
    assert junction.point.tolist() == [-1.0, 0.0]


SORTED = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 3.0]])
OTHER = Configuration([[0.5, 0.0], [2.0, 2.0]])
# the chart's balls hold the points of SORTED, off their centres
NEAR = build_chart(LocallyFiniteConfiguration(SORTED + [0.1, -0.2]))

POINT_CALLS = {
    "hausdorff_distance": lambda u: hausdorff_distance(u, OTHER),
    "hausdorff_distance_indexed": lambda u: hausdorff_distance_indexed(u, OTHER),
    "dist_to_set": lambda u: dist_to_set([1.0, 1.0], u),
    "GridIndex": lambda u: GridIndex(u).nearest([1.0, 1.0]),
    "separations": separations,
    "build_chart": lambda u: build_chart(u).radii,
    "chart_invert": lambda u: chart_invert(NEAR, u),
    "validate": validate,
    "canonicalize": lambda u: canonicalize(u).points,
}


@pytest.mark.parametrize("tuple_cls", [OrderedConfiguration, Configuration, LocallyFiniteConfiguration])
@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS.keys())
def test_functions_take_any_point_tuple_as_its_array(call, tuple_cls):
    np.testing.assert_equal(call(tuple_cls(SORTED)), call(SORTED.copy()))


def test_validate_and_canonicalize_check_an_ordered_configurations_own_relation():
    far = lambda x, y: euclidean(x, y) > 1.5
    o = OrderedConfiguration(SORTED, far)
    assert validate(o) == (False, (0, 1))
    with pytest.raises(CompatibilityViolation) as err:
        canonicalize(o)
    assert err.value.pair == (0, 1)
