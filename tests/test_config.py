import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchspace import (
    DEFAULT_TOL_EQ,
    AmbientSpace,
    CompatibilityViolation,
    Configuration,
    EmptyConfiguration,
    OrderedConfiguration,
    StratumTooLarge,
    canonicalize,
    configuration_from_dict,
    configuration_to_dict,
    default_relation,
    empirical_average,
    euclidean_space,
    symmetrize,
    validate,
)
from branchspace.config import read_json, write_json

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
    assert c == Configuration.from_points([[0.0], [5e-10]], tol_eq=1e-10)
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
        Configuration.from_points(pts)
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
        assert np.array_equal(Configuration.from_points(pts).points, sorted_pts)
        return
    with pytest.raises(CompatibilityViolation) as err:
        Configuration.from_points(pts)
    i, j = err.value.pair
    assert i < j and dist[i, j] == np.min(dist)
    if len(closest) == 2:  # one closest pair, seen from both ends
        assert (i, j) == tuple(closest[0])


def test_equal_configurations_are_one_set_member():
    a = Configuration.from_points([[0.0, 1.0], [2.0, -0.0]])
    b = Configuration.from_points([[2.0, 0.0], [0.0, 1.0]])
    c = Configuration.from_points([[2.0, 0.0]])
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
    ok, _ = validate(np.array([[0.0], [5e-10]]), rel)
    assert not ok
    ok, _ = validate(np.array([[0.0], [2e-9]]), rel)
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
    u = Configuration.from_points([[0.0, 0.0], [2.0, 0.0]])
    assert empirical_average(lambda p: p[0], u) == pytest.approx(1.0)


def test_empirical_average_constant():
    u = Configuration.from_points([[0.0], [4.0], [9.0]])
    assert empirical_average(lambda p: 3.25, u) == 3.25


def test_empirical_average_squared_norm():
    u = Configuration.from_points([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    expected = (1.0 + 1.0 + 2.0) / 3.0  # direct summation oracle
    assert empirical_average(lambda p: float(p @ p), u) == pytest.approx(expected, abs=1e-15)


def test_empirical_average_empty():
    u = Configuration.from_points(np.empty((0, 2)))
    with pytest.raises(EmptyConfiguration):
        empirical_average(lambda p: 0.0, u)


def test_empirical_average_order_independent(rng):
    pts = rng.normal(size=(12, 3))
    f = lambda p: float(np.cos(p[0]) + p[1] * p[2])
    u = Configuration.from_points(pts)
    direct = sum(f(p) for p in pts) / len(pts)
    assert empirical_average(f, u) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# ambient space and relations
# ---------------------------------------------------------------------------

def test_metric_axioms_on_random_triples(rng):
    space = euclidean_space(3)
    for _ in range(200):
        x, y, z = rng.normal(size=(3, 3))
        assert space.distance(x, x) == 0.0
        assert space.distance(x, y) == space.distance(y, x) >= 0.0
        assert space.distance(x, z) <= space.distance(x, y) + space.distance(y, z) + 1e-12


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


@pytest.mark.parametrize("tol_eq", [-1.0, 0.0, math.nan, math.inf])
def test_nonpositive_or_nonfinite_tol_eq_rejected(tol_eq):
    with pytest.raises(ValueError, match="tol_eq"):
        Configuration([[0.0], [0.0]], tol_eq=tol_eq)
    with pytest.raises(ValueError, match="tol_eq"):
        AmbientSpace(dimension=1, tol_eq=tol_eq)


def test_nonfinite_points_rejected():
    with pytest.raises(ValueError):
        Configuration.from_points([[np.nan]])
    with pytest.raises(ValueError):
        OrderedConfiguration(np.array([[np.inf, 0.0]]))
