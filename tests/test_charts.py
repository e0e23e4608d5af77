import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from branchspace import (
    Chart,
    DuplicatePoints,
    LengthMismatch,
    LocallyFiniteConfiguration,
    NotInDomain,
    NotInOverlap,
    OutOfUnitBall,
    SingletonConfiguration,
    build_chart,
    chart_apply,
    chart_invert,
    separations,
    transition,
    transition_jacobian,
    validate,
)
from branchspace.charts import ball_assignment, chart_from_dict, chart_to_dict

from conftest import random_configuration


def three_points():
    return LocallyFiniteConfiguration(np.array([[0.0], [1.0], [3.0]]))


def random_window(rng, n, dim, scale=10.0):
    cfg = random_configuration(rng, n, dim, scale)
    pts = cfg.points[rng.permutation(n)]  # charts keep arbitrary order
    return LocallyFiniteConfiguration(pts)


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def test_separation_nearest_neighbor_scan():
    u = three_points()
    assert separations(u)[0] == 1.0
    assert separations(u)[1] == 1.0
    assert separations(u)[2] == 2.0


def test_separation_uniform_grid_interior():
    h = 0.75
    u = LocallyFiniteConfiguration((np.arange(9, dtype=float) * h).reshape(-1, 1))
    sep = separations(u)
    assert np.allclose(sep, h)


def test_separation_positive_on_random_windows(rng):
    for _ in range(30):
        u = random_window(rng, int(rng.integers(2, 60)), int(rng.integers(1, 4)))
        assert np.all(separations(u) > 0.0)


def test_separation_singleton_rejected():
    u = LocallyFiniteConfiguration(np.array([[0.0]]))
    with pytest.raises(SingletonConfiguration):
        separations(u)


def separations_by_definition(pts):
    """Each point's least distance to another point, from the n x n matrix."""
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-4.0, 4.0))] * d),
            min_size=2,
            max_size=8,
        )
    ),
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)), max_size=3),
    st.lists(st.integers(0, 7), max_size=3),
    st.randoms(use_true_random=False),
)
@settings(deadline=None)
def test_separations_match_their_definition(rows, piles, nudged, random):
    # piles of 2-4 equal rows, and rows moved by 1e-170, whose squared
    # distance from the original underflows (or which stay equal to it)
    pts = [list(r) for r in rows]
    pts += [pts[k % len(rows)] for k, copies in piles for _ in range(copies)]
    pts += [[pts[k % len(rows)][0] + 1e-170] + pts[k % len(rows)][1:] for k in nudged]
    random.shuffle(pts)
    pts = np.array(pts)
    assert np.all(separations(pts) == separations_by_definition(pts))


def test_separations_of_a_pile_of_coincident_points_come_at_once():
    assert not np.any(separations(np.zeros((100_000, 2))))


# ---------------------------------------------------------------------------
# build_chart
# ---------------------------------------------------------------------------

def test_build_chart_half_separations():
    chart = build_chart(three_points())
    assert chart.radii.tolist() == [0.5, 0.5, 1.0]


def test_build_chart_symmetric_pair():
    u = LocallyFiniteConfiguration(np.array([[0.0], [2.0]]))
    assert build_chart(u).radii.tolist() == [1.0, 1.0]


def test_build_chart_balls_disjoint_random(rng):
    u = random_window(rng, 100, 2)
    chart = build_chart(u)
    pts, r = u.points, chart.radii
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(d, np.inf)
    assert np.all(r[:, None] + r[None, :] <= d + 1e-12)  # balls disjoint
    assert np.all(2.0 * r[:, None] <= d + 1e-12)  # doubled balls miss other points
    ok, why = chart.verify()
    assert ok, why


def test_build_chart_duplicates_rejected():
    u = LocallyFiniteConfiguration(np.array([[0.0], [1e-12]]))
    with pytest.raises(DuplicatePoints):
        build_chart(u)


@pytest.mark.parametrize("tol_eq", [np.nan, -1.0, 0.0, np.inf])
def test_build_chart_rejects_a_bad_tolerance(tol_eq):
    # with tol_eq = nan, distinct points were reported as duplicates
    with pytest.raises(ValueError, match="tol_eq must be finite and positive"):
        build_chart([[0.0], [1.0]], tol_eq=tol_eq)


def test_build_chart_names_a_duplicate_by_its_input_index():
    # the duplicated point sorts first, at position 0
    with pytest.raises(DuplicatePoints, match="^point 1 has a neighbor"):
        build_chart(LocallyFiniteConfiguration([[3.0], [1.0], [2.0], [1.0]]))


def test_a_pile_of_coincident_points_is_rejected_at_once():
    with pytest.raises(DuplicatePoints, match="^point 0 has a neighbor"):
        build_chart(LocallyFiniteConfiguration(np.zeros((100_000, 2))))


def test_a_chart_over_a_pile_of_coincident_points_is_rejected_at_once():
    with pytest.raises(ValueError, match="captures another base point"):
        Chart(LocallyFiniteConfiguration(np.zeros((100_000, 2))), np.ones(100_000))


def test_chart_invariant_enforced():
    with pytest.raises(ValueError):
        Chart(three_points(), np.array([5.0, 5.0, 5.0]))
    with pytest.raises(ValueError):
        Chart(three_points(), np.array([0.5, -0.5, 1.0]))
    # tiny radii over coincident points, and radii five times a tiny gap
    with pytest.raises(ValueError):
        Chart(LocallyFiniteConfiguration([[0.0], [0.0], [1.0]]), np.array([1e-13, 1e-13, 0.5]))
    with pytest.raises(ValueError):
        Chart(LocallyFiniteConfiguration([[0.0], [1e-13]]), np.array([5e-13, 5e-13]))


def test_nan_radii_are_rejected():
    with pytest.raises(ValueError, match="strictly positive"):
        Chart([[0.0], [1.0]], [np.nan, np.nan])
    obj = chart_to_dict(build_chart(three_points()))
    obj["radii"][1] = float("nan")
    with pytest.raises(ValueError, match="strictly positive"):
        chart_from_dict(obj)


# ---------------------------------------------------------------------------
# verify and ball_assignment against their n x n definitions
# ---------------------------------------------------------------------------

def pairwise(a, b):
    return np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1))


def verify_by_definition(base, r, slack=1e-12):
    """Radii positive, balls pairwise disjoint, doubled balls free of
    other base points: every pair checked, with a relative slack."""
    d = pairwise(base, base) * (1.0 + slack)
    np.fill_diagonal(d, np.inf)
    return bool(
        np.all(r > 0)
        and np.all(r[:, None] + r[None, :] <= d)
        and np.all(2.0 * r[:, None] <= d)
    )


def ball_assignment_by_definition(base, r, pts, tol_eq=1e-9):
    """pi from every (point, ball) distance, or None when some point is
    on a boundary, in no ball, in several balls, or shares its ball."""
    d = pairwise(pts, base)
    if np.any(np.abs(d - r[None, :]) <= tol_eq):
        return None
    pi = np.full(len(r), -1)
    for j, row in enumerate(d < r[None, :]):
        hits = np.flatnonzero(row)
        if hits.size != 1 or pi[hits[0]] >= 0:
            return None
        pi[hits[0]] = j
    return pi


@st.composite
def chart_cases(draw):
    """A base on jittered integer cells (coordinates below 1e4, where
    tol_eq is far above the rounding error of a distance), one radius
    factor per point relative to half its separation, and one probe point
    per ball: inside, on or near the boundary, outside, or in another ball."""
    dim = draw(st.integers(1, 3))
    cell = st.tuples(*[st.integers(-4, 4)] * dim)
    cells = np.array(draw(st.lists(cell, min_size=2, max_size=10, unique=True)), dtype=float)
    n = cells.shape[0]
    unit = st.floats(-0.3, 0.3, allow_nan=False)
    jitter = np.array(draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), min_size=n, max_size=n)))
    base = (cells + jitter) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    d = pairwise(base, base)
    np.fill_diagonal(d, np.inf)
    if draw(st.booleans()):  # radii within the bound
        factor = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1.0))
    else:
        factor = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.001, 1.5]), st.floats(0.01, 1.5))
    radii = np.array(draw(st.lists(factor, min_size=n, max_size=n))) * np.min(d, axis=1) / 2.0
    kinds = ["inside"]
    if draw(st.booleans()):
        kinds += ["boundary", "near-boundary", "outside", "other-ball"]

    probes = []
    for i in range(n):
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 1e-3 else np.eye(dim)[0]
        kind = draw(st.sampled_from(kinds))
        k = draw(st.integers(0, n - 1)) if kind == "other-ball" else i
        t = {
            "inside": draw(st.floats(0.0, 0.95)),
            "boundary": 1.0,
            "near-boundary": 1.0 + draw(st.sampled_from([-0.5e-9, 0.5e-9])) / max(radii[k], 1e-300),
            "outside": draw(st.floats(1.05, 3.0)),
            "other-ball": draw(st.floats(0.0, 0.95)),
        }[kind]
        probes.append(base[k] + t * radii[k] * direction)
    order = draw(st.permutations(range(n)))
    return base, radii, np.array(probes)[list(order)]


@given(chart_cases())
@settings(deadline=None, max_examples=300)
def test_verify_and_ball_assignment_match_definitions(case):
    base, radii, probes = case
    lfc = LocallyFiniteConfiguration(base)
    if not verify_by_definition(base, radii):
        with pytest.raises(ValueError):
            Chart(lfc, radii)
        return
    chart = Chart(lfc, radii)
    assert chart.verify() == (True, None)
    want = ball_assignment_by_definition(base, radii, probes)
    if want is None:
        with pytest.raises(NotInDomain):
            ball_assignment(chart, probes)
    else:
        assert np.array_equal(ball_assignment(chart, probes), want)


# ---------------------------------------------------------------------------
# chart_apply / chart_invert
# ---------------------------------------------------------------------------

def test_apply_zero_is_identity():
    chart = build_chart(three_points())
    out = chart_apply(chart, np.zeros((3, 1)))
    assert np.array_equal(out.points, chart.base.points)


def test_apply_scales_by_radii():
    chart = build_chart(three_points())
    out = chart_apply(chart, np.array([[0.5], [-0.5], [0.25]]))
    assert np.allclose(out.points.ravel(), [0.25, 0.75, 3.25], atol=0.0)


def test_apply_output_is_valid_configuration(rng):
    for _ in range(20):
        u = random_window(rng, int(rng.integers(2, 40)), int(rng.integers(1, 4)))
        chart = build_chart(u)
        z = rng.uniform(-1.0, 1.0, size=u.points.shape)
        z *= 0.95 / np.maximum(1.0, np.sqrt(np.sum(z**2, axis=1)))[:, None]
        out = chart_apply(chart, z)
        ok, _ = validate(out.points)
        assert ok


def test_apply_rejects_out_of_ball():
    chart = build_chart(three_points())
    with pytest.raises(OutOfUnitBall):
        chart_apply(chart, np.array([[1.0], [0.0], [0.0]]))


def test_apply_rejects_wrong_length():
    chart = build_chart(three_points())
    with pytest.raises(LengthMismatch):
        chart_apply(chart, np.zeros((2, 1)))


def test_a_chart_needs_one_radius_per_base_point():
    with pytest.raises(LengthMismatch, match="one radius per base point"):
        Chart(three_points(), [0.1, 0.1])


def test_invert_rejects_wrong_length():
    chart = build_chart(three_points())
    with pytest.raises(LengthMismatch, match="expected 3 points, got 2"):
        chart_invert(chart, np.array([[0.0], [1.0]]))


def test_invert_base_gives_zero():
    chart = build_chart(three_points())
    z = chart_invert(chart, chart.base)
    assert np.array_equal(z, np.zeros((3, 1)))


def test_invert_roundtrip():
    chart = build_chart(three_points())
    z = np.array([[0.5], [-0.5], [0.25]])
    back = chart_invert(chart, chart_apply(chart, z))
    assert np.allclose(back, z, atol=1e-12)


def test_invert_displaced_point_not_in_domain():
    chart = build_chart(three_points())
    v = LocallyFiniteConfiguration(np.array([[0.0], [1.0], [5.0]]))
    with pytest.raises(NotInDomain):
        chart_invert(chart, v)


def test_invert_two_points_in_one_ball():
    u = LocallyFiniteConfiguration(np.array([[0.0], [10.0]]))
    chart = build_chart(u)  # radii (5, 5)
    v = LocallyFiniteConfiguration(np.array([[-1.0], [1.0]]))
    with pytest.raises(NotInDomain):
        chart_invert(chart, v)


def test_invert_boundary_point_ambiguous():
    chart = build_chart(three_points())
    v = LocallyFiniteConfiguration(np.array([[0.5], [1.2], [3.0]]))  # 0.5 on ball-0 boundary
    with pytest.raises(NotInDomain):
        chart_invert(chart, v)


def test_roundtrips_random(rng):
    for _ in range(25):
        u = random_window(rng, int(rng.integers(2, 80)), int(rng.integers(1, 4)))
        chart = build_chart(u)
        z = rng.uniform(-1.0, 1.0, size=u.points.shape)
        z *= 0.9 / np.maximum(1.0, np.sqrt(np.sum(z**2, axis=1)))[:, None]
        v = chart_apply(chart, z)
        z_back = chart_invert(chart, v)
        assert np.allclose(z_back, z, atol=1e-12)
        v_again = chart_apply(chart, z_back)
        assert np.allclose(v_again.points, v.points, atol=1e-12)


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------

def overlapping_charts(rng, n, dim):
    u = random_window(rng, n, dim)
    c1 = build_chart(u)
    jitter = rng.uniform(-1.0, 1.0, size=u.points.shape)
    jitter *= (0.1 * c1.radii / np.maximum(1e-300, np.sqrt(np.sum(jitter**2, axis=1))))[:, None]
    c2 = build_chart(LocallyFiniteConfiguration(u.points + jitter))
    return c1, c2


def test_transition_identity_chart():
    chart = build_chart(three_points())
    z = np.array([[0.3], [-0.2], [0.7]])
    assert np.allclose(transition(chart, chart, z), z, atol=1e-15)


def test_transition_halved_radii():
    base = three_points()
    c1 = build_chart(base)
    c2 = Chart(base, c1.radii / 2.0)
    z = np.array([[0.6], [-0.8], [0.9]])
    assert np.allclose(transition(c1, c2, z), z / 2.0, atol=1e-15)


def test_transition_roundtrip(rng):
    for _ in range(10):
        c1, c2 = overlapping_charts(rng, int(rng.integers(2, 30)), 2)
        z = rng.uniform(-1.0, 1.0, size=(len(c2), 2))
        z *= 0.3 / np.maximum(1.0, np.sqrt(np.sum(z**2, axis=1)))[:, None]
        w = transition(c1, c2, z)
        back = transition(c2, c1, w)
        assert np.allclose(back, z, atol=1e-12)


def test_transition_out_of_overlap():
    c1 = build_chart(three_points())
    far = LocallyFiniteConfiguration(np.array([[10.0], [11.0], [13.0]]))
    c2 = build_chart(far)
    with pytest.raises(NotInOverlap):
        transition(c1, c2, np.zeros((3, 1)))


def central_difference_jacobian(fn, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out0 = fn(z).ravel()
    jac = np.empty((out0.size, flat.size))
    for j in range(flat.size):
        zp, zm = flat.copy(), flat.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (fn(zp.reshape(z.shape)).ravel() - fn(zm.reshape(z.shape)).ravel()) / (2 * h)
    return jac


def test_transition_jacobian_matches_finite_differences(rng):
    for _ in range(6):
        n = int(rng.integers(2, 7))
        c1, c2 = overlapping_charts(rng, n, 2)
        z = rng.uniform(-0.2, 0.2, size=(n, 2))
        analytic = transition_jacobian(c1, c2, z).toarray()
        numeric = central_difference_jacobian(lambda zz: transition(c1, c2, zz), z)
        assert np.allclose(numeric, analytic, atol=1e-6)
        # block structure: one scale per matched block, identity within
        d = 2
        for i in range(n):
            row = analytic[i * d : (i + 1) * d]
            nz = np.flatnonzero(np.any(row != 0.0, axis=0))
            assert len(nz) == d and nz[1] == nz[0] + 1


def jacobian_by_definition(c1, c2, pi):
    n, d = len(c1), c1.base.dimension
    jac = np.zeros((n * d, n * d))
    for i in range(n):
        j = int(pi[i])
        jac[i * d : (i + 1) * d, j * d : (j + 1) * d] = (c2.radii[j] / c1.radii[i]) * np.eye(d)
    return jac


def test_transition_jacobian_is_the_sparse_block_permutation(rng):
    for d in (1, 2, 3):
        for _ in range(5):
            n = int(rng.integers(2, 40))
            c1, c2 = overlapping_charts(rng, n, d)
            perm = rng.permutation(n)
            # point k of the shuffled c2 lies in ball perm[k] of c1
            c2 = Chart(c2.base.points[perm], c2.radii[perm])
            z = rng.uniform(-0.2, 0.2, size=(n, d))
            jac = transition_jacobian(c1, c2, z)
            assert isinstance(jac, csr_array) and jac.nnz == n * d
            assert np.array_equal(jac.toarray(), jacobian_by_definition(c1, c2, np.argsort(perm)))


def test_transition_jacobian_holds_only_its_block_values():
    n, d = 10**5, 3
    chart = build_chart(np.random.default_rng(1).uniform(size=(n, d)))
    jac = transition_jacobian(chart, chart, np.zeros((n, d)))
    assert jac.shape == (n * d, n * d) and jac.nnz == n * d
    assert jac.data.nbytes + jac.indices.nbytes + jac.indptr.nbytes < 10 * 2**20


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def test_chart_json_roundtrip_preserves_order():
    pts = np.array([[3.0], [0.0], [1.0]])  # deliberately non-canonical order
    chart = build_chart(LocallyFiniteConfiguration(pts))
    back = chart_from_dict(chart_to_dict(chart))
    assert np.array_equal(back.base.points, pts)
    assert np.array_equal(back.radii, chart.radii)
