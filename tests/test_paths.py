import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchspace import (
    BranchedPath,
    EndpointMismatch,
    InsufficientResolution,
    PathSegment,
    compose,
    hausdorff_distance,
    jet_match,
    make_split_loop,
    validate_branched,
)
from branchspace import paths
from branchspace.paths import (
    MAX_JET_ORDER,
    branched_path_from_dict,
    branched_path_to_dict,
    branched_path_to_dot,
    fd_weights,
    segments_compatible,
)

from conftest import dyadic_split_loop, revisit_path, segment_image_distance

FX = lambda q: float(q[0])
FY = lambda q: float(q[1])


def line(a, b, m=64):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return PathSegment.from_function(lambda t: a + t * (b - a), m)


# ---------------------------------------------------------------------------
# segments and composition
# ---------------------------------------------------------------------------

def test_segment_grid_and_endpoints():
    g = PathSegment.from_function(lambda t: (t, t * t), 16)
    assert g.intervals == 16
    assert g.alpha.tolist() == [0.0, 0.0]
    assert g.omega.tolist() == [1.0, 1.0]
    assert np.allclose(g.at(0.5), [0.5, 0.25], atol=1e-12)


@pytest.mark.parametrize("m", [True, 8.5])
def test_segment_interval_count_must_be_an_integer(m):
    # m = 8.5 used to sample t = k/8.5 up to 1.059, outside [0, 1]
    with pytest.raises(ValueError, match="m must be an integer"):
        PathSegment.from_function(lambda t: (t, 0.0), m)


@pytest.mark.parametrize("m", [0, 7])
def test_segment_interval_count_must_be_at_least_min_intervals(m):
    # m = 0 used to divide by zero and then report non-finite coordinates
    with pytest.raises(ValueError, match=f"m must be at least 8, got {m}"):
        PathSegment.from_function(lambda t: (t, 0.0), m)


def test_segment_at_interpolates_between_samples():
    g = PathSegment([[float(k), float(k * k)] for k in range(9)])
    assert np.array_equal(g.at(0.0), g.alpha)
    assert np.array_equal(g.at(1.0), g.omega)
    assert g.at(0.25).tolist() == [2.0, 4.0]
    assert g.at(0.3125).tolist() == [2.5, 6.5]
    with pytest.raises(ValueError):
        g.at(1.5)


def test_segment_minimum_resolution():
    with pytest.raises(ValueError):
        PathSegment(np.zeros((5, 2)))


def test_compose_constant_segments():
    p = [2.0, -1.0]
    g = PathSegment.from_function(lambda t: p, 8)
    out = compose(g, g)
    assert np.allclose(out.values, p, atol=0.0)


def test_compose_concatenates_lines():
    g1 = PathSegment.from_function(lambda t: (t, 0.0), 32)
    g2 = PathSegment.from_function(lambda t: (1.0 + t, 0.0), 32)
    out = compose(g1, g2)
    assert out.alpha.tolist() == [0.0, 0.0]
    assert out.omega.tolist() == [2.0, 0.0]
    assert np.allclose(out.at(0.5), [1.0, 0.0], atol=0.0)
    # sample-level: first half is g1's samples, second half g2's
    assert np.allclose(out.values[: 32 + 1], g1.values, atol=0.0)
    assert np.allclose(out.values[32:], g2.values, atol=0.0)


def test_compose_endpoint_mismatch():
    g1 = line((0.0, 0.0), (1.0, 0.0))
    g2 = line((1.5, 0.0), (2.0, 0.0))
    with pytest.raises(EndpointMismatch) as err:
        compose(g1, g2)
    assert err.value.gap == pytest.approx(0.5)


def test_compose_endpoint_algebra():
    g1 = line((0.0, 1.0), (2.0, 2.0))
    g2 = line((2.0, 2.0), (0.0, 5.0))
    out = compose(g1, g2)
    assert np.array_equal(out.alpha, g1.alpha)
    assert np.array_equal(out.omega, g2.omega)


def test_compose_associativity_on_images():
    g1 = line((0.0, 0.0), (1.0, 0.0))
    g2 = PathSegment.from_function(lambda t: (1.0 + np.sin(0.5 * np.pi * t), 1.0 - np.cos(0.5 * np.pi * t)), 64)
    g3 = line((2.0, 1.0), (2.0, 3.0))
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert segment_image_distance(left, right) <= 1e-9


# ---------------------------------------------------------------------------
# branched path validation
# ---------------------------------------------------------------------------

def test_split_loop_validates():
    report = validate_branched(make_split_loop(m=256))
    assert report.ok


def test_single_stage_validates():
    bp = BranchedPath([[line((0.0,), (1.0,))]])
    assert validate_branched(bp).ok


def test_split_loop_endpoint_formulas():
    bp = make_split_loop(m=256)
    (g_in,), (g_up, g_dn), (g_out,) = bp.stages
    assert np.allclose(g_in.omega, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(g_up.alpha, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(g_dn.alpha, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(g_up.omega, [1.0, 0.0], atol=1e-12)
    assert np.allclose(g_dn.omega, [1.0, 0.0], atol=1e-12)
    assert np.allclose(g_out.alpha, [1.0, 0.0], atol=1e-12)


def test_translated_final_segment_reports_gap():
    report = validate_branched(make_split_loop(m=256, final_offset=(0.0, 0.1)))
    assert not report.ok
    assert report.gap == pytest.approx(0.1, abs=1e-9)


def test_validation_invariant_under_stage_reordering():
    bp = make_split_loop(m=64)
    flipped = BranchedPath([bp.stages[0], tuple(reversed(bp.stages[1])), bp.stages[2]])
    assert validate_branched(flipped).ok


def test_incompatible_duplicate_segments_rejected():
    g = line((0.0, 0.0), (1.0, 0.0))
    report = validate_branched(BranchedPath([[g, g]]))
    assert not report.ok
    assert "incompatible" in report.reason


@pytest.mark.parametrize(
    "stages, message",
    [
        ([[line((0.0, 0.0), (1.0, 0.0)), line((0.0,), (1.0,))]], "segment 1 of stage 0 has dimension 1, segment 0 of stage 0 has 2"),
        ([[line((0.0,), (1.0,))], [line((1.0, 0.0, 0.0), (2.0, 0.0, 0.0))]], "segment 0 of stage 1 has dimension 3, segment 0 of stage 0 has 1"),
    ],
)
def test_mixed_dimensions_are_named(stages, message):
    with pytest.raises(ValueError, match=message):
        BranchedPath(stages)


@pytest.mark.parametrize("stages", [[], [[]]])
def test_a_branched_path_needs_a_nonempty_stage(stages):
    with pytest.raises(ValueError, match="a branched path needs at least one nonempty stage"):
        BranchedPath(stages)


def test_same_endpoints_different_images_compatible():
    up = PathSegment.from_function(lambda t: (t, np.sin(np.pi * t)), 64)
    dn = PathSegment.from_function(lambda t: (t, -np.sin(np.pi * t)), 64)
    assert segments_compatible(up, dn)
    assert validate_branched(BranchedPath([[up, dn]])).ok


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def vandermonde_weights(deriv, offsets):
    # oracle: solve sum_j w_j o_j^i / i! = [i == deriv] in floating point
    offs = np.asarray(offsets, dtype=float)
    vander = np.vstack([offs**i / math.factorial(i) for i in range(offs.shape[0])])
    rhs = np.zeros(offs.shape[0])
    rhs[deriv] = 1.0
    return np.linalg.solve(vander, rhs)


def test_fd_weights_standard_stencils():
    assert fd_weights(1, (0, 1, 2)) == (-1.5, 2.0, -0.5)
    assert fd_weights(2, (-1, 0, 1)) == (1.0, -2.0, 1.0)


@pytest.mark.parametrize("k", range(1, MAX_JET_ORDER + 1))
def test_fd_weights_match_the_vandermonde_solve_and_mirror_exactly(k):
    offsets = tuple(range(k + 4))
    mirrored = tuple(-o for o in offsets)
    for offs in (offsets, mirrored):
        assert np.allclose(fd_weights(k, offs), vandermonde_weights(k, offs), rtol=1e-12, atol=0.0)
    assert fd_weights(k, mirrored) == tuple((-1) ** k * w for w in fd_weights(k, offsets))


def test_fd_weights_reject_a_negative_or_too_high_order():
    with pytest.raises(ValueError):
        fd_weights(-1, (0, 1, 2))
    with pytest.raises(ValueError):
        fd_weights(3, (0, 1, 2))


def test_fd_exact_on_polynomials():
    # stencil with k+4 points differentiates degree <= k+3 exactly
    m = 32
    t = np.arange(m + 1) / m
    samples = 2.0 * t**3 - t + 0.5
    from branchspace.paths import _one_sided_derivative

    assert _one_sided_derivative(samples, 1, True) == pytest.approx(-1.0, abs=1e-9)
    assert _one_sided_derivative(samples, 2, True) == pytest.approx(0.0, abs=1e-8)
    assert _one_sided_derivative(samples, 3, True) == pytest.approx(12.0, abs=1e-7)
    assert _one_sided_derivative(samples, 1, False) == pytest.approx(5.0, abs=1e-9)


def test_straight_line_passes_every_order():
    g_in = line((-1.0, 0.0), (0.0, 0.0), m=64)
    g_out = line((0.0, 0.0), (1.0, 0.0), m=64)
    (junction,) = BranchedPath([[g_in], [g_out]]).junctions()
    for order in range(1, 6):
        res = jet_match(junction, FX, order=order)
        assert res.passed, res.residuals


def test_split_junction_first_order_cancels():
    # outgoing arcs leave vertically with opposite speeds: pi - pi = 0,
    # matching the flat incoming line
    left, _ = make_split_loop(m=256).junctions()
    res = jet_match(left, FY, order=1)
    assert res.incoming == 1 and res.outgoing == 2
    assert res.residuals[1] <= 1e-8
    assert res.passed


def test_split_junction_order_three_residuals_small():
    junctions = make_split_loop(m=256).junctions()
    assert np.allclose([j.point for j in junctions], [[-1.0, 0.0], [1.0, 0.0]], rtol=0.0, atol=1e-12)
    for junction in junctions:
        for f in (FX, FY):
            res = jet_match(junction, f, order=3)
            assert res.residuals[3] <= 1e-4


def test_split_junction_mirror_symmetry_breaks_at_low_orders():
    # the incoming line moves horizontally while the arc pair leaves
    # vertically: the x sums genuinely disagree at orders 1 and 2
    left, _ = make_split_loop(m=256).junctions()
    res = jet_match(left, FX, order=3)
    assert res.residuals[1] == pytest.approx(1.0, abs=1e-6)
    assert res.residuals[2] == pytest.approx(2.0 * math.pi**2, abs=1e-4)
    assert not res.passed


def test_mirror_junctions_of_an_exactly_sampled_split_report_equal_residuals():
    # the two junctions are mirror images and every sample is exact, so the
    # exact stencil weights and sums give bitwise equal residuals
    left, right = dyadic_split_loop().junctions()
    for k in range(1, MAX_JET_ORDER + 1):
        assert jet_match(left, FX, k).residuals == jet_match(right, FX, k).residuals
        assert set(jet_match(left, FY, k).residuals.values()) == {0.0}
        assert set(jet_match(right, FY, k).residuals.values()) == {0.0}


def test_perturbed_arc_fails_second_order():
    bp = make_split_loop(m=256)
    broken = PathSegment.from_function(
        lambda t: (np.cos(np.pi * (1.0 - t)), -np.sin(np.pi * t) + t * t), 256
    )
    left, _ = BranchedPath([bp.stages[0], (bp.stages[1][0], broken), bp.stages[2]]).junctions()
    res1 = jet_match(left, FY, order=1)
    assert res1.passed  # first derivatives still cancel
    res2 = jet_match(left, FY, order=2)
    assert res2.residuals[2] == pytest.approx(2.0, abs=1e-4)
    assert not res2.passed


def test_jet_residual_converges_at_least_second_order():
    # true order-3 residual is zero for the x coordinate; the measured
    # residual is pure truncation error and must shrink by >= 4x per
    # sampling refinement
    residuals = []
    for m in (32, 64, 128):
        left, _ = make_split_loop(m=m).junctions()
        residuals.append(jet_match(left, FX, order=3).residuals[3])
    assert residuals[1] <= residuals[0] / 3.9
    assert residuals[2] <= residuals[1] / 3.9


def test_jet_errors():
    left, _ = make_split_loop(m=256).junctions()
    with pytest.raises(ValueError):
        jet_match(left, FX, order=6)
    tiny, _ = make_split_loop(m=8).junctions()
    with pytest.raises(InsufficientResolution):
        jet_match(tiny, FX, order=5)


@pytest.mark.parametrize("order", [True, 2.5])
def test_jet_order_must_be_an_integer(order):
    # True used to compare order 1 only
    left, _ = make_split_loop(m=256).junctions()
    with pytest.raises(ValueError, match="order must be an integer"):
        jet_match(left, FX, order=order)


def test_jets_compare_one_boundary():
    # B = (1, 0) is a junction at boundaries 0 and 2, each with its own segments
    bp = revisit_path()
    assert validate_branched(bp).ok
    first, _, last = bp.junctions()
    assert (first.boundary, first.point.tolist()) == (0, [1.0, 0.0])
    assert (last.boundary, last.point.tolist()) == (2, [1.0, 0.0])
    res = jet_match(first, FX, order=1)
    assert (res.incoming, res.outgoing) == (1, 1)
    assert res.residuals[1] <= 1e-9
    assert jet_match(last, FX, order=1).residuals[1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the path's tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tol_eq", [0.0, -1e-9, math.nan, math.inf])
def test_branched_path_rejects_a_bad_tolerance(tol_eq):
    with pytest.raises(ValueError, match="tol_eq must be finite and positive"):
        BranchedPath(make_split_loop(m=16).stages, tol_eq)


def test_the_path_tolerance_decides_gluing_junctions_and_dot():
    # the lower arc ends 1e-7 above the common end (1, 0)
    (g_in,), (g_up, g_dn), (g_out,) = make_split_loop(m=64).stages
    lifted = PathSegment(g_dn.values + np.outer(np.arange(65) / 64, [0.0, 1e-7]))
    stages = [[g_in], [g_up, lifted], [g_out]]
    tight, loose = BranchedPath(stages), BranchedPath(stages, 1e-6)
    assert loose.tol_eq == 1e-6
    assert validate_branched(tight).gap == pytest.approx(1e-7, rel=1e-6)
    assert validate_branched(loose).ok
    assert (len(tight.omega_config(1)), len(loose.omega_config(1))) == (2, 1)
    # the lifted end has no start at the tight tolerance, so no junction
    assert [j.boundary for j in tight.junctions()] == [0, 1]
    assert jet_match(tight.junctions()[1], FY, order=1).incoming == 1
    assert jet_match(loose.junctions()[1], FY, order=1).incoming == 2
    # the DOT node after stage 1 lists two points, or one
    n2 = lambda bp: branched_path_to_dot(bp).split('n2 [label="')[1].split('"')[0]
    assert n2(tight).count(";") == 1
    assert n2(loose).count(";") == 0


# ---------------------------------------------------------------------------
# one junction model: components of the within-tol_eq graph
# ---------------------------------------------------------------------------

def dedup(points, tol_eq):
    """The greedy reference: keep each point farther than tol_eq from every
    point kept before it."""
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol_eq for q in out):
            out.append(p)
    return np.asarray(out)


class DedupPath(BranchedPath):
    """The same path with the greedy reference configurations."""

    def omega_config(self, i):
        return dedup(np.asarray([g.omega for g in self.stages[i]]), self.tol_eq)

    def alpha_config(self, i):
        return dedup(np.asarray([g.alpha for g in self.stages[i]]), self.tol_eq)


def bowed(a, b, u, tol_eq, m=8):
    """From a to b, bowed by 10 (u + 1) tol_eq along the first axis: segments
    of one stage with different u have images farther apart than tol_eq."""
    t = (np.arange(m + 1) / m)[:, None]
    bow = 40.0 * (u + 1) * tol_eq * t * (1.0 - t) * np.eye(len(a))[0]
    return PathSegment((1.0 - t) * a + t * b + bow)


@st.composite
def chain_free_paths(draw):
    """2-3 stages of 1-5 segments in d = 1..3 whose endpoints sit in clusters:
    a lattice cell of side 4 tol_eq plus an offset 0 or +-h e_k,
    h = tol_eq (1 - 1e-9) / 2. Two endpoints are at most 2h apart in a
    cluster, exact duplicates included, and at least 3 tol_eq apart across
    clusters. Start points are drawn from the previous stage's end cells or
    from any cell, so that both verdicts occur."""
    d = draw(st.integers(1, 3))
    tol_eq = draw(st.sampled_from([1e-9, 1e-3, 1.0]))
    h = tol_eq * (1.0 - 1e-9) / 2.0
    offsets = [np.zeros(d)] + [s * h * e for e in np.eye(d) for s in (1.0, -1.0)]
    cell = st.tuples(*[st.integers(0, 2)] * d)

    def point(c):
        return 4.0 * tol_eq * np.asarray(c, dtype=float) + offsets[draw(st.integers(0, len(offsets) - 1))]

    stages, ends, u = [], None, 0
    for _ in range(draw(st.integers(2, 3))):
        stage = []
        for _ in range(draw(st.integers(1, 5))):
            start = cell if ends is None else st.one_of(st.sampled_from(ends), cell)
            stage.append(bowed(point(draw(start)), point(draw(cell)), u, tol_eq))
            u += 1
        ends = [tuple(np.rint(g.omega / (4.0 * tol_eq)).astype(int)) for g in stage]
        stages.append(stage)
    return BranchedPath(stages, tol_eq)


@given(chain_free_paths())
@settings(deadline=None, max_examples=300)
def test_components_match_the_greedy_reference_without_chains(bp):
    ref, tol_eq = DedupPath(bp.stages, bp.tol_eq), bp.tol_eq
    for i in range(len(bp.stages)):
        assert np.array_equal(bp.omega_config(i), ref.omega_config(i))
        assert np.array_equal(bp.alpha_config(i), ref.alpha_config(i))
    want = (True, None, None)
    for i in range(len(bp.stages) - 1):
        gap = hausdorff_distance(ref.omega_config(i), ref.alpha_config(i + 1))
        if gap > tol_eq:
            want = (False, i, gap)
            break
    report = validate_branched(bp)
    assert (report.ok, report.stage, report.gap) == want
    assert branched_path_to_dot(bp) == branched_path_to_dot(ref)
    # a junction is a reference end point with a start within tol_eq
    expected = []
    for i in range(len(bp.stages) - 1):
        for p in ref.omega_config(i):
            incoming = sum(np.linalg.norm(g.omega - p) <= tol_eq for g in bp.stages[i])
            outgoing = sum(np.linalg.norm(g.alpha - p) <= tol_eq for g in bp.stages[i + 1])
            if outgoing:
                expected.append((i, p, incoming, outgoing))
    got = bp.junctions()
    assert len(got) == len(expected)
    for junction, (i, p, incoming, outgoing) in zip(got, expected):
        assert junction.boundary == i and np.array_equal(junction.point, p)
        assert (len(junction.incoming), len(junction.outgoing)) == (incoming, outgoing)
        res = jet_match(junction, FX, order=1)
        assert (res.incoming, res.outgoing) == (incoming, outgoing)


def test_a_chain_of_starts_is_one_junction_for_the_jets():
    # the starts 0.9e-9 and 1.7e-9 are one component with the end 0 through
    # each other, though 1.7e-9 is farther than tol_eq from it
    g_in = line((-1.0, 0.0), (0.0, 0.0))
    bp = BranchedPath([[g_in], [line((0.9e-9, 0.0), (1.0, 1.0)), line((1.7e-9, 0.0), (1.0, -1.0))]], 1e-9)
    assert validate_branched(bp).ok
    (junction,) = bp.junctions()
    assert junction.boundary == 0 and junction.point.tolist() == [0.0, 0.0]
    res = jet_match(junction, FY, order=1)
    assert (res.incoming, res.outgoing) == (1, 2)
    assert res.residuals[1] < 1e-12


def test_a_chain_of_starts_reaching_past_two_tolerances_glues():
    # starts 0.9, 1.8 and 2.7 tol_eq along x from the only end: one
    # component, though the greedy configurations {0.9, 2.7} tol_eq are
    # 2.7 tol_eq from the end in the Hausdorff distance
    tol_eq = 1e-9
    outgoing = [line((x, 0.0), (1.0, y)) for x, y in [(0.9e-9, 1.0), (1.8e-9, 2.0), (2.7e-9, 3.0)]]
    bp = BranchedPath([[line((-1.0, 0.0), (0.0, 0.0))], outgoing], tol_eq)
    assert validate_branched(bp).ok
    assert bp.alpha_config(1).tolist() == [[0.9e-9, 0.0]]
    ref = DedupPath(bp.stages, tol_eq)
    assert hausdorff_distance(ref.omega_config(0), ref.alpha_config(1)) > 2.0 * tol_eq


# ---------------------------------------------------------------------------
# image distance and compatibility, known answers
# ---------------------------------------------------------------------------

def samples(*points):
    """A segment through the given samples, in R^d for d = len(points[0])."""
    return PathSegment(np.asarray(points, dtype=float))


def test_image_distance_of_zero_length_segments():
    # every interval of a constant segment has zero length
    c = samples(*[(0.0, 1.0)] * 9)
    assert segment_image_distance(c, samples(*[(3.0, 5.0)] * 9)) == 5.0
    # c to the x axis from -1 to 1 is 1; the axis ends are sqrt(2) from c
    axis = line((-1.0, 0.0), (1.0, 0.0), m=8)
    assert segment_image_distance(c, axis) == math.sqrt(2.0)
    # repeated vertices inside a polyline change neither image nor distance
    stutter = samples(*[(x,) for x in (0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0)])
    assert segment_image_distance(stutter, line((0.0,), (2.0,), m=8)) == 0.0


def test_image_distance_of_a_backtracking_collinear_polyline():
    # out along (3, 4) to s = 2, back to s = 1: the image is s in [0, 2]
    out_back = samples(*[(3.0 * s, 4.0 * s) for s in (0.0, 0.5, 1.0, 1.5, 2.0, 1.75, 1.5, 1.25, 1.0)])
    assert segment_image_distance(out_back, line((0.0, 0.0), (6.0, 8.0), m=8)) == 0.0
    # the turning point s = 2 is |(3, 4)| = 5 from the image s in [0, 1]
    assert segment_image_distance(out_back, line((0.0, 0.0), (3.0, 4.0), m=8)) == 5.0


def test_image_distance_with_samples_on_vertices():
    ell = samples(*[(s, 0.0) for s in np.arange(5) / 4] + [(1.0, s) for s in np.arange(1, 5) / 4])
    assert segment_image_distance(ell, ell.resampled(16)) == 0.0
    # the corner (1, 0) projects onto the chord's vertex (1/2, 1/2)
    chord = line((0.0, 0.0), (1.0, 1.0), m=8)
    assert segment_image_distance(ell, chord) == math.sqrt(0.5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_image_distance_of_shifted_unit_segments(d):
    # [0, e_0] against its shift by 2 e_{d-1}: collinear apart in d = 1,
    # parallel in d >= 2, distance 2 either way
    e0, shift = np.eye(d)[0], 2.0 * np.eye(d)[d - 1]
    assert segment_image_distance(line(0 * e0, e0, m=8), line(shift, e0 + shift, m=16)) == 2.0


def test_compatibility_asks_for_ends_and_image():
    out_back = samples(*[(s,) for s in (0.0, 0.5, 1.0, 1.5, 2.0, 1.75, 1.5, 1.25, 1.0)])
    # same ends, images [0, 2] and [0, 1]: compatible
    assert segments_compatible(out_back, line((0.0,), (1.0,), m=8))
    # same ends and the same image, sampled otherwise: incompatible
    assert not segments_compatible(out_back, out_back.resampled(32))
    # different ends: compatible, whatever the images
    assert segments_compatible(out_back, line((0.0,), (2.0,), m=8))
    # the image gap 1e-7 against the tolerance
    lifted = samples(*[(s, 1e-7 * np.sin(np.pi * s)) for s in np.arange(9) / 8])
    flat = line((0.0, 0.0), (1.0, 0.0), m=8)
    assert segments_compatible(lifted, flat)
    assert not segments_compatible(lifted, flat, tol_eq=1e-6)


@pytest.mark.parametrize("tol_eq", [-1.0, 0.0, float("nan"), float("inf")])
def test_compatibility_rejects_a_tolerance_that_is_not_finite_and_positive(tol_eq):
    g = line((0.0,), (1.0,), m=8)
    with pytest.raises(ValueError, match="tol_eq"):
        segments_compatible(g, g, tol_eq)


def test_compatibility_stops_at_the_first_sample_beyond_tolerance(monkeypatch):
    read, scan = [], paths._sample_distances

    def counted(samples, poly):
        for d in scan(samples, poly):
            read.append(d)
            yield d

    monkeypatch.setattr(paths, "_sample_distances", counted)
    # sample 1 of the upper arc lies about 2 sin(pi/m) from the lower arc
    assert validate_branched(make_split_loop(4096)).ok
    assert 0 < len(read) <= 4
    # the same image sampled two ways: every sample of both is read
    read.clear()
    out_back = samples(*[(s,) for s in (0.0, 0.5, 1.0, 1.5, 2.0, 1.75, 1.5, 1.25, 1.0)])
    assert not segments_compatible(out_back, out_back.resampled(32))
    assert len(read) == 9 + 33


@st.composite
def compatibility_cases(draw):
    """Two segments of 8-24 intervals in d = 1, 2, 3 or 8, and a length h
    that is also asked as the tolerance:
    - "lifted": the flat segment from a to a + L e_0 (L = 0 included) and
      the same ends with the image lifted by h along e_{d-1} (along the
      line itself in d = 1);
    - "constant": a zero-length segment against a copy, a loop out and back,
      or a constant segment h away;
    - "collinear": two polylines on one line with the same ends whose
      samples may backtrack and overshoot them;
    - "free": two polylines, half of the time with the ends made equal."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    m1, m2 = draw(st.integers(8, 24)), draw(st.integers(8, 24))
    t1, t2 = [(np.arange(m + 1) / m)[:, None] for m in (m1, m2)]
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    point = lambda: np.asarray(draw(st.lists(coord, min_size=d, max_size=d)))
    h = draw(st.sampled_from([1e-12, 1e-9, 1e-7, 1e-3, 0.5]))
    e0, e_last = np.eye(d)[0], np.eye(d)[d - 1]
    kind = draw(st.sampled_from(["lifted", "constant", "collinear", "free"]))
    if kind == "lifted":
        a, length = point(), draw(st.floats(0.0, 4.0))
        g1 = PathSegment(a + t1 * length * e0 + h * 4.0 * t1 * (1.0 - t1) * e_last)
        g2 = PathSegment(a + t2 * length * e0)
    elif kind == "constant":
        p, other = point(), draw(st.sampled_from(["same", "loop", "near"]))
        g1 = PathSegment(np.repeat(p[None, :], m1 + 1, axis=0))
        if other == "same":
            g2 = PathSegment(np.repeat(p[None, :], m2 + 1, axis=0))
        elif other == "loop":
            g2 = PathSegment(p + 4.0 * t2 * (1.0 - t2) * (point() - p))
        else:
            g2 = PathSegment(np.repeat((p + h * e0)[None, :], m2 + 1, axis=0))
    elif kind == "collinear":
        a, u = point(), point()
        s = lambda m: [0.0] + draw(st.lists(st.floats(-1.0, 3.0), min_size=m - 1, max_size=m - 1)) + [1.0]
        g1 = PathSegment(a + np.asarray(s(m1))[:, None] * u)
        g2 = PathSegment(a + (t2 if draw(st.booleans()) else np.asarray(s(m2))[:, None]) * u)
    else:
        v1, v2 = [np.asarray([point() for _ in range(m + 1)]) for m in (m1, m2)]
        if draw(st.booleans()):
            v2[0], v2[-1] = v1[0], v1[-1]
        g1, g2 = PathSegment(v1), PathSegment(v2)
    return g1, g2, h


@given(compatibility_cases())
@settings(deadline=None, max_examples=300)
def test_compatibility_matches_the_image_distance_oracle(case):
    # at each tolerance and one ulp either side: the case's own, the end
    # gaps, the image distance and the default
    g1, g2, h = case
    dist = segment_image_distance(g1, g2)
    gaps = [float(np.linalg.norm(g1.alpha - g2.alpha)), float(np.linalg.norm(g1.omega - g2.omega))]
    for base in (h, *gaps, dist, 1e-9):
        for tol in (math.nextafter(base, 0.0), base, math.nextafter(base, math.inf)):
            if not 0.0 < tol < math.inf:
                continue
            want = max(gaps) > tol or dist > tol
            assert segments_compatible(g1, g2, tol) == want
            assert segments_compatible(g2, g1, tol) == want


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def test_branched_path_json_roundtrip():
    bp = make_split_loop(m=16)
    back = branched_path_from_dict(json.loads(json.dumps(branched_path_to_dict(bp))))
    assert len(back.stages) == 3
    for stage_a, stage_b in zip(back.stages, bp.stages):
        assert len(stage_a) == len(stage_b)
        for ga, gb in zip(stage_a, stage_b):
            assert np.allclose(ga.values, gb.values, atol=0.0)
    assert validate_branched(back).ok


def test_json_rejects_non_uniform_grid():
    bp = make_split_loop(m=16)
    obj = branched_path_to_dict(bp)
    obj["stages"][0][0]["samples"][3][0] = 0.123
    with pytest.raises(ValueError):
        branched_path_from_dict(obj)


def test_dot_export_shape():
    dot = branched_path_to_dot(make_split_loop(m=16))
    assert dot.startswith("digraph")
    assert dot.count("->") == 4  # one edge per segment
    assert 'n0 [label="{-2,0}"]' in dot
