import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from branchspace import (
    GridFunction,
    GridMismatch,
    SupportTouchesBoundary,
    r_equivalent,
    support_class,
    validate_constant_volume_path,
)
from branchspace.measure import (
    boundary_layer,
    grid_from_dict,
    grid_to_dict,
    make_growing_bump_path,
    make_translated_bump_path,
    read_grid,
    region_ring,
    support_mask,
    write_grid,
)


def bump(shape, sl, value=1.0, spacing=0.1):
    vals = np.zeros(shape)
    vals[sl] = value
    return GridFunction(vals, spacing)


# ---------------------------------------------------------------------------
# support classes
# ---------------------------------------------------------------------------

def test_single_cell_support():
    f = bump((7, 7), (slice(3, 4), slice(3, 4)), spacing=0.1)
    sc = support_class(f)
    assert sc.num_components == 1
    assert sc.volumes == (pytest.approx(0.01),)


def test_scaling_preserves_support_class():
    f = bump((9, 9), (slice(2, 5), slice(3, 6)))
    assert support_class(f.scaled(2.0)) == support_class(f)
    assert r_equivalent(f, f.scaled(2.0))


@pytest.mark.parametrize("tol_supp", [np.nan, -1.0, 0.0, np.inf])
def test_support_tolerance_must_be_finite_and_positive(tol_supp):
    # with tol_supp = nan, a bump used to have no support at all
    f = bump((9, 9), (slice(2, 5), slice(3, 6)))
    for check in (support_mask, support_class):
        with pytest.raises(ValueError, match="tol_supp must be finite and positive"):
            check(f, tol_supp)


def test_two_disjoint_bumps_component_volumes():
    vals = np.zeros((12, 12))
    vals[2, 2:7] = 1.0  # 5 cells
    vals[6:9, 6:9] = -2.0  # 9 cells
    f = GridFunction(vals, 0.1)
    sc = support_class(f)
    assert sc.num_components == 2
    assert sorted(sc.volumes) == [pytest.approx(0.05), pytest.approx(0.09)]
    assert sc.total_volume == pytest.approx(0.14)


def test_face_adjacency_separates_diagonal_cells():
    vals = np.zeros((6, 6))
    vals[2, 2] = 1.0
    vals[3, 3] = 1.0  # touches only diagonally
    assert support_class(GridFunction(vals, 1.0)).num_components == 2


def test_volume_additivity(rng):
    vals = np.zeros((20, 20))
    vals[2:18, 2:18] = rng.random((16, 16)) < 0.4
    f = GridFunction(vals, 0.5)
    sc = support_class(f)
    assert sum(sc.component_cells) == int(np.count_nonzero(sc.mask))
    assert sum(sc.volumes) == pytest.approx(sc.total_volume, abs=1e-12)


def test_support_touching_boundary_rejected():
    f = bump((6, 6), (slice(0, 2), slice(2, 4)))
    with pytest.raises(SupportTouchesBoundary):
        support_class(f)


@given(st.integers(0, 10_000), st.floats(0.1, 100.0).map(lambda s: s))
@settings(deadline=None, max_examples=60)
def test_scale_invariance_property(seed, lam):
    rng = np.random.default_rng(seed)
    vals = np.zeros((10, 10))
    vals[1:9, 1:9] = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.5)
    f = GridFunction(vals, 0.25)
    for sign in (lam, -lam):
        assert support_class(f.scaled(sign)) == support_class(f)


def hand_written_boundary_layer(shape):
    """The sliced mask that boundary_layer replaced, kept as its reference."""
    mask = np.ones(shape, dtype=bool)
    if all(s > 2 for s in shape):
        mask[tuple(slice(1, -1) for _ in shape)] = False
    return mask


@pytest.mark.parametrize("d", [1, 2, 3])
def test_boundary_layer_matches_the_hand_written_mask(d):
    # every shape with sides 1..5, sides <= 2 (all boundary) included, and empty sides
    shapes = [*itertools.product(range(1, 6), repeat=d), (0,) * d, (0,) + (4,) * (d - 1)]
    for shape in shapes:
        assert np.array_equal(boundary_layer(shape), hand_written_boundary_layer(shape)), shape


@pytest.mark.parametrize("d", [1, 2, 3])
def test_components_and_ring_use_face_adjacency(rng, d):
    face = ndimage.generate_binary_structure(d, 1)
    for _ in range(30):
        shape = tuple(int(s) for s in rng.integers(3, 9, size=d))
        vals = np.zeros(shape)
        inner = tuple(slice(1, -1) for _ in shape)
        vals[inner] = rng.random(vals[inner].shape) < 0.5
        sc = support_class(GridFunction(vals, 1.0))
        labels, count = ndimage.label(vals != 0, structure=face)
        assert np.array_equal(sc.labels, labels)
        assert sc.component_cells == tuple(int(np.count_nonzero(labels == k)) for k in range(1, count + 1))
        region = rng.random(shape) < 0.3
        assert np.array_equal(region_ring(region), ndimage.binary_dilation(region, structure=face) & ~region)
    assert support_class(GridFunction(np.zeros((4,) * d), 1.0)).component_cells == ()


# ---------------------------------------------------------------------------
# r_equivalent
# ---------------------------------------------------------------------------

def test_r_equivalent_scaling_true():
    f = bump((8, 8), (slice(3, 5), slice(3, 5)))
    assert r_equivalent(f, f.scaled(3.0))


def test_r_equivalent_shift_false():
    f = bump((8, 8), (slice(3, 5), slice(3, 5)))
    g = bump((8, 8), (slice(3, 5), slice(4, 6)))
    assert not r_equivalent(f, g)


def test_r_equivalent_random_masks_match_cellwise(rng):
    for _ in range(20):
        a = np.zeros((9, 9))
        b = np.zeros((9, 9))
        a[1:8, 1:8] = rng.random((7, 7)) < 0.5
        b[1:8, 1:8] = rng.random((7, 7)) < 0.5
        fa, fb = GridFunction(a, 1.0), GridFunction(b, 1.0)
        assert r_equivalent(fa, fb) == bool(np.array_equal(a != 0, b != 0))


def test_r_equivalent_grid_mismatch():
    f = bump((8, 8), (slice(3, 5), slice(3, 5)))
    g = bump((9, 9), (slice(3, 5), slice(3, 5)))
    with pytest.raises(GridMismatch):
        r_equivalent(f, g)


# ---------------------------------------------------------------------------
# constant-volume paths
# ---------------------------------------------------------------------------

def test_translated_bump_validates():
    frames, region = make_translated_bump_path()
    report = validate_constant_volume_path(frames, region)
    assert report.ok and report.violating_step is None
    assert len(set(report.cells_in_region)) == 1


def test_growing_bump_rejected_at_growth_step():
    frames, region, grow_at = make_growing_bump_path()
    report = validate_constant_volume_path(frames, region)
    assert not report.ok
    assert report.violating_step == grow_at


def test_exit_through_ring_splits_intervals():
    # bump slides out of the region: the crossing frames touch the ring
    # and are excluded; the inside run and the outside run each hold a
    # constant volume, so the path validates
    shape = (10, 20)
    frames = [bump(shape, (slice(4, 6), slice(2 + j, 4 + j))) for j in range(12)]
    region = np.zeros(shape, dtype=bool)
    region[2:8, 1:8] = True
    report = validate_constant_volume_path(frames, region)
    assert not all(report.ring_clear)  # some frames do cross
    assert any(report.ring_clear[: len(report.ring_clear) // 2])
    assert report.ok


def test_volume_change_inside_clear_interval_detected():
    shape = (10, 20)
    frames = [bump(shape, (slice(4, 6), slice(2, 4))) for _ in range(4)]
    grown = np.zeros(shape)
    grown[4:6, 2:4] = 1.0
    grown[6, 2] = 1.0
    frames.append(GridFunction(grown, 0.1))
    region = np.zeros(shape, dtype=bool)
    region[2:8, 1:8] = True
    report = validate_constant_volume_path(frames, region)
    assert not report.ok and report.violating_step == 4


def test_rescaled_frames_validate_identically(rng):
    frames, region = make_translated_bump_path()
    scaled = [f.scaled(float(rng.uniform(0.5, 3.0)) * (-1) ** i) for i, f in enumerate(frames)]
    report = validate_constant_volume_path(scaled, region)
    assert report.ok


def test_region_ring_is_one_cell_face_ring():
    region = np.zeros((7, 7), dtype=bool)
    region[3, 3] = True
    ring = region_ring(region)
    assert int(np.count_nonzero(ring)) == 4
    assert not ring[3, 3] and ring[2, 3] and ring[4, 3] and ring[3, 2] and ring[3, 4]


def test_path_grid_mismatch():
    f = bump((8, 8), (slice(3, 5), slice(3, 5)))
    g = bump((8, 8), (slice(3, 5), slice(3, 5)), spacing=0.2)
    region = np.zeros((8, 8), dtype=bool)
    region[2:6, 2:6] = True
    with pytest.raises(GridMismatch):
        validate_constant_volume_path([f, g], region)


def test_a_path_needs_a_frame():
    with pytest.raises(ValueError, match="path must contain at least one frame"):
        validate_constant_volume_path([], np.zeros((8, 8), dtype=bool))


def test_path_region_of_another_shape_is_rejected():
    f = bump((8, 8), (slice(3, 5), slice(3, 5)))
    with pytest.raises(GridMismatch, match="region mask shape differs from the frames"):
        validate_constant_volume_path([f, f], np.zeros((8, 9), dtype=bool))


# ---------------------------------------------------------------------------
# refinement diagnostic
# ---------------------------------------------------------------------------

def test_refinement_volume_drift_within_perimeter_bound():
    # resample a smooth disc indicator at h and h/2: the component volume
    # moves by at most O(h) * perimeter (tracked, generous constant)
    def disc(h):
        n = int(round(4.0 / h))
        axes = [np.linspace(-2.0 + h / 2, 2.0 - h / 2, n)] * 2
        xx, yy = np.meshgrid(*axes, indexing="ij")
        vals = ((xx**2 + yy**2) < 1.0).astype(float)
        vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = 0.0
        return GridFunction(vals, h)

    v1 = support_class(disc(0.1)).total_volume
    v2 = support_class(disc(0.05)).total_volume
    perimeter = 2 * np.pi
    assert abs(v1 - np.pi) <= 0.1 * perimeter
    assert abs(v2 - np.pi) <= 0.05 * perimeter
    assert abs(v2 - np.pi) <= abs(v1 - np.pi)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_text_and_json_roundtrip(tmp_path):
    vals = np.zeros((5, 6))
    vals[2, 2:4] = [1.25, -0.5]
    f = GridFunction(vals, 0.125, origin=np.array([1.0, -2.0]))

    write_grid(f, tmp_path / "frame.txt")
    g = read_grid(tmp_path / "frame.txt")
    assert np.array_equal(g.values, f.values)
    assert g.spacing == f.spacing and np.array_equal(g.origin, f.origin)

    write_grid(f, tmp_path / "frame.json")
    h = read_grid(tmp_path / "frame.json")
    assert np.array_equal(h.values, f.values)

    assert grid_from_dict(grid_to_dict(f)).shape == (5, 6)


def test_text_format_is_pinned(tmp_path):
    f = GridFunction(np.array([[0.0, -0.0, 1.5], [0.1, 2.0, -3e-300]]), 0.25, origin=[1.0, -2.5])
    write_grid(f, tmp_path / "frame.txt")
    assert (tmp_path / "frame.txt").read_text() == "2 3\n0.25\n1.0 -2.5\n0.0\n-0.0\n1.5\n0.1\n2.0\n-3e-300\n"


@pytest.mark.parametrize("spacing", [0.0, -0.1, np.nan, np.inf])
def test_spacing_must_be_finite_and_positive(spacing):
    with pytest.raises(ValueError, match="spacing must be finite and positive"):
        GridFunction(np.zeros((3, 3)), spacing)


@pytest.mark.parametrize("origin", [[np.nan, 0.0], [0.0, -np.inf]])
def test_origin_must_be_finite(origin):
    with pytest.raises(ValueError, match="origin must be finite"):
        GridFunction(np.zeros((3, 3)), 0.1, origin)


def test_grid_values_need_an_axis():
    with pytest.raises(ValueError, match="grid values must have at least one axis"):
        GridFunction(np.array(1.0), 0.1)


def test_a_malformed_grid_file_is_named(tmp_path):
    (tmp_path / "bad.txt").write_text("3\nnan\n0.0\n0\n0\n0\n")
    with pytest.raises(ValueError, match="bad.txt: spacing must be finite and positive"):
        read_grid(tmp_path / "bad.txt")
    (tmp_path / "short.txt").write_text("2 3\n0.1\n0.0 0.0\n0\n0\n")
    with pytest.raises(ValueError, match=re.escape("short.txt: cannot reshape array of size 2 into shape (2,3)")):
        read_grid(tmp_path / "short.txt")
    (tmp_path / "bad.json").write_text('{"dims": [2], "h": 0.1, "values": [0, 0]}')
    with pytest.raises(ValueError, match="bad.json: 'origin'"):
        read_grid(tmp_path / "bad.json")
