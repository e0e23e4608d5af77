import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchspace import (
    BranchedSectionSample,
    Configuration,
    NonConstantCardinality,
    ParameterOutOfRange,
    branched_equilibrium_section,
    decompose_or_witness,
)
from branchspace.logistic import bifurcation_points
from branchspace.sections import _doubling_parameter, bifurcation_rows, section_to_dict
from conftest import decompose_oracle


def line_grid(n=101, lo=0.0, hi=1.0):
    return np.linspace(lo, hi, n).reshape(-1, 1)


def fiber(*values):
    return Configuration([[v] for v in values])


# ---------------------------------------------------------------------------
# equilibrium sections
# ---------------------------------------------------------------------------

def test_constant_field_single_valued_section():
    sample, loci = branched_equilibrium_section(lambda p: 2.5, line_grid(11))
    assert loci == []
    for f in sample.fibers:
        assert len(f) == 1
        assert f.points[0, 0] == pytest.approx(0.6, abs=1e-10)


def test_linear_field_first_doubling_locus():
    sample, loci = branched_equilibrium_section(lambda p: 2.5 + float(p[0]), line_grid(101))
    cards = sample.cardinalities()
    # cardinality 1 up to the crossing of a=3 at x=0.5, then 2
    assert all(c == 1 for c, a in zip(cards, sample.parameters) if a < 3.0)
    assert all(c == 2 for c, a in zip(cards, sample.parameters) if 3.0 < a < 3.4)
    first = [L for L in loci if (L.cardinality_before, L.cardinality_after) == (1, 2)]
    assert len(first) == 1
    assert first[0].base_location[0] == pytest.approx(0.5, abs=0.01)
    assert first[0].parameter_value == pytest.approx(3.0, abs=1e-6)


def test_linear_field_second_doubling_locus():
    sample, loci = branched_equilibrium_section(lambda p: 3.3 + 0.2 * float(p[0]), line_grid(101))
    assert [(L.cardinality_before, L.cardinality_after) for L in loci] == [(2, 4)]
    # field crosses 1 + sqrt(6) at x = (1 + sqrt(6) - 3.3) / 0.2
    expected_x = (1.0 + math.sqrt(6.0) - 3.3) / 0.2
    assert expected_x == pytest.approx(0.74745, abs=5e-6)
    assert loci[0].base_location[0] == pytest.approx(expected_x, abs=1e-6)
    assert loci[0].parameter_value == pytest.approx(1.0 + math.sqrt(6.0), abs=1e-6)


def test_doubling_parameter_only_on_the_main_cascade():
    assert _doubling_parameter(1, 2) == bifurcation_points(1)[0]
    assert _doubling_parameter(2, 4) == bifurcation_points(2)[1]
    # the period-3 window doubles 3 -> 6 -> 12 at parameters that are not
    # a_k of the main cascade, and 1 -> 3 is no doubling
    assert _doubling_parameter(3, 6) is None
    assert _doubling_parameter(6, 12) is None
    assert _doubling_parameter(1, 3) is None


def test_window_doublings_are_placed_at_midpoints():
    sample, loci = branched_equilibrium_section(lambda p: 3.84 + 0.01 * float(p[0]), line_grid(11))
    jumps = [(L.cardinality_before, L.cardinality_after) for L in loci]
    assert jumps == [(3, 6), (6, 12)]
    for L in loci:
        i = int(np.searchsorted(sample.parameters, L.parameter_value))
        a0, a1 = sample.parameters[i - 1], sample.parameters[i]
        assert L.parameter_value == 0.5 * (a0 + a1)
        assert L.base_location[0] == 0.5 * (sample.base_points[i - 1, 0] + sample.base_points[i, 0])


def test_cardinality_changes_only_at_loci():
    sample, loci = branched_equilibrium_section(lambda p: 2.5 + float(p[0]), line_grid(101))
    cards = sample.cardinalities()
    changes = sum(1 for a, b in zip(cards, cards[1:]) if a != b)
    assert changes == len(loci)


def test_chaotic_region_flagged_not_fabricated():
    grid = line_grid(5, 0.0, 1.0)
    sample, loci = branched_equilibrium_section(
        lambda p: 3.5 + 0.45 * float(p[0]), grid, max_period=16
    )
    assert len(sample.chaotic_indices) >= 1
    for i in sample.chaotic_indices:
        assert sample.fibers[i] is None


def test_field_out_of_range_rejected():
    with pytest.raises(ParameterOutOfRange):
        branched_equilibrium_section(lambda p: 4.5, line_grid(3))


@pytest.mark.parametrize("a", [0.0, 5.0, np.nan])
def test_a_field_value_out_of_range_names_its_grid_point(a):
    # the attractor's own parameter rule, with the grid point in front
    field = lambda p: a if p[0] > 0.6 else 3.0
    with pytest.raises(ParameterOutOfRange, match=re.escape(f"grid point 2: parameter must lie in (0, 4], got {a}")):
        branched_equilibrium_section(field, line_grid(4))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_period_two_band_decomposes_into_two_branches():
    grid = line_grid(31)
    sample, _ = branched_equilibrium_section(
        lambda p: 3.1 + 0.3 * float(p[0]), grid
    )
    assert set(sample.cardinalities()) == {2}
    dec = decompose_or_witness(sample)
    assert dec.decomposable
    upper, lower = max(dec.selections[:, 0]), min(dec.selections[:, 0])
    assert upper > lower
    # selections are continuous: the step jumps stay far below the branch gap
    for sel in dec.selections:
        jumps = np.abs(np.diff(sel))
        assert np.max(jumps) < 0.05


def test_constant_section_decomposes_to_itself():
    sample, _ = branched_equilibrium_section(lambda p: 2.5, line_grid(7))
    dec = decompose_or_witness(sample)
    assert dec.decomposable
    assert dec.selections.shape == (1, 7)
    assert np.allclose(dec.selections, 0.6, atol=1e-10)


def test_a_sample_without_base_points_is_rejected():
    # decompose_or_witness used to fail on such a sample with an IndexError
    with pytest.raises(ValueError, match="at least one base point"):
        BranchedSectionSample(np.empty((0, 1)), ())
    with pytest.raises(ValueError, match="at least one base point"):
        branched_equilibrium_section(lambda p: 3.2, np.empty((0, 1)))
    # with no base point no attractor is sought, so no setting is checked
    with pytest.raises(ValueError, match="at least one base point"):
        branched_equilibrium_section(lambda p: 3.2, np.empty((0, 1)), max_period=3, orbit_tol=math.nan)


def test_a_sample_needs_one_fiber_and_one_parameter_per_base_point():
    base = np.arange(3.0).reshape(-1, 1)
    with pytest.raises(ValueError, match="one fiber per base point required"):
        BranchedSectionSample(base, (fiber(0.5), fiber(0.5)))
    with pytest.raises(ValueError, match="one parameter per base point required"):
        BranchedSectionSample(base, (fiber(0.5),) * 3, [2.5, 2.5])


@pytest.mark.parametrize(
    "fibers",
    [
        # a list fiber used to fail later, in decompose_or_witness
        (fiber(0.0, 1.0), [0.0, 1.0]),
        # 2-D fibers used to be threaded by their first coordinate only
        (fiber(0.0, 1.0), Configuration([[0.0, 1.0], [1.0, 0.0]])),
        (fiber(0.0, 1.0), fiber()),
    ],
)
def test_a_fiber_that_is_not_a_nonempty_1d_configuration_is_named(fibers):
    with pytest.raises(ValueError, match="fiber at base point 1 is not a nonempty 1-D Configuration"):
        BranchedSectionSample(np.arange(2.0).reshape(-1, 1), fibers)


@pytest.mark.parametrize("steps", [True, 2.5])
def test_sweep_steps_must_be_an_integer(steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        bifurcation_rows(2.5, 3.0, steps)


def test_a_sweep_needs_two_steps():
    with pytest.raises(ValueError, match="steps must be at least 2"):
        bifurcation_rows(3.0, 3.5, 1)


@pytest.mark.parametrize("max_period", [True, 64.0])
def test_section_max_period_must_be_an_integer(max_period):
    with pytest.raises(ValueError, match="max_period must be an integer"):
        branched_equilibrium_section(lambda p: 3.2, line_grid(3), max_period=max_period)


@pytest.mark.parametrize("orbit_tol", [math.nan, -1.0, 0.0, math.inf])
def test_sweeps_reject_a_bad_orbit_tolerance(orbit_tol):
    with pytest.raises(ValueError, match="orbit_tol must be finite and positive"):
        bifurcation_rows(2.5, 3.2, 8, orbit_tol=orbit_tol)
    with pytest.raises(ValueError, match="orbit_tol must be finite and positive"):
        branched_equilibrium_section(lambda p: 3.2, line_grid(3), orbit_tol=orbit_tol)
    # the settings are checked with the first parameter, before the others
    with pytest.raises(ValueError, match="orbit_tol must be finite and positive"):
        bifurcation_rows(3.2, 5.0, 3, orbit_tol=orbit_tol)
    with pytest.raises(ValueError, match="orbit_tol must be finite and positive"):
        branched_equilibrium_section(lambda p: 5.0 if p[0] > 0.6 else 3.2, line_grid(4), orbit_tol=orbit_tol)


def test_spin_states_over_3d_base_decompose():
    # constant two-point fiber {down=0, up=1} over a 3-d window: the
    # product case splits into two constant sections
    rng = np.random.default_rng(3)
    base = rng.uniform(-1.0, 1.0, size=(20, 3))
    sample = BranchedSectionSample(base, tuple(fiber(0.0, 1.0) for _ in range(20)))
    dec = decompose_or_witness(sample)
    assert dec.decomposable
    assert np.allclose(dec.selections[0], 0.0) and np.allclose(dec.selections[1], 1.0)


def test_crossing_branches_yield_witness():
    # two branches converge and swap: at the pinch the nearest-continuation
    # gap ratio collapses below 2
    fibers = (fiber(0.0, 1.0), fiber(0.2, 0.8), fiber(0.45, 0.55), fiber(0.1, 0.9))
    sample = BranchedSectionSample(np.arange(4.0).reshape(-1, 1), fibers)
    dec = decompose_or_witness(sample)
    assert not dec.decomposable
    assert dec.witness.edge == 1  # 0.2 -> {0.45, 0.55} is a 0.25 vs 0.35 call
    assert "gap ratio" in dec.witness.reason or "claim" in dec.witness.reason


def test_two_selections_claiming_one_point_yield_witness():
    # both selections continue nearest to 0.05 with a clear gap, so the
    # second claims the point the first has taken
    sample = BranchedSectionSample(np.arange(2.0).reshape(-1, 1), (fiber(0.0, 0.1), fiber(0.05, 10.0)))
    dec = decompose_or_witness(sample)
    assert not dec.decomposable
    witness = dec.witness
    assert (witness.edge, witness.selection, witness.reason) == (0, 1, "two selections claim one fiber point")
    assert witness.best == pytest.approx(0.05) and math.isnan(witness.second)


def assert_same_decomposition(dec, oracle):
    assert (dec.selections is None) == (oracle.selections is None)
    if oracle.selections is not None:
        assert dec.selections.shape == oracle.selections.shape
        assert np.array_equal(dec.selections, oracle.selections)
        return
    got, want = dec.witness, oracle.witness
    assert (got.edge, got.selection, got.reason, got.best) == (want.edge, want.selection, want.reason, want.best)
    assert got.second == want.second or (math.isnan(got.second) and math.isnan(want.second))


@st.composite
def constant_cardinality_sections(draw):
    """Fibers of 1-9 points over 2-8 base points. Each fiber is drawn
    afresh or jittered from the previous one, so both decompositions and
    witnesses occur; on the dyadic lattice distances tie exactly."""
    n, count, dyadic = draw(st.integers(1, 9)), draw(st.integers(2, 8)), draw(st.booleans())
    if dyadic:
        start, gap, jitter = (st.integers(lo, hi).map(lambda k: k / 32) for lo, hi in ((-64, 64), (1, 32), (-3, 3)))
    else:
        start, gap, jitter = st.floats(-2.0, 2.0), st.floats(1e-3, 1.0), st.floats(-0.1, 0.1)
    fibers = []
    for _ in range(count):
        if fibers and draw(st.booleans()):
            values = fibers[-1] + np.array(draw(st.lists(jitter, min_size=n, max_size=n)))
        else:
            values = draw(start) + np.cumsum(draw(st.lists(gap, min_size=n, max_size=n)))
        values = np.sort(values)
        assume(n == 1 or np.min(np.diff(values)) > 1e-6)
        fibers.append(values)
    return BranchedSectionSample(np.arange(float(count)).reshape(-1, 1), tuple(fiber(*f) for f in fibers))


@settings(max_examples=500, deadline=None)
@given(constant_cardinality_sections())
def test_rank_matching_equals_the_threading_loop(sample):
    assert_same_decomposition(decompose_or_witness(sample), decompose_oracle(sample))


@pytest.mark.parametrize("lo, hi", [(3.05, 3.40), (3.45, 3.54)])
@pytest.mark.parametrize("n", [21, 61, 201])
def test_rank_matching_equals_the_threading_loop_on_equilibrium_sections(lo, hi, n):
    sample, _ = branched_equilibrium_section(lambda p: lo + (hi - lo) * float(p[0]), line_grid(n))
    cards = sample.cardinalities()
    starts = [0] + [i for i in range(1, n) if cards[i] != cards[i - 1]]
    for start, stop in zip(starts, starts[1:] + [n]):
        if cards[start] is not None:
            run = sample.restrict(range(start, stop))
            assert_same_decomposition(decompose_or_witness(run), decompose_oracle(run))


def test_nonconstant_cardinality_rejected():
    sample = BranchedSectionSample(
        np.arange(2.0).reshape(-1, 1), (fiber(0.5), fiber(0.4, 0.6))
    )
    with pytest.raises(NonConstantCardinality):
        decompose_or_witness(sample)


def test_chaotic_fiber_rejected_in_decomposition():
    sample = BranchedSectionSample(np.arange(2.0).reshape(-1, 1), (fiber(0.5), None))
    with pytest.raises(NonConstantCardinality):
        decompose_or_witness(sample)


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def test_section_json_shape():
    sample, loci = branched_equilibrium_section(lambda p: 2.5 + float(p[0]), line_grid(21))
    obj = json.loads(json.dumps(section_to_dict(sample, loci)))
    assert set(obj) == {"grid", "fibers", "loci", "parameters"}
    assert len(obj["grid"]) == len(obj["fibers"]) == 21
    assert obj["loci"][0]["cardinality_before"] == 1
    assert obj["loci"][0]["cardinality_after"] == 2


def test_bifurcation_rows_fixed_point():
    rows = bifurcation_rows(2.5, 3.2, 8)
    at_25 = [x for a, x in rows if a == 2.5]
    assert at_25 == [pytest.approx(0.6, abs=1e-10)]
    assert all(0.0 <= x <= 1.0 for _, x in rows)
