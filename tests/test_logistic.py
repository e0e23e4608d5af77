import math
import sys
import types

import numpy as np
import pytest

from branchspace import (
    Chaotic,
    ParameterOutOfRange,
    PeriodicOrbit,
    bifurcation_points,
    logistic_attractor,
)
from branchspace.logistic import (
    BURN_IN,
    CHAOS_EXPONENT,
    DEFAULT_ORBIT_TOL,
    MAX_BURN_IN,
    _DETECT_TOL,
    _continued,
    _polish_orbit,
    logistic,
)


def iterate_oracle(a, x, n):
    for _ in range(n):
        x = a * x * (1.0 - x)
    return x


def multiplier_root_oracle(p: int, bracket: tuple[float, float]) -> float:
    """Locate the parameter where the period-p multiplier crosses -1 by
    polynomial root finding: the cycle points are roots of map^p(x) - x as
    a polynomial, so no Newton iteration or orbit continuation is shared
    with the implementation under test."""

    def period_p_multiplier(a: float) -> float:
        poly = np.poly1d([-a, a, 0.0])  # a x (1 - x)
        comp = poly
        for _ in range(p - 1):
            comp = poly(comp)
        roots = (comp - np.poly1d([1.0, 0.0])).roots
        pts = sorted(
            float(r.real)
            for r in roots
            if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1.0 + 1e-9
        )
        # keep one representative per primitive period-p cycle
        for x in pts:
            orbit = [x]
            for _ in range(p - 1):
                orbit.append(a * orbit[-1] * (1.0 - orbit[-1]))
            if min(abs(orbit[i] - orbit[j]) for i in range(p) for j in range(i)) > 1e-6 if p > 1 else True:
                mult = float(np.prod([a * (1.0 - 2.0 * y) for y in orbit]))
                if abs(mult) < 1.5:  # the cycle that is about to double
                    return mult
        raise AssertionError(f"no primitive period-{p} cycle found at a={a}")

    lo, hi = bracket
    assert period_p_multiplier(lo) > -1.0 > period_p_multiplier(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if period_p_multiplier(mid) <= -1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# attractors
# ---------------------------------------------------------------------------

def test_fixed_point_closed_form():
    orbit = logistic_attractor(2.5)
    assert isinstance(orbit, PeriodicOrbit)
    assert orbit.period == 1
    assert orbit.points[0] == pytest.approx(1.0 - 1.0 / 2.5, abs=1e-12)
    assert orbit.multiplier == pytest.approx(2.0 - 2.5, abs=1e-12)
    assert orbit.stable


def test_period_two_orbit():
    orbit = logistic_attractor(3.2)
    assert orbit.period == 2
    # iterate-to-convergence oracle
    x = iterate_oracle(3.2, 0.5, 40_000)
    pair = sorted([x, iterate_oracle(3.2, x, 1)])
    assert np.allclose(orbit.points, pair, atol=1e-9)
    assert orbit.points[0] == pytest.approx(0.5130, abs=5e-4)
    assert orbit.points[1] == pytest.approx(0.7995, abs=5e-4)
    # each point maps to the other
    assert logistic(3.2, orbit.points[0]) == pytest.approx(orbit.points[1], abs=1e-9)
    assert logistic(3.2, orbit.points[1]) == pytest.approx(orbit.points[0], abs=1e-9)


def test_period_four_at_3_5():
    orbit = logistic_attractor(3.5)
    assert orbit.period == 4


def test_orbit_verification_invariants():
    for a in (1.5, 2.5, 3.1, 3.35, 3.5, 3.55, 3.566):
        orbit = logistic_attractor(a)
        assert isinstance(orbit, PeriodicOrbit)
        pts = list(orbit.points)
        p = orbit.period
        for i, x in enumerate(pts):
            assert iterate_oracle(a, x, p) == pytest.approx(x, abs=1e-9)
            assert logistic(a, x) == pytest.approx(pts[(i + 1) % p], abs=1e-9)
        if p > 1:
            gaps = [abs(pts[i] - pts[j]) for i in range(p) for j in range(i)]
            assert min(gaps) > 1e-5


def test_neutral_parameter_resolves_to_fixed_point():
    orbit = logistic_attractor(3.0)
    assert orbit.period == 1
    assert orbit.points[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert orbit.multiplier == pytest.approx(-1.0, abs=1e-9)
    assert orbit.stable


def test_package_attribute_is_the_logistic_module():
    import branchspace.logistic as L

    assert isinstance(L, types.ModuleType)


def test_chaotic_parameter_flagged():
    att = logistic_attractor(3.9, max_period=64)
    assert isinstance(att, Chaotic)


def test_odd_window_is_periodic_not_chaotic():
    # the window beyond the cascade accumulation has a genuine 3-cycle
    att = logistic_attractor(3.835, max_period=64)
    assert isinstance(att, PeriodicOrbit)
    assert att.period == 3


def test_parameter_four_is_chaotic():
    # x0 = 0.5 lands exactly on the unstable fixed point 0 (multiplier 4)
    assert isinstance(logistic_attractor(4.0), Chaotic)


@pytest.mark.parametrize(
    "a",
    [
        3.6551825912956475,  # period-24 cycle with multiplier -1.11; attractor period 48
        3.6817328125,  # period-22 cycle with multiplier -1.32; attractor period 44
        3.597026171875,  # period-50 cycle with multiplier -1.31; attractor period 100
        3.5696916384485344,  # 3e-8 above a_6: period-32 cycle with multiplier -1.00007
    ],
)
def test_no_unstable_orbit_is_reported(a):
    att = logistic_attractor(a)
    assert isinstance(att, Chaotic) or abs(att.multiplier) <= 1.0


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        logistic_attractor(0.0)
    with pytest.raises(ParameterOutOfRange):
        logistic_attractor(4.5)
    with pytest.raises(ValueError):
        logistic_attractor(2.5, max_period=3)


@pytest.mark.parametrize("max_period", [True, 64.0])
def test_max_period_must_be_an_integer(max_period):
    # True used to search period 1 only (Chaotic at a = 3.2), and 64.0 ended
    # in a TypeError inside the orbit record
    with pytest.raises(ValueError, match="max_period must be an integer"):
        logistic_attractor(3.2, max_period=max_period)


def test_a_numpy_integer_max_period_is_accepted():
    assert logistic_attractor(3.2, max_period=np.int64(8)).period == 2


@pytest.mark.parametrize("orbit_tol", [math.nan, -1.0, 0.0, math.inf])
def test_orbit_tolerance_must_be_finite_and_positive(orbit_tol):
    # a NaN or negative tolerance used to reject every Newton root, so the
    # stable 2-cycle at a = 3.2 came back Chaotic after the full escalation
    with pytest.raises(ValueError, match="orbit_tol must be finite and positive"):
        logistic_attractor(3.2, orbit_tol=orbit_tol)


def test_a_continued_orbit_starts_at_its_smallest_point():
    orbit = _continued(3.5, 4, logistic_attractor(3.5).points[::-1])
    assert orbit.period == 4
    assert orbit.points[0] == min(orbit.points)


# ---------------------------------------------------------------------------
# bifurcation points
# ---------------------------------------------------------------------------

def test_first_doubling_analytically_forced():
    assert bifurcation_points(1)[0] == pytest.approx(3.0, abs=1e-8)


def test_second_doubling_closed_form():
    # multiplier of the 2-cycle is -a^2 + 2a + 4, so the crossing solves
    # a^2 - 2a - 5 = 0
    assert bifurcation_points(2)[1] == pytest.approx(1.0 + math.sqrt(6.0), abs=1e-6)


def test_third_doubling_against_polynomial_oracle():
    a3 = bifurcation_points(3)[2]
    oracle = multiplier_root_oracle(4, (3.52, 3.56))
    assert a3 == pytest.approx(oracle, abs=1e-6)
    assert a3 == pytest.approx(3.544090, abs=5e-6)


def test_cascade_values_are_pinned_bit_for_bit():
    assert bifurcation_points(6) == (
        3.000000004768361,
        3.449489745616897,
        3.544090361716723,
        3.564407268027881,
        3.568759421797739,
        3.5696916084485344,
    )


def test_cascade_is_increasing_and_feigenbaum_like():
    bifs = bifurcation_points(5)
    assert all(b2 > b1 for b1, b2 in zip(bifs, bifs[1:]))
    for k in (1, 2, 3):
        ratio = (bifs[k] - bifs[k - 1]) / (bifs[k + 1] - bifs[k])
        assert 4.0 <= ratio <= 5.0


def test_period_doubles_across_each_bifurcation():
    bifs = bifurcation_points(4)
    for k, a_k in enumerate(bifs, start=1):
        below = logistic_attractor(a_k - 1e-3)
        above = logistic_attractor(a_k + 1e-3)
        assert below.period == 2 ** (k - 1)
        assert above.period == 2**k
        assert abs(below.multiplier) < 1.0
        assert abs(above.multiplier) < 1.0


def test_k_max_validation():
    with pytest.raises(ValueError):
        bifurcation_points(0)
    with pytest.raises(ValueError):
        bifurcation_points(7)


@pytest.mark.parametrize("k_max", [True, 2.5])
def test_k_max_must_be_an_integer(k_max):
    # True used to return (a_1,)
    with pytest.raises(ValueError, match="k_max must be an integer"):
        bifurcation_points(k_max)


def test_each_cascade_value_is_computed_once(monkeypatch):
    # a_k extends the cached a_1, ..., a_(k-1): asking for k = 1, ..., 6 in
    # turn seeds one attractor per doubling, not 1 + 2 + ... + 6 = 21
    module = sys.modules["branchspace.logistic"]
    seeds = []
    real_attractor = module.logistic_attractor

    def counted(a, *args, **kwargs):
        seeds.append(a)
        return real_attractor(a, *args, **kwargs)

    monkeypatch.setattr(module, "logistic_attractor", counted)
    module._cascade.cache_clear()
    prefixes = [bifurcation_points(k) for k in range(1, 7)]
    assert len(seeds) == 6
    assert all(prefixes[k - 1] == prefixes[-1][:k] for k in range(1, 7))


# ---------------------------------------------------------------------------
# early chaos verdict
# ---------------------------------------------------------------------------

def escalation_oracle(a, max_period=64, orbit_tol=DEFAULT_ORBIT_TOL):
    """logistic_attractor without the early verdict: a parameter that does
    not lock in extends its burn-in tenfold up to MAX_BURN_IN."""
    window_len = 9 * max_period
    total, steps, x = 0, BURN_IN, 0.5
    while True:
        x = iterate_oracle(a, x, steps)
        total += steps
        window = np.empty(window_len)
        for k in range(window_len):
            window[k] = x
            x = a * x * (1.0 - x)
        for p in range(1, max_period + 1):
            tail = window[-(4 * max_period + p):]
            if np.max(np.abs(tail[p:] - tail[:-p])) <= _DETECT_TOL:
                orbit = _polish_orbit(a, p, float(window[-1]), orbit_tol)
                if orbit is not None:
                    return orbit
        if total >= MAX_BURN_IN:
            return Chaotic(parameter=a, max_period=max_period)
        steps = total * 9


# Saddle-node onsets of the period-6, 7, 5, 5 and 4 windows (bisection on
# escalation_oracle's period) and the end of the period-3 window.
WINDOW_EDGES = (
    3.6265531615942153,
    3.701640764146522,
    3.7381723750730838,
    3.8568,
    3.905571870158836,
    3.9601018826597434,
)
S8 = 1.0 + math.sqrt(8.0)  # onset of the period-3 window, intermittent below
LATE_LOCK = 3.5698912  # period 64, just below its doubling


def early_verdict_probes():
    offsets = [10.0**-e for e in range(3, 8)]
    probes = [c + s * d for c in bifurcation_points(6) + WINDOW_EDGES for d in offsets for s in (-1, 1)]
    probes += [S8 + s * 10.0**-e for e in range(3, 9) for s in (-1, 1)]
    return probes + [LATE_LOCK] + [float(a) for a in np.linspace(3.57, 4.0, 40)]


def test_early_verdict_matches_full_escalation():
    probes = early_verdict_probes()
    assert [a for a in probes if logistic_attractor(a) != escalation_oracle(a)] == []


def test_early_verdict_replaces_escalation_only_for_clear_chaos(monkeypatch):
    module = sys.modules["branchspace.logistic"]
    burn_ins = []
    real_iterate = module.iterate

    def counting_iterate(a, x, n):
        burn_ins.append(n)
        return real_iterate(a, x, n)

    monkeypatch.setattr(module, "iterate", counting_iterate)

    def stages(a):
        burn_ins.clear()
        att = logistic_attractor(a)
        return att, [n for n in burn_ins if n >= BURN_IN]

    # clearly chaotic: one burn-in stage, no escalation
    assert module._burn_in_exponent(3.9) > CHAOS_EXPONENT
    att, seen = stages(3.9)
    assert isinstance(att, Chaotic) and seen == [BURN_IN]
    # just below the period-64 orbit's doubling the burn-in exponent is
    # slightly negative and the orbit locks in only at MAX_BURN_IN
    assert module._burn_in_exponent(LATE_LOCK) <= CHAOS_EXPONENT
    att, seen = stages(LATE_LOCK)
    assert att.period == 64 and abs(att.multiplier) <= 1.0
    assert sum(seen) == MAX_BURN_IN
