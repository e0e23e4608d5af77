"""Logistic-map attractors and the period-doubling cascade.

The map x -> a x (1 - x) on [0, 1] drives the multivalued equilibrium
sections: for each parameter a the attractor is a periodic orbit whose
period doubles as a crosses the cascade values a_1 = 3, a_2 = 1 + sqrt(6),
... Orbits are located by forward iteration from the critical point 0.5,
then polished by Newton's method on x -> map^p(x) - x (the derivative is
the exact chain-rule product), reduced to their primitive period and kept
only when stable (PeriodicOrbit.stable: |multiplier| <= 1 + _STABLE_SLACK).

When no stable period locks in within the first BURN_IN = 10^4 iterates,
their finite-time Lyapunov exponent (the mean of log|a (1 - 2x)|) decides:
above CHAOS_EXPONENT = 0.02 the parameter is chaotic at once. Otherwise
the burn-in grows tenfold up to MAX_BURN_IN = 10^6, as the orbits near the
cascade's accumulation point need: they converge slowly and their burn-in
exponent lies just below 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import _check_integer, _check_positive
from .errors import ParameterOutOfRange

DEFAULT_ORBIT_TOL = 1e-10
BURN_IN = 10_000
MAX_BURN_IN = 1_000_000
CHAOS_EXPONENT = 0.02
_DETECT_TOL = 1e-5
MAX_PERIODS = (1, 2, 4, 8, 16, 32, 64)  # the accepted max_period values

# Exactly at a doubling parameter the cycle equation has a multiple root
# and Newton stalls at the cube root of float noise (~1e-6 off); the
# reduction threshold absorbs that so the orbit collapses to its true
# primitive period. Genuine cycles this close to coincidence also occur
# (the period-48 attractor at a = 3.6551825912956475 has halves 2e-6
# apart); there the reduced cycle is unstable and is not kept.
_PRIMITIVE_TOL = 1e-5
# A cycle exactly at a doubling (multiplier -1) or a saddle-node (+1) is
# polished to within float noise of +-1 and kept. Beyond the slack a cycle
# is unstable, and the attractor is another orbit (often the doubled one).
_STABLE_SLACK = 1e-6
_NEWTON_MAX_ITER = 60
_BISECT_TOL = 1e-8


def logistic(a: float, x: float) -> float:
    return a * x * (1.0 - x)


def iterate(a: float, x: float, n: int) -> float:
    for _ in range(n):
        x = a * x * (1.0 - x)
    return x


@dataclass(frozen=True)
class PeriodicOrbit:
    """A primitive periodic orbit of the logistic map.

    `points` follow the iteration order starting from the smallest orbit
    point; `multiplier` is the product of map derivatives around the
    cycle. Throughout the period-doubling regime the period is a power of
    two; in the odd windows beyond the cascade it is whatever the true
    primitive period is.
    """

    parameter: float
    period: int
    points: tuple[float, ...]
    multiplier: float

    @property
    def stable(self) -> bool:
        """|multiplier| <= 1 + _STABLE_SLACK: neutral cycles count as stable."""
        return abs(self.multiplier) <= 1.0 + _STABLE_SLACK


@dataclass(frozen=True)
class Chaotic:
    """No periodic attractor up to max_period locked in."""

    parameter: float
    max_period: int


def _validate_parameter(a: float) -> float:
    a = float(a)
    if not 0.0 < a <= 4.0:
        raise ParameterOutOfRange(f"parameter must lie in (0, 4], got {a}")
    return a


def _newton_polish(a: float, p: int, x0: float, tol: float) -> np.ndarray | None:
    """Newton on F(x) = map^p(x) - x; F' is the chain-rule product minus 1.

    Returns the orbit record pts = root, map(root), ..., map^p(root), or
    None when F' vanishes or the residual |pts[p] - pts[0]| exceeds tol.
    """
    x = float(x0)
    for _ in range(_NEWTON_MAX_ITER):
        y = x
        deriv = 1.0
        for _ in range(p):
            deriv *= a * (1.0 - 2.0 * y)
            y = a * y * (1.0 - y)
        fval = y - x
        fprime = deriv - 1.0
        if fprime == 0.0:
            return None
        x_new = x - fval / fprime
        if not 0.0 <= x_new <= 1.0:
            # bisection-style damping back into the unit interval
            x_new = min(1.0, max(0.0, 0.5 * (x + min(1.0, max(0.0, x_new)))))
        x, x_old = x_new, x
        if abs(x - x_old) <= 1e-15:
            break
    pts = _cycle_points(a, x, p + 1)
    return pts if abs(pts[p] - pts[0]) <= tol else None


def _primitive_period(pts: np.ndarray, tol: float) -> int:
    """Smallest divisor q of p = len(pts) - 1 with |pts[q] - pts[0]| <= tol."""
    p = len(pts) - 1
    return next((q for q in range(1, p) if p % q == 0 and abs(pts[q] - pts[0]) <= tol), p)


# Not folded into the burn-in: keeping its 10^4 iterates costs 0.86 ms where
# `iterate` takes 0.41 ms (Xeon, Python 3.11), nearly doubling every periodic
# parameter (0.52 ms at a = 3.2) to spare a chaotic one (1.69 ms, a = 3.9) one pass.
def _burn_in_exponent(a: float) -> float:
    """Finite-time Lyapunov exponent: the mean of log|a (1 - 2x)| over the
    BURN_IN iterates x_1, x_2, ... of x_0 = 0.5 (-inf if one of them is 0.5)."""
    xs = _cycle_points(a, logistic(a, 0.5), BURN_IN)
    with np.errstate(divide="ignore"):
        return float(np.mean(np.log(np.abs(a * (1.0 - 2.0 * xs)))))


def logistic_attractor(
    a: float,
    max_period: int = MAX_PERIODS[-1],
    orbit_tol: float = DEFAULT_ORBIT_TOL,
) -> PeriodicOrbit | Chaotic:
    """Locate the forward attractor of the logistic map at parameter a.

    Iterates BURN_IN steps from x0 = 0.5, then tries each period whose
    window residual locks in, smallest first: the orbit is polished by
    Newton's method, reduced to its primitive period and returned when
    stable. If none is, a burn-in Lyapunov exponent above CHAOS_EXPONENT
    means Chaotic at once; otherwise the burn-in grows tenfold (for slowly
    converging parameters near the bifurcation points) until MAX_BURN_IN,
    after which the result is Chaotic: no stable period <= max_period.
    """
    a = _validate_parameter(a)
    _check_positive(orbit_tol, "orbit_tol")
    _check_integer(max_period, "max_period")
    if max_period not in MAX_PERIODS:
        raise ValueError(f"max_period must be a power of 2 at most {MAX_PERIODS[-1]}")

    window_len = 9 * max_period  # 4*max_period comparisons at every lag
    total = 0
    steps = BURN_IN
    x = 0.5
    while True:
        x = iterate(a, x, steps)
        total += steps
        window = _cycle_points(a, x, window_len)
        x = logistic(a, float(window[-1]))
        for p in range(1, max_period + 1):
            tail = window[-(4 * max_period + p):]
            if np.max(np.abs(tail[p:] - tail[:-p])) <= _DETECT_TOL:
                orbit = _polish_orbit(a, p, float(window[-1]), orbit_tol)
                if orbit is not None:
                    return orbit
        if total >= MAX_BURN_IN or (total == BURN_IN and _burn_in_exponent(a) > CHAOS_EXPONENT):
            return Chaotic(parameter=a, max_period=max_period)
        steps = total * 9  # decade-wise extension for slow convergence


def _cycle_points(a: float, root: float, p: int) -> np.ndarray:
    """The first p points root, f(root), f(f(root)), ... of the orbit."""
    pts, y = [], root
    for _ in range(p):
        pts.append(y)
        y = a * y * (1.0 - y)
    return np.array(pts)


def _orbit(a: float, pts: np.ndarray) -> PeriodicOrbit:
    """The cycle of the orbit record pts from its smallest point on, with its multiplier."""
    cycle = np.roll(pts[:-1], -int(np.argmin(pts[:-1])))
    return PeriodicOrbit(a, len(cycle), tuple(cycle.tolist()), float(np.prod(a * (1.0 - 2.0 * cycle))))


def _polish_orbit(a: float, p: int, seed: float, orbit_tol: float) -> PeriodicOrbit | None:
    """The stable orbit Newton reaches from seed: its primitive reduction
    if that is stable, else the period-p cycle if stable, else None."""
    pts = _newton_polish(a, p, seed, orbit_tol)
    if pts is None:
        return None
    records = [pts]
    tol_prim = max(orbit_tol, _PRIMITIVE_TOL)
    q = _primitive_period(pts, tol_prim)
    if q < p:
        reduced = _newton_polish(a, q, pts[0], orbit_tol)
        if reduced is not None and abs(reduced[0] - pts[0]) <= 10.0 * tol_prim:
            records.insert(0, reduced)
    orbits = (_orbit(a, record) for record in records)
    return next((orbit for orbit in orbits if orbit.stable), None)


def bifurcation_points(k_max: int) -> tuple[float, ...]:
    """The first k_max period-doubling parameters of the cascade.

    a_k is where the period-2^(k-1) orbit's multiplier crosses -1, located
    by bisection on the multiplier; the orbit itself is tracked across the
    bracket by Newton continuation, so the multiplier is available on both
    sides of the crossing. Each a_k is computed once per process.
    """
    _check_integer(k_max, "k_max")
    if not 1 <= k_max <= 6:
        raise ValueError("k_max must be between 1 and 6")
    return _cascade(k_max)


@lru_cache(maxsize=None)
def _cascade(k: int) -> tuple[float, ...]:
    """a_1, ..., a_k: the cached a_1, ..., a_(k-1) extended by a_k.

    The search for a_k starts just above a_(k-1), with a step scaled to the
    shrinking cascade geometry (the gap a_(k-1) - a_(k-2), 0.45 for k = 2)."""
    if k == 1:
        return (_doubling(1, 2.5, 0.01),)
    prev = _cascade(k - 1)
    gap = prev[-1] - prev[-2] if k > 2 else 0.45
    a_lo, step = prev[-1] + max(gap / 25.0, 2e-4), max(gap / 25.0, 1e-5)
    return prev + (_doubling(2 ** (k - 1), a_lo, step),)


def _doubling(p: int, a_lo: float, step: float) -> float:
    """Where the period-p multiplier crosses -1 above a_lo: march up by step
    from the stable period-p attractor at a_lo, then bisect the crossing."""
    att = logistic_attractor(a_lo, max_period=p)
    if not isinstance(att, PeriodicOrbit) or att.period != p:
        raise RuntimeError(f"no stable period-{p} orbit at a={a_lo}")
    lo, seeds = a_lo, att.points
    while True:
        hi = min(lo + step, 4.0)
        orb = _continued(hi, p, seeds)
        if orb.multiplier <= -1.0:
            break
        if hi >= 4.0:
            raise RuntimeError(f"period-{p} multiplier never crossed -1")
        lo, seeds = hi, orb.points
    seeds += orb.points
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        orb = _continued(mid, p, seeds)
        seeds = orb.points
        if orb.multiplier <= -1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _continued(a: float, p: int, seeds) -> PeriodicOrbit:
    """The period-p orbit at a, by Newton from the first seed that polishes
    to a genuinely period-p root. Unlike logistic_attractor it reaches
    unstable orbits too, as the bisection needs beyond each cascade value."""
    for seed in seeds:
        pts = _newton_polish(a, p, float(seed), DEFAULT_ORBIT_TOL)
        if pts is not None and _primitive_period(pts, 1e-7) == p:
            return _orbit(a, pts)
    raise RuntimeError(f"lost the period-{p} branch near a={a}")
