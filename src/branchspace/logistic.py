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


def _orbit_multiplier(a: float, points: np.ndarray) -> float:
    return float(np.prod(a * (1.0 - 2.0 * points)))


def _newton_polish(a: float, p: int, x0: float, tol: float) -> float | None:
    """Newton on F(x) = map^p(x) - x; F' is the chain-rule product minus 1.

    Returns the polished root, or None when F' vanishes or the residual
    |map^p(root) - root| exceeds tol.
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
        step = fval / fprime
        x_new = x - step
        if not 0.0 <= x_new <= 1.0:
            # bisection-style damping back into the unit interval
            x_new = min(1.0, max(0.0, 0.5 * (x + min(1.0, max(0.0, x_new)))))
        x, x_old = x_new, x
        if abs(x - x_old) <= 1e-15:
            break
    return x if abs(iterate(a, x, p) - x) <= tol else None


def _primitive_period(a: float, x: float, p: int, tol: float) -> int:
    """Smallest divisor q of p with map^q(x) = x within tol."""
    for q in range(1, p):
        if p % q == 0 and abs(iterate(a, x, q) - x) <= tol:
            return q
    return p


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


def _polish_orbit(a: float, p: int, seed: float, orbit_tol: float) -> PeriodicOrbit | None:
    """The stable orbit Newton reaches from seed: its primitive reduction
    if that is stable, else the period-p cycle if stable, else None."""
    root = _newton_polish(a, p, seed, orbit_tol)
    if root is None:
        return None
    cycles = [(p, root)]
    tol_prim = max(orbit_tol, _PRIMITIVE_TOL)
    q = _primitive_period(a, root, p, tol_prim)
    if q < p:
        reduced = _newton_polish(a, q, root, orbit_tol)
        if reduced is not None and abs(reduced - root) <= 10.0 * tol_prim:
            cycles.insert(0, (q, reduced))
    for period, x in cycles:
        pts = _cycle_points(a, x, period)
        pts = np.roll(pts, -int(np.argmin(pts)))
        orbit = PeriodicOrbit(a, period, tuple(float(v) for v in pts), _orbit_multiplier(a, pts))
        if orbit.stable:
            return orbit
    return None


def orbit_for_period(a: float, p: int, seeds) -> PeriodicOrbit | None:
    """Continue a known period-p orbit to parameter a from seed points.

    Unlike logistic_attractor this works on unstable orbits too (Newton
    does not care about stability), which is what the bifurcation-point
    bisection needs on the far side of each cascade value. Seeds are tried
    in order until one polishes to a genuinely period-p root; None means
    every seed drifted off the branch onto a lower-period orbit.
    """
    a = _validate_parameter(a)
    for seed in seeds:
        root = _newton_polish(a, p, float(seed), DEFAULT_ORBIT_TOL)
        if root is None or _primitive_period(a, root, p, 1e-7) < p:
            continue  # off the branch or on a lower-period root
        pts = _cycle_points(a, root, p)
        return PeriodicOrbit(a, p, tuple(float(v) for v in pts), _orbit_multiplier(a, pts))
    return None


@lru_cache(maxsize=None)
def bifurcation_points(k_max: int) -> tuple[float, ...]:
    """The first k_max period-doubling parameters of the cascade.

    a_k is where the period-2^(k-1) orbit's multiplier crosses -1, located
    by bisection on the multiplier; the orbit itself is tracked across the
    bracket by Newton continuation, so the multiplier is available on both
    sides of the crossing.
    """
    if not 1 <= k_max <= 6:
        raise ValueError("k_max must be between 1 and 6")

    results: list[float] = []
    a_lo = 2.5
    step = 0.01
    for k in range(1, k_max + 1):
        p = 2 ** (k - 1)
        # refresh the seeds from the attractor just above the previous
        # doubling, where the period-p orbit is comfortably stable
        att = logistic_attractor(a_lo, max_period=p)
        if not isinstance(att, PeriodicOrbit) or att.period != p:
            raise RuntimeError(f"no stable period-{p} orbit at a={a_lo}")

        # march upward until the multiplier crosses -1, shrinking the step
        # whenever Newton hops off the branch
        a_prev, seeds_prev = a_lo, att.points
        s = step
        while True:
            a_cur = min(a_prev + s, 4.0)
            orb = orbit_for_period(a_cur, p, seeds_prev)
            if orb is None:
                s *= 0.5
                if s < 1e-10:
                    raise RuntimeError(f"lost the period-{p} branch near a={a_prev}")
                continue
            if orb.multiplier <= -1.0:
                break
            if a_cur >= 4.0:
                raise RuntimeError(f"period-{p} multiplier never crossed -1")
            a_prev, seeds_prev = a_cur, orb.points
            s = step

        lo, hi = a_prev, a_cur
        seeds = seeds_prev + orb.points
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            orb = orbit_for_period(mid, p, seeds)
            if orb is None:
                raise RuntimeError(f"lost the period-{p} branch near a={mid}")
            seeds = orb.points
            if orb.multiplier <= -1.0:
                hi = mid
            else:
                lo = mid
        a_k = 0.5 * (lo + hi)
        results.append(a_k)

        # next sweep starts just above this doubling, with a step scaled
        # to the shrinking cascade geometry
        gap = (results[-1] - results[-2]) if len(results) >= 2 else 0.45
        step = max(gap / 25.0, 1e-5)
        a_lo = a_k + max(gap / 25.0, 2e-4)
    return tuple(results)
