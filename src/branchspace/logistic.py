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

A sweep (`attractors`) runs that first stage in lockstep, estimating each
exponent as it runs; `_burn_in_exponent` decides where the estimate cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import _check_integer, _check_positive
from .errors import ParameterOutOfRange

DEFAULT_ORBIT_TOL = 1e-10
BURN_IN = 10_000
MAX_BURN_IN = 1_000_000
CHAOS_EXPONENT = 0.02
_DETECT_TOL = 1e-5
_CHUNK = 256  # parameters per lockstep
_LAG_CELLS = 1 << 13  # differences per block of the lag test
_ESTIMATE_MARGIN = 1e-9  # the lockstep estimate decides only this far from CHAOS_EXPONENT
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


# The scalar first stage's verdict, and the oracle and exact fallback of a sweep's lockstep estimate.
def _burn_in_exponent(a: float) -> float:
    """Finite-time Lyapunov exponent: the mean of log|a (1 - 2x)| over the
    BURN_IN iterates x_1, x_2, ... of x_0 = 0.5 (-inf if one of them is 0.5)."""
    xs = _cycle_points(a, logistic(a, 0.5), BURN_IN)
    with np.errstate(divide="ignore"):
        return float(np.mean(np.log(np.abs(a * (1.0 - 2.0 * xs)))))


def _checked(a: float, max_period: int, orbit_tol: float) -> float:
    """a as a float, once a, orbit_tol and max_period pass their checks, in that order."""
    a = _validate_parameter(a)
    _check_positive(orbit_tol, "orbit_tol")
    _check_integer(max_period, "max_period")
    if max_period not in MAX_PERIODS:
        raise ValueError(f"max_period must be a power of 2 at most {MAX_PERIODS[-1]}")
    return a


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
    return _escalate(_checked(a, max_period, orbit_tol), 0.5, 0, max_period, orbit_tol)


def attractors(params, max_period: int = MAX_PERIODS[-1], orbit_tol: float = DEFAULT_ORBIT_TOL) -> list:
    """[logistic_attractor(a, max_period, orbit_tol) for a in params], bad input included."""
    values = [_checked(a, max_period, orbit_tol) for a in params]
    result: list[PeriodicOrbit | Chaotic] = []
    for chunk in np.array_split(np.array(values), -(-len(values) // _CHUNK)) if values else ():
        window, est = _lockstep(chunk, 9 * max_period)
        for a, seed, e, res in zip(chunk.tolist(), window[-1].tolist(), est.tolist(), _lag_residuals(window, max_period)):
            orbit = _locked_orbit(a, res, seed, orbit_tol)
            if orbit is None:
                if not (math.isfinite(e) and abs(e - CHAOS_EXPONENT) > _ESTIMATE_MARGIN):
                    e = _burn_in_exponent(a)
                x = logistic(a, seed)
                orbit = Chaotic(a, max_period) if e > CHAOS_EXPONENT else _escalate(a, x, BURN_IN, max_period, orbit_tol)
            result.append(orbit)
    return result


def _lockstep(a: np.ndarray, window_len: int) -> tuple[np.ndarray, np.ndarray]:
    """BURN_IN steps of x -> (a x)(1 - x) from 0.5 for all parameters a at once: the
    (window_len, len(a)) window that follows, and the estimate of `_burn_in_exponent`,
    log a + the mean of log|1 - 2x| over x_1..x_BURN_IN. 1 - 2x = 2 (0.5 - x) exactly, and
    each 0.5 - x is 0 or in [2^-54, 0.5], so their product, renormalised every 16 steps, stays normal."""
    x, t, prod, scale = np.full(a.shape, 0.5), np.empty(a.shape), np.ones(a.shape), np.full(a.shape, BURN_IN)
    for _ in range(BURN_IN // 16):
        for _ in range(16):
            np.multiply(a, x, out=t)
            np.subtract(1.0, x, out=x)
            np.multiply(t, x, out=x)
            np.multiply(prod, np.subtract(0.5, x, out=t), out=prod)
        prod, exp = np.frexp(prod)
        scale += exp
    window = np.empty((window_len,) + a.shape)
    for k in range(window_len):
        window[k] = x
        x = a * x * (1.0 - x)
    with np.errstate(divide="ignore"):
        return window, (np.log(np.abs(prod)) + scale * math.log(2.0)) / BURN_IN + np.log(a)


def _lag_residuals(window: np.ndarray, max_period: int) -> np.ndarray:
    """Entry (..., p - 1): max |x_(k+p) - x_k| over the last 4 max_period x_(k+p) of each window column."""
    v = sliding_window_view(window[-5 * max_period:], 4 * max_period, axis=0)[::-1]  # the tail, then lag p at p
    step = max(1, _LAG_CELLS // v[0].size)  # lags per block of differences
    return np.concatenate([np.max(np.abs(v[0] - v[i:i + step]), axis=-1) for i in range(1, len(v), step)]).T


def _locked_orbit(a: float, residuals: np.ndarray, seed: float, orbit_tol: float) -> PeriodicOrbit | None:
    """The first stable orbit that a locked lag polishes to from seed, smallest lag first."""
    orbits = (_polish_orbit(a, p + 1, seed, orbit_tol) for p in np.flatnonzero(residuals <= _DETECT_TOL).tolist())
    return next((orbit for orbit in orbits if orbit is not None), None)


def _escalate(a: float, x: float, total: int, max_period: int, orbit_tol: float) -> PeriodicOrbit | Chaotic:
    """The search of `logistic_attractor` from state x after total (0 or BURN_IN) burn-in steps."""
    while True:
        steps = total * 9 or BURN_IN  # decade-wise extension for slow convergence
        total += steps
        window = _cycle_points(a, iterate(a, x, steps), 9 * max_period)
        seed = float(window[-1])
        orbit = _locked_orbit(a, _lag_residuals(window, max_period), seed, orbit_tol)
        if orbit is not None:
            return orbit
        if total >= MAX_BURN_IN or (total == BURN_IN and _burn_in_exponent(a) > CHAOS_EXPONENT):
            return Chaotic(parameter=a, max_period=max_period)
        x = logistic(a, seed)


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
    _check_integer(k_max, "k_max", 1, 6)
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
