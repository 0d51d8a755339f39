"""1d characteristics machinery: d'Alembert solutions and the exact front ODE.

This module supplies ground truth for every 1d test.  The fixed-interval
solution is u = F(t + x) - F(t - x), F(s) = [u0~(s) + U1(s)]/2, with u0~ the
odd 2L-periodic extension of u0 and U1 the antiderivative of u1's, which is
even and 2L-periodic (the extension has zero mean over a period): U1(s) is
the integral of u1 from 0 to the one point of [0, L] that s folds to, exact
for a catalog expression.  A forcing adds 1/2 iint_{cone} f~.  The debonding
front obeys

    l'(t) = max( (F^2 - 2 kappa(l)) / (F^2 + 2 kappa(l)), 0 ),
    F = u0'(l-t) - u1(l-t) - int_0^t f(tau, tau - t + l(t)) dtau,

valid while the backward characteristic from (t, l(t)) reads the initial
data directly, i.e. while l(t) - t >= 0.  Integration stops at the first
root of l(t) - t (the horizon T*) and refuses to continue past it.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityViolated, NonPositiveToughness, TooFewSamples
from .expressions import Expression, forcing_or_none

QUAD_TOL = 1e-9  # error target of every adaptive Simpson quadrature below


def adaptive_simpson(f, a, b):
    """Classic recursive adaptive Simpson rule to QUAD_TOL, at most 48 levels deep."""
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth >= 48 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, xm, f0, fl, f1, left, 0.5 * eps, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, 0.5 * eps, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, QUAD_TOL, 0)


def _fold(s, L):
    """Map a real s to (point in [0, L], sign) of the odd 2L-periodic extension."""
    p = math.fmod(s, 2.0 * L)
    if p < 0.0:
        p += 2.0 * L
    if p <= L:
        return p, 1.0
    return 2.0 * L - p, -1.0


def _extended_value(field, s, L):
    p, sign = _fold(s, L)
    return sign * float(field(p))


def _antiderivative(field, s, L):
    """int_0^p field at the folded point p = _fold(s, L)[0]: the antiderivative
    of the odd 2L-periodic extension, even and 2L-periodic.  Exact for a
    catalog expression, adaptive Simpson at QUAD_TOL else."""
    p = _fold(s, L)[0]
    if isinstance(field, Expression):
        return float(field.integral(0.0, p))
    return adaptive_simpson(lambda x: float(field(x)), 0.0, p)


def dalembert_fixed(L, u0, u1, f, t, x):
    """Exact solution of the fixed-interval problem at one point."""
    if not (0.0 <= x <= L):
        raise ValueError("x outside [0, L]")

    def F(s):
        return 0.5 * (_extended_value(u0, s, L) + _antiderivative(u1, s, L))

    u = F(t + x) - F(t - x)
    f = forcing_or_none(f)
    if f is not None:
        def cone_slice(s):
            lo, hi = x - (t - s), x + (t - s)
            if isinstance(getattr(f, "space", None), Expression):
                inner = _antiderivative(f.space, hi, L) - _antiderivative(f.space, lo, L)
                return float(f.time(s)) * inner
            return adaptive_simpson(lambda xi: _extended_value(lambda p: f(s, p), xi, L), lo, hi)

        u += 0.5 * adaptive_simpson(cone_slice, 0.0, t)
    return u


# --- debonding front ------------------------------------------------------


@dataclass
class CharScenario:
    """Data of the 1d coupled problem on the initial interval (0, l0)."""

    l0: float
    u0: object            # field with .deriv on [0, l0]
    u1: object
    kappa: object         # toughness field on [l0, inf)
    horizon: float
    forcing: object = None

    def front_data(self, xi):
        """u0'(xi) - u1(xi), the characteristic combination feeding the ODE."""
        return float(self.u0.deriv(xi)) - float(self.u1(xi))


class Verdict(enum.Enum):
    SUBCRITICAL_REST = "SubcriticalRest"
    ACTIVATED_START = "ActivatedStart"
    INCOMPATIBLE = "Incompatible"


COMPAT_TOL = 1e-9  # |u1| of a front at rest, slack of the (in)equalities


def compatibility_check(u0_prime, u1, kappa):
    """Classify initial data at a front point.

    Either u1 = 0 with (u0')^2 <= 2 kappa (rest), or u1 != 0 with
    (u0')^2 - u1^2 = 2 kappa and u0'/u1 < -1 (activated start).
    """
    if kappa <= 0.0:
        raise NonPositiveToughness(f"kappa = {kappa}")
    if abs(u1) <= COMPAT_TOL:
        if u0_prime * u0_prime <= 2.0 * kappa + COMPAT_TOL:
            return Verdict.SUBCRITICAL_REST
        return Verdict.INCOMPATIBLE
    if abs(u0_prime * u0_prime - u1 * u1 - 2.0 * kappa) <= COMPAT_TOL * (1 + kappa):
        if u0_prime / u1 < -1.0:
            return Verdict.ACTIVATED_START
    return Verdict.INCOMPATIBLE


@dataclass
class FrontCurve:
    times: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    tstar: float


def front_ode_exact(sc: CharScenario, dt=1e-3):
    """Integrate the exact front ODE with RK4 up to min(T, T*).

    T* is the first time l(t) - t hits zero (located by step bisection);
    past it the backward characteristic no longer reads initial data and
    the formula is refused.  The data must pass ``compatibility_check`` at
    l0, and u0(l0) = 0.
    """
    l0 = sc.l0
    if abs(float(sc.u0(l0))) > 1e-9:
        raise CompatibilityViolated("u0 must vanish at the initial front")
    verdict = compatibility_check(float(sc.u0.deriv(l0)), float(sc.u1(l0)), float(sc.kappa(l0)))
    if verdict is Verdict.INCOMPATIBLE:
        raise CompatibilityViolated("front data fail the compatibility conditions at l0")

    forcing = forcing_or_none(sc.forcing)

    def speed(t, ell):
        xi = ell - t
        if xi < -1e-12:
            return None
        xi = max(xi, 0.0)
        F = sc.front_data(xi)
        if forcing is not None:
            F -= adaptive_simpson(lambda tau: float(forcing(tau, tau - t + ell)), 0.0, t)
        k = float(sc.kappa(ell))
        F2 = F * F
        return max((F2 - 2.0 * k) / (F2 + 2.0 * k), 0.0)

    def rk4_step(t, ell, step):
        s1 = speed(t, ell)
        if s1 is None:
            return None, None
        s2 = speed(t + 0.5 * step, ell + 0.5 * step * s1)
        s3 = speed(t + 0.5 * step, ell + 0.5 * step * s2) if s2 is not None else None
        s4 = speed(t + step, ell + step * s3) if s3 is not None else None
        if s2 is None or s3 is None or s4 is None:
            return None, None
        return ell + step / 6.0 * (s1 + 2 * s2 + 2 * s3 + s4), s1

    times = [0.0]
    ells = [sc.l0]
    speeds = [speed(0.0, sc.l0)]
    t, ell = 0.0, sc.l0
    tstar = sc.horizon
    while t < sc.horizon - 1e-14:
        step = min(dt, sc.horizon - t)
        nxt, _ = rk4_step(t, ell, step)
        if nxt is None or nxt - (t + step) < 0.0:
            # bisect the step fraction so that l(T*) - T* = 0 within one step
            lo, hi = 0.0, step
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                cand, _ = rk4_step(t, ell, mid)
                if cand is None or cand - (t + mid) < 0.0:
                    hi = mid
                else:
                    lo = mid
            cand, _ = rk4_step(t, ell, lo)
            if cand is not None and lo > 0:
                t, ell = t + lo, cand
                times.append(t)
                ells.append(ell)
                speeds.append(speed(t, ell) or 0.0)
            tstar = t
            break
        t, ell = t + step, nxt
        times.append(t)
        ells.append(ell)
        speeds.append(speed(t, ell))
    else:
        tstar = sc.horizon

    return FrontCurve(
        times=np.asarray(times),
        position=np.asarray(ells),
        speed=np.asarray(speeds, dtype=float),
        tstar=tstar,
    )


# --- boundary traces ------------------------------------------------------


def one_sided_derivative(values, spacing, side):
    """2nd-order one-sided derivative from three samples ending at the boundary.

    values are ordered inward-to-boundary: [f(b - 2 h), f(b - h), f(b)] for
    side='right', or [f(a), f(a + h), f(a + 2 h)] reversed for side='left'
    (pass values boundary-first there: [f(a), f(a+h), f(a+2h)]).  values
    is a float64 array or a list of floats (``.tolist()`` of three samples),
    indexed as it is: the same float64 arithmetic either way.
    """
    v = values
    if len(v) < 3:
        raise TooFewSamples("one-sided stencil needs three samples")
    if side == "right":
        return (v[-3] - 4.0 * v[-2] + 3.0 * v[-1]) / (2.0 * spacing)
    if side == "left":
        return (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    raise ValueError("side must be 'left' or 'right'")

