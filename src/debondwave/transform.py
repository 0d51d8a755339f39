"""Pullback of the moving-domain wave equation onto the reference domain.

With K = DPsi(t, Phi) and w = Psi_dot(t, Phi), the fixed-domain problem

    v'' - div(B grad v) + a . grad v - 2 b . grad v' = g

has coefficients

    B = K K^T - w (x) w
    b = -w
    a = -( B^T grad det DPhi + d/dt [ b det DPhi ] ) / det DPhi
    g(t, y) = f(t, Phi(t, y))

and initial data v0 = u0, v1 = u1 + Phi_dot(0, .) . grad u0.

Every 1d family is a pure stretch Phi(t, y) = lam(t) y, so in 1d the
coefficients are exact in lam and its two derivatives:

    B = 1/lam^2 - (lam'/lam)^2 y^2,   b = (lam'/lam) y,   a = -(lam''/lam) y,
    dB/dt = -2 lam'/lam^3 - 2 (lam'/lam)(lam''/lam - (lam'/lam)^2) y^2,
    div b = lam'/lam.

rates() gives lam, lam'/lam and lam''/lam, shaped like t (a scalar t or
an array of times), and line() evaluates the coefficients from them.
line() is rates() and then _fill(), which takes the rates given, so a
caller that holds them (solve_fd, over a whole run) fills from slices of
them with the one formula; _fill_dB() forms dB/dt from them likewise, in
the fixed energy balance's own array, and div b is the rate lam'/lam
itself.  In any dimension diffusion() builds B alone from the composed map
fields K and w; it is what the n-d ellipticity check needs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMismatch, NotElliptic
from .motion import MotionFamily, _as_points


class PulledBackProblem:
    """Vectorized coefficient evaluator for one motion family and forcing."""

    def __init__(self, fam: MotionFamily, forcing=None):
        self.fam = fam
        self.forcing = forcing

    def diffusion(self, t, Y):
        """B = K K^T - w (x) w, shape (P, N, N), at reference points Y; an
        (S,) array of times adds a leading axis, as the maps do."""
        fam = self.fam
        Y = _as_points(Y, fam.dim)
        K = fam.dpsi_at_phi(t, Y)
        w = fam.psi_dot_at_phi(t, Y)
        return np.einsum("...ij,...kj->...ik", K, K) - w[..., :, None] * w[..., None, :]

    def rates(self, t):
        """lam, lam'/lam and lam''/lam, arrays shaped like t (a scalar t or
        an array of times), for a constant stretch too."""
        if self.fam.dim != 1:
            raise ValueError("rates() and line() are the 1d path")
        lam, dlam, ddlam = self.fam.stretch(t)
        return np.broadcast_arrays(t, lam, dlam / lam, ddlam / lam)[1:]

    def line(self, t, y, out=None):
        """1d closed form: (B, a, b, g) along reference points y.

        A scalar t gives (n,) arrays, an (S,) array of times (S, n) arrays.
        out, if given, is a tuple of four arrays of that shape filled in
        place; an entry None is not computed.  It is ``_fill`` with
        rates(t).
        """
        t = np.asarray(t, dtype=float)
        return self._fill(t, y, self.rates(t), out)

    def _fill(self, t, y, rates, out=None):
        """line(t, y, out) from rates = (lam, lam'/lam, lam''/lam) at t."""
        y = np.asarray(y, dtype=float).reshape(-1)
        lam, rate, accel = rates
        if out is None:
            out = tuple(np.empty(t.shape + y.shape) for _ in range(4))
        B, a, b, g = out
        if B is not None:
            np.multiply.outer(-rate * rate, y * y, out=B)
            B += np.asarray(1.0 / (lam * lam))[..., None]
        if a is not None:
            np.multiply.outer(-accel, y, out=a)
        if b is not None:
            np.multiply.outer(rate, y, out=b)
        if g is not None:
            if self.forcing is None:
                g.fill(0.0)
            elif t.ndim == 0:
                g[...] = self.forcing(float(t), float(lam) * y)
            else:
                g[...] = self.forcing(t[:, None], np.multiply.outer(lam, y))
        return out

    def _fill_dB(self, y, rates, out):
        """dB/dt along y, shaped like line(), from rates = (lam, lam'/lam,
        lam''/lam) at the times of out's rows, written into out."""
        lam, rate, accel = rates
        np.multiply.outer(-2.0 * rate * (accel - rate * rate), y * y, out=out)
        out -= np.expand_dims(2.0 * rate / (lam * lam), -1)
        return out


def ellipticity_constant(fam, nt=21, npts=41):
    """min over the sample grid of the smallest eigenvalue of B (> 0 or raise)."""
    problem = PulledBackProblem(fam)
    ts = np.linspace(0.0, fam.horizon, nt)
    Y = fam.reference.interior_grid(npts)
    if fam.dim == 1:
        c = float(np.min(problem.line(ts, Y)[0]))
    else:
        c = float(np.min(np.linalg.eigvalsh(problem.diffusion(ts, Y))))
    if c <= 0.0:
        raise NotElliptic(f"min eig(B) = {c} <= 0 on the sample grid")
    return c


@dataclass
class TransformedData:
    """Initial data of the fixed-domain problem, as callables on the reference."""

    v0: object
    v1: object


def pullback_initial(fam, u0, u1):
    """v0 = u0 and v1 = u1 + Phi_dot(0, .) . grad u0 (1d fields)."""
    if fam.dim != 1:
        raise ValueError("pullback_initial implemented for 1d data")

    def v1(y):
        y = np.asarray(y, dtype=float)
        pd = fam.phi_dot(0.0, y.reshape(-1, 1))[:, 0]
        return np.asarray(u1(y), dtype=float) + pd * np.asarray(u0.deriv(y), dtype=float)

    return TransformedData(v0=u0, v1=v1)


def pushforward(fam, traj_eval, t, x):
    """Physical-space values (u, u_dot, grad u) at x, zero-extended.

    traj_eval(t, y) must return (v, v_dot, grad v) on reference points;
    the chain rules u_dot = v_dot + grad v . Psi_dot and
    grad u = DPsi^T grad v are applied at y = Psi(t, x).  The boolean
    array flags points outside Omega_t (zero extension used there).
    """
    X = _as_points(x, fam.dim)
    y = fam.psi(t, X)
    outside = ~fam.reference.contains(y)
    y = np.clip(y, 0.0, fam.reference.length) if fam.dim == 1 else y
    v, vd, vy = traj_eval(t, y)
    K = fam.dpsi_at_phi(t, y)
    psd = fam.psi_dot_at_phi(t, y)
    u = np.array(v, dtype=float)
    ud = np.asarray(vd, dtype=float) + np.sum(np.asarray(vy) * psd, axis=1)
    gu = np.einsum("pji,pj->pi", K, np.asarray(vy, dtype=float))
    if np.any(outside):
        u[outside] = 0.0
        ud[outside] = 0.0
        gu[outside] = 0.0
    return u, ud, gu, outside


LIFT_TOL = 1e-9


def lift_dirichlet(W, U0, U1, fixed_points, moving_points=None):
    """Reduce a nonzero load W on the fixed boundary to homogeneous data.

    Returns (f, u0, u1) with f(t,x) = Lap W - W_tt, u0 = U0 - W(0,.),
    u1 = U1 - W_t(0,.).  W must vanish on the moving boundary; U0 must
    match W(0,.) on the fixed boundary; both hold to LIFT_TOL.
    """
    fixed_points = np.atleast_1d(np.asarray(fixed_points, dtype=float))
    gap = np.max(np.abs(np.asarray(U0(fixed_points)) - W(0.0, fixed_points)))
    if gap > LIFT_TOL:
        raise BoundaryMismatch(f"U0 differs from W(0,.) by {gap} on the fixed boundary")
    if moving_points is not None:
        ts, xs = moving_points
        wmax = float(np.max(np.abs(W(np.asarray(ts), np.asarray(xs)))))
        if wmax > LIFT_TOL:
            raise BoundaryMismatch(f"W does not vanish on the moving boundary (max {wmax})")

    def f(t, x):
        return W.dxx(t, x) - W.dtt(t, x)

    class _U0:
        def __call__(self, x):
            return np.asarray(U0(x)) - W(0.0, x)

        def deriv(self, x):
            return np.asarray(U0.deriv(x)) - W.dx(0.0, x)

    def u1(x):
        return np.asarray(U1(x)) - W.dt(0.0, x)

    return f, _U0(), u1
