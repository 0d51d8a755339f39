"""Moving-domain families described by diffeomorphisms.

A family maps a fixed reference domain onto the moving one through
Phi(t, .), with inverse Psi(t, .).  Two kinds are built in:

    Stretch         Phi(t, y) = lam(t) y with lam = p(t)/s on any reference
                    domain; the identity (p = 1), the interval scaling
                    (p = l, s = l(0)), the interval flow (p = rho,
                    s = rho(0)) and the homothety (lam(0) = 1) are its
                    constructors
    SublevelFlow    Phi is the flow of  x' = (rho'/rho)(|x| - R) x/|x|^2,
                    so that Omega_t = { R - rho(t) < |x| < R } (annuli)

Both are the level-set flow x' = (rho'/rho)(g(x) - R) grad g/|grad g|^2 of
Omega_t = { R - rho(t) < g < R }.  On the line, g = R - x gives the field
(rho'/rho) x, in which R cancels: Phi = (rho(t)/rho(0)) y, so the interval
flow is built as that stretch.  Radially (g = |x|) each point moves along
its ray and |x| - R scales by q = rho(t1)/rho(t0), so Phi, DPhi, Phi_dot,
det DPhi and its t- and y-derivatives are exact formulas in q and q'.  Psi
for SublevelFlow is the same transport evaluated from t back to 0, never
the inverse matrix of DPhi, and psi_dot is its time derivative.  phi and
psi only transport the points; dphi and dpsi form the Jacobian from that
same transport.

The composed fields DPsi(t, Phi) and Psi_dot(t, Phi) use the exact
algebraic relations (the inverse of DPhi and -DPsi Phi_dot), and the
normal pushforward DPsi(t, Phi)^T nu0 that boundary_kinematics reads is a
closed form per kind: nu0 / lam for a stretch and (c/q) yh + (nu0 - c yh)/s
radially (yh = y/|y|, c = yh . nu0).
boundary_kinematics evaluates all faces of a call together, each map once
on their stacked points, and hands each face slices of the results.
The *direct* Psi-side evaluators (psi, dpsi, det_dpsi, psi_dot) are kept
independent so that identity validation is not circular.  Tolerances are
split by the class attribute tol, which no constructor takes: 1e-9 for
stretches (round-off), 1e-6 for the sublevel flow (its det DPsi varies in
x, so validate's central differences of it carry truncation error).

Time is an array axis: every map, boundary_kinematics and domain_measure
take a scalar t, which gives vector fields (P, N), Jacobians (P, N, N),
determinants (P,) and a float measure, or an (S,) array of times, which
adds a leading axis.  Points are shared, (P, N), or per time, (S, P, N),
as X = phi(ts, Y) is on the inverse side.  A batched call equals the
stacked scalar calls bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .domains import Annulus, Interval, ReferenceDomain, _unit_ball_volume
from .errors import (
    DegenerateNormal,
    FlowEscape,
    LevelOutOfRange,
    NonPositiveScale,
    ProfileStart,
)
from .expressions import Const, Expression


def _as_points(Y, dim):
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 0:
        Y = Y.reshape(1, 1)
    elif Y.ndim == 1:
        Y = Y.reshape(-1, 1) if dim == 1 else Y.reshape(1, -1)
    if Y.shape[-1] != dim:
        raise ValueError(f"points have dimension {Y.shape[-1]}, family has {dim}")
    return Y


def _dot(a, b):
    """sum_k a_k b_k over the short last axis, summed in index order."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def _pow(x, n):
    """x ** n per element with Python's float pow, which a scalar x has always
    used; numpy's array power rounds some elements differently."""
    return np.asarray(np.asarray(x, dtype=float).astype(object) ** n, dtype=float)


def _check_positive_profile(profile, horizon, name):
    """The profile at 400 times of the padded horizon, all of them positive."""
    pad = 1.0e-2 * max(1.0, horizon)
    ts = np.linspace(-pad, horizon + pad, 400)
    vals = np.asarray(profile(ts), dtype=float)
    if np.any(vals <= 0):
        raise NonPositiveScale(f"{name}(t) must stay positive on the horizon")
    return vals


class MotionFamily:
    """Base class for the built-in families; each sets ``tol`` for validate."""

    def __init__(self, reference: ReferenceDomain, horizon: float):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.reference = reference
        self.horizon = float(horizon)
        self.dim = reference.dim

    # forward side -------------------------------------------------------
    def phi(self, t, Y):
        raise NotImplementedError

    def phi_dot(self, t, Y):
        raise NotImplementedError

    def dphi(self, t, Y):
        raise NotImplementedError

    def det_dphi(self, t, Y):
        raise NotImplementedError

    def det_dphi_dt(self, t, Y):
        raise NotImplementedError

    def grad_det_dphi(self, t, Y):
        raise NotImplementedError

    # composed fields used by kinematics and the diffusion B -------------
    def dpsi_at_phi(self, t, Y):
        raise NotImplementedError

    def normal_pushforward(self, t, Y, nu0):
        """DPsi(t, Phi(t, y))^T nu0 for reference normals nu0 (P, N) at the
        points Y, in closed form: (P, N), or (S, P, N) for (S,) times."""
        raise NotImplementedError

    def psi_dot_at_phi(self, t, Y):
        """Psi_dot(t, Phi(t, y)) = -DPsi(t, Phi) Phi_dot(t, y)."""
        K = self.dpsi_at_phi(t, Y)
        pd = self.phi_dot(t, Y)
        return -np.einsum("...ij,...j->...i", K, pd)

    # independent inverse side (validation) --------------------------------
    def psi(self, t, X):
        raise NotImplementedError

    def dpsi(self, t, X):
        raise NotImplementedError

    def det_dpsi(self, t, X):
        return np.linalg.det(self.dpsi(t, X))

    def psi_dot(self, t, X):
        """Time derivative of Psi at fixed x."""
        raise NotImplementedError

    # derived --------------------------------------------------------------
    def domain_measure(self, t):
        raise NotImplementedError


# --- stretch --------------------------------------------------------------

ANALYTIC_TOL = 1.0e-9


class StretchMotion(MotionFamily):
    """Phi(t, y) = lam(t) y with lam = profile / scale on any reference domain."""

    tol = ANALYTIC_TOL

    def __init__(self, profile: Expression, reference: ReferenceDomain, scale, horizon):
        super().__init__(reference, horizon)
        self.profile = profile
        self.scale = float(scale)

    def _lam(self, t):
        """lam at a scalar t or an (S,) array of times, shaped (..., 1, 1) to
        scale (P, N) or (S, P, N) points."""
        return np.asarray(self.profile(t), dtype=float)[..., None, None] / self.scale

    def _dlam(self, t):
        return np.asarray(self.profile.deriv(t), dtype=float)[..., None, None] / self.scale

    def _fill(self, Y, c):
        """The per-time values c at every point: (..., P)."""
        return c[..., 0] * np.ones(_as_points(Y, self.dim).shape[-2])

    def _eyes(self, Y, c):
        """c I at every point: (..., P, N, N)."""
        P = _as_points(Y, self.dim).shape[-2]
        return np.ones((P, 1, 1)) * (c[..., None] * np.eye(self.dim))

    def phi(self, t, Y):
        return _as_points(Y, self.dim) * self._lam(t)

    def phi_dot(self, t, Y):
        return _as_points(Y, self.dim) * self._dlam(t)

    def dphi(self, t, Y):
        return self._eyes(Y, self._lam(t))

    def det_dphi(self, t, Y):
        return self._fill(Y, _pow(self._lam(t), self.dim))

    def det_dphi_dt(self, t, Y):
        lam = self._lam(t)
        return self._fill(Y, self.dim * _pow(lam, self.dim - 1) * self._dlam(t))

    def grad_det_dphi(self, t, Y):
        return np.zeros_like(self.phi(t, Y))

    def dpsi_at_phi(self, t, Y):
        return self._eyes(Y, 1.0 / self._lam(t))

    def normal_pushforward(self, t, Y, nu0):
        """nu0 / lam at every time."""
        return nu0 / self._lam(t)

    def psi(self, t, X):
        return _as_points(X, self.dim) / self._lam(t)

    def dpsi(self, t, X):
        return self._eyes(X, 1.0 / self._lam(t))

    def psi_dot(self, t, X):
        lam = self._lam(t)
        return -self._dlam(t) * _as_points(X, self.dim) / (lam * lam)

    def domain_measure(self, t):
        s = self.scale
        return _pow(self.profile(t), self.dim) * (self.reference.measure() / s ** self.dim)

    def stretch(self, t):
        """(lam, lam', lam'') at a scalar t or an array of times."""
        p, s = self.profile, self.scale
        return p(t) / s, p.deriv(t) / s, p.deriv2(t) / s


# --- sublevel flow --------------------------------------------------------

FLOW_TOL = 1.0e-6


def _check_below_level(R, profile, horizon):
    """rho positive and below the outer level R on the padded horizon."""
    if np.any(_check_positive_profile(profile, horizon, "rho") >= R):
        raise LevelOutOfRange("rho(t) must stay below the outer level R")


class SublevelFlowMotion(MotionFamily):
    """Annuli Omega_t = { R - rho(t) < |x| < R } in dim >= 2, transported by
    the level-set flow of g = |x|."""

    tol = FLOW_TOL

    def __init__(self, R, profile: Expression, horizon, dim=2):
        self.R = float(R)
        self.profile = profile
        _check_below_level(self.R, profile, horizon)
        self._rho0 = float(profile(0.0))
        super().__init__(Annulus(self.R - self._rho0, self.R, dim), horizon)

    # flow plumbing --------------------------------------------------------
    def _flow(self, Y, t0, t1):
        """Transport points from the level sets at t0 to those at t1.

        |x| - R scales by q = rho(t1)/rho(t0) along the rays, so the points
        are closed-form.  Returns the points x and what ``_jacobian`` forms
        DPhi from: q, y/|y|, |x| and |y|.
        """
        Y = _as_points(Y, self.dim)
        q = (np.asarray(self.profile(t1), dtype=float)
             / np.asarray(self.profile(t0), dtype=float))[..., None]
        r0 = np.linalg.norm(Y, axis=-1)
        yh = Y / r0[..., None]
        r = self.R + q * (r0 - self.R)
        x = r[..., None] * yh
        if not np.all(np.isfinite(x)):
            raise FlowEscape("sublevel flow produced non-finite points")
        if np.any(np.linalg.norm(x, axis=-1) <= 1e-3 * self.R):
            raise FlowEscape("sublevel flow left the region where g is usable")
        return x, q, yh, r, r0

    def _jacobian(self, x, q, yh, r, r0):
        """DPhi of the transport ``_flow`` returned: q yh yh^T + (r/r0) (I - yh yh^T)."""
        radial = yh[..., :, None] * yh[..., None, :]
        return (q[..., None, None] * radial
                + (r / r0)[..., None, None] * (np.eye(self.dim) - radial))

    def _parts(self, t, Y):
        """Points, q = rho(t)/rho(0) and q' (with a trailing axis for the
        points), |y| and s = |Phi|/|y| = q + (1 - q) R/|y|."""
        Y = _as_points(Y, self.dim)
        q = (np.asarray(self.profile(t), dtype=float) / self._rho0)[..., None]
        dq = (np.asarray(self.profile.deriv(t), dtype=float) / self._rho0)[..., None]
        r0 = np.linalg.norm(Y, axis=-1)
        return Y, q, dq, r0, q + (1.0 - q) * self.R / r0

    # forward side ---------------------------------------------------------
    def phi(self, t, Y):
        return self._flow(Y, 0.0, t)[0]

    def dphi(self, t, Y):
        return self._jacobian(*self._flow(Y, 0.0, t))

    def phi_dot(self, t, Y):
        """q' (|y| - R) y/|y|."""
        Y, _, dq, r0, _ = self._parts(t, Y)
        return dq[..., None] * (r0[..., None] - self.R) * (Y / r0[..., None])

    def det_dphi(self, t, Y):
        """q s^(n-1)."""
        _, q, _, _, s = self._parts(t, Y)
        return q * s ** (self.dim - 1)

    def det_dphi_dt(self, t, Y):
        """q' s^(n-1) + (n-1) q s^(n-2) q' (|y| - R)/|y|."""
        _, q, dq, r0, s = self._parts(t, Y)
        n = self.dim
        return dq * s ** (n - 1) + (n - 1) * q * s ** (n - 2) * dq * (r0 - self.R) / r0

    def grad_det_dphi(self, t, Y):
        """-(n-1) q (1-q) R s^(n-2)/|y|^2 y/|y|."""
        Y, q, _, r0, s = self._parts(t, Y)
        n = self.dim
        return (-(n - 1) * q * (1.0 - q) * self.R * s ** (n - 2) / r0 ** 3)[..., None] * Y

    def dpsi_at_phi(self, t, Y):
        return np.linalg.inv(self.dphi(t, Y))

    def normal_pushforward(self, t, Y, nu0):
        """DPhi = q yh yh^T + s (I - yh yh^T) is symmetric, so
        DPsi^T nu0 = (c/q) yh + (nu0 - c yh)/s with c = yh . nu0."""
        Y, q, _, r0, s = self._parts(t, Y)
        yh = Y / r0[..., None]
        c = _dot(yh, nu0)
        return (c / q)[..., None] * yh + (1.0 / s)[..., None] * (nu0 - c[..., None] * yh)

    # independent inverse side ----------------------------------------------
    def psi(self, t, X):
        return self._flow(X, t, 0.0)[0]

    def dpsi(self, t, X):
        return self._jacobian(*self._flow(X, t, 0.0))

    def psi_dot(self, t, X):
        """-rho(0) rho'/rho^2 (|x| - R) x/|x|: the time derivative of the
        backward transport y = R + (rho(0)/rho(t)) (|x| - R) along x/|x|."""
        X = _as_points(X, self.dim)
        rho = np.asarray(self.profile(t), dtype=float)
        dq = (-self._rho0 * np.asarray(self.profile.deriv(t), dtype=float) / (rho * rho))[..., None]
        r = np.linalg.norm(X, axis=-1)
        return dq[..., None] * (r[..., None] - self.R) * (X / r[..., None])

    def domain_measure(self, t):
        rho = np.asarray(self.profile(t), dtype=float)
        n = self.dim
        return _unit_ball_volume(n) * (self.R ** n - _pow(self.R - rho, n))


# --- constructors ---------------------------------------------------------


def identity_motion(reference, horizon):
    """Phi(t, y) = y on any reference domain."""
    return StretchMotion(Const(1.0), reference, 1.0, horizon)


def one_d_scaling(profile, horizon):
    """Interval (0, l(0)) stretched to (0, l(t))."""
    l0 = float(profile(0.0))
    _check_positive_profile(profile, horizon, "l")
    return StretchMotion(profile, Interval(l0), l0, horizon)


def homothetic(profile, reference, horizon):
    """Phi(t, y) = lam(t) y with lam(0) = 1 on any reference domain."""
    if abs(float(profile(0.0)) - 1.0) > 1e-12:
        raise ProfileStart("profile of a homothetic motion must satisfy profile(0) = 1")
    _check_positive_profile(profile, horizon, "lam")
    return StretchMotion(profile, reference, 1.0, horizon)


def radial_annulus_flow(R, profile, horizon, dim=2):
    """Annuli { R - rho(t) < |x| < R }."""
    return SublevelFlowMotion(R, profile, horizon, dim)


def interval_flow(R, profile, horizon):
    """Intervals (0, rho(t)) as sublevel sets of g(x) = R - x, with rho below
    R.  Their level-set flow (rho'/rho) x does not see R, so this is the
    stretch Phi = (rho(t)/rho(0)) y that one_d_scaling(rho) builds."""
    _check_below_level(R, profile, horizon)
    return one_d_scaling(profile, horizon)


# --- boundary kinematics --------------------------------------------------


@dataclass
class FaceKinematics:
    """Boundary samples of one face pushed to the moving domain at time t;
    an (S,) array of times adds a leading axis to every field but y."""

    name: str
    y: np.ndarray         # reference points (Q, N)
    x: np.ndarray         # physical points (Q, N)
    nu: np.ndarray        # outward unit normal of Omega_t (Q, N)
    omega: np.ndarray     # scalar normal velocity (Q,)
    weights: np.ndarray   # physical surface-measure quadrature weights (Q,)


def boundary_kinematics(fam, t, resolution=64, faces=None):
    """Points, outward normals and scalar normal velocity per face.

    nu is the pushforward DPsi^T nu0 / |DPsi^T nu0|, with DPsi^T nu0 from
    the family's closed-form normal_pushforward (no Jacobian matrix is
    formed), and omega = Phi_dot . nu.  Physical quadrature weights carry
    the surface Jacobian det DPhi |DPsi^T nu0|.  Sums over the N
    components run in index order.

    All faces are evaluated together: their points and reference normals
    are stacked, each map is called once, and every face's fields are
    slices of the stacked results, with the bits of a call per face.  The
    checks stay per face: a degenerate pushforward raises DegenerateNormal
    naming the first such face before any division, and the faces before
    it are evaluated and checked first (a FlowEscape of theirs comes
    first).
    """
    if faces is None:
        faces = fam.reference.boundary_faces(resolution)
    sizes = [len(face.weights) for face in faces]
    starts = np.cumsum([0] + sizes[:-1])
    Y = np.concatenate([face.points for face in faces])
    raw = fam.normal_pushforward(t, Y, np.concatenate([face.normals for face in faces]))
    norms = np.sqrt(_dot(raw, raw))
    degenerate = np.logical_or.reduceat(norms < 1e-14, starts, axis=-1)
    if np.any(degenerate):
        first = int(np.argmax(degenerate.reshape(-1, len(faces)).any(axis=0)))
        if first:
            boundary_kinematics(fam, t, faces=faces[:first])
        raise DegenerateNormal(f"normal pushforward degenerate on face {faces[first].name}")
    nu = raw / norms[..., None]
    x = fam.phi(t, Y)
    omega = _dot(fam.phi_dot(t, Y), nu)
    w_phys = np.concatenate([face.weights for face in faces]) * fam.det_dphi(t, Y) * norms
    out = []
    for face, a, n in zip(faces, starts, sizes):
        sl = slice(a, a + n)
        out.append(FaceKinematics(face.name, face.points, x[..., sl, :], nu[..., sl, :],
                                  omega[..., sl], w_phys[..., sl]))
    return out


# --- hypothesis validation -------------------------------------------------


@dataclass
class RegularityReport:
    """Residuals of the eight map identities plus hypothesis verdicts."""

    residuals: dict
    max_phi_dot: float
    min_det_dphi: float
    h1_ok: bool
    h2_ok: bool

    def max_residual(self):
        """The largest residual, NaN if any residual is NaN."""
        return float(np.max(list(self.residuals.values())))


def validate(fam, nt=20, npts=20):
    """Check the eight map identities and hypotheses H1/H2 on a grid.

    Violations are reported, never raised.  The Psi-side quantities come
    from the independent inverse evaluators (closed forms, the backward
    transport for sublevel flows), so the residuals are meaningful; the
    first, "inverse", is Psi(t, Phi(t, y)) - y itself.  A NaN residual
    fails H1.
    """
    ts = np.linspace(0.0, fam.horizon, nt)
    Y = fam.reference.interior_grid(npts)
    eye = np.eye(fam.dim)
    # central-difference steps in x and t for the det DPsi derivatives
    eps_x = 5.0e-6
    eps_t = 5.0e-6 * max(1.0, fam.horizon)

    # every field at every time at once: (nt, P, ...)
    X = fam.phi(ts, Y)
    J = fam.dphi(ts, Y)
    detJ = fam.det_dphi(ts, Y)
    pd = fam.phi_dot(ts, Y)
    gdJ = fam.grad_det_dphi(ts, Y)
    dJt = fam.det_dphi_dt(ts, Y)
    K = fam.dpsi(ts, X)
    dK = fam.det_dpsi(ts, X)
    psd = fam.psi_dot(ts, X)

    def worst(r):
        return float(np.max(np.abs(r)))

    res = {
        "inverse": worst(fam.psi(ts, X) - Y),
        "dpsi_dphi": worst(np.einsum("...ij,...jk->...ik", K, J) - eye),
        "det_product": worst(dK * detJ - 1.0),
        "psi_dot": worst(psd + np.einsum("...ij,...j->...i", K, pd)),
    }

    # x and t derivatives of det DPsi, by differences of the direct evaluator
    gdK = np.zeros_like(X)
    for k in range(fam.dim):
        e = np.zeros(fam.dim)
        e[k] = eps_x
        gdK[..., k] = (fam.det_dpsi(ts, X + e) - fam.det_dpsi(ts, X - e)) / (2.0 * eps_x)
    dKt = (fam.det_dpsi(ts + eps_t, X) - fam.det_dpsi(ts - eps_t, X)) / (2.0 * eps_t)

    res["grad_det"] = worst(gdK * detJ[..., None]
                            + dK[..., None] * np.einsum("...ji,...j->...i", K, gdJ))
    res["det_dt"] = worst((dKt + np.sum(gdK * pd, axis=-1)) * detJ + dK * dJt)
    res["mixed"] = worst(np.sum(gdK * pd, axis=-1) * detJ - np.sum(psd * gdJ, axis=-1) * dK)

    # divergence identity from the composed fields, central differences in y
    div = np.zeros(detJ.shape)
    for k in range(fam.dim):
        e = np.zeros(fam.dim)
        e[k] = eps_x
        fp = fam.psi_dot_at_phi(ts, Y + e) * fam.det_dphi(ts, Y + e)[..., None]
        fm = fam.psi_dot_at_phi(ts, Y - e) * fam.det_dphi(ts, Y - e)[..., None]
        div += (fp[..., k] - fm[..., k]) / (2.0 * eps_x)
    res["divergence"] = worst(dJt + div)

    max_pd = float(np.max(np.linalg.norm(pd, axis=-1)))
    min_det = float(np.min(detJ))

    return RegularityReport(
        residuals=res,
        max_phi_dot=max_pd,
        min_det_dphi=min_det,
        h1_ok=(np.max(list(res.values())) <= 10 * fam.tol and min_det > 0),
        h2_ok=max_pd < 1.0,
    )
