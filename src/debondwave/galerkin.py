"""Spectral Galerkin solver on the reference interval.

Basis: Dirichlet eigenfunctions of the 1d Laplacian on (0, L),
w_k(y) = sqrt(2/L) sin(k pi y / L) with eigenvalues lam_k = (k pi / L)^2.
Projecting the transformed equation gives the second-order system

    d''_k - 2 sum_l b_lk d'_l + sum_l (B_lk + a_lk) d_l = g_k,

with entries B_lk = <B w'_l, w'_k>, a_lk = <a w'_l, w_k>,
b_lk = <b w'_l, w_k>, g_k = <g, w_k>.  The 1d coefficients of a stretch
Phi = lam(t) y are B = 1/lam^2 - (lam'/lam)^2 y^2, a = -(lam''/lam) y and
b = (lam'/lam) y, so the matrices are affine in three fixed ones,

    K0 = <w'_l, w'_k>,   K2 = <y^2 w'_l, w'_k>,   A1 = <y w'_l, w_k>,

assembled once by composite Gauss-Legendre quadrature and combined with
scalar weights at every stage (the affine decomposition of reduced-basis
methods).  Only a forcing needs a quadrature matvec per stage.  Time
integration is classical fixed-step RK4.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUp, QuadratureFailure


def gauss_legendre_panels(L, panels, nodes):
    """Composite Gauss-Legendre rule on (0, L): points and weights."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, L, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


class SineBasis:
    """First m sine modes on (0, L), L^2-orthonormal."""

    def __init__(self, L, m):
        if m < 1:
            raise ValueError("need at least one mode")
        self.L = float(L)
        self.m = int(m)
        k = np.arange(1, m + 1)
        self.freqs = k * np.pi / self.L
        self.eigenvalues = self.freqs ** 2
        self.scale = np.sqrt(2.0 / self.L)

    def values(self, y):
        y = np.asarray(y, dtype=float)
        return self.scale * np.sin(np.outer(y, self.freqs))

    def derivs(self, y):
        y = np.asarray(y, dtype=float)
        return self.scale * self.freqs[None, :] * np.cos(np.outer(y, self.freqs))

    def project(self, f):
        """L^2 coefficients of a callable by 10-point Gauss on max(8, m) panels."""
        y, w = gauss_legendre_panels(self.L, max(8, self.m), 10)
        vals = np.asarray(f(y), dtype=float)
        return self.values(y).T @ (w * vals)


class GalerkinSystem:
    """Time-dependent projected matrices from the fixed affine pieces,
    integrated by nodes-point Gauss on max(8, m) panels."""

    def __init__(self, basis: SineBasis, problem, nodes=10):
        self.basis = basis
        self.problem = problem
        self.yq, self.wq = gauss_legendre_panels(basis.L, max(8, basis.m), nodes)
        self.W = basis.values(self.yq)     # (Q, m)
        self.Wp = basis.derivs(self.yq)    # (Q, m)
        wWp = self.wq[:, None] * self.Wp
        self.K0 = self.Wp.T @ wWp
        self.K2 = self.Wp.T @ ((self.yq * self.yq)[:, None] * wWp)
        self.A1 = self.W.T @ (self.yq[:, None] * wWp)
        self._zero = np.zeros(basis.m)

    def matrices(self, t):
        """(Bmat, amat, bmat, gvec) with [k, l] = <.. w_l, w_k> pairing."""
        lam, dlam, ddlam = self.problem.fam.stretch(t)
        if not np.all(np.isfinite((lam, dlam, ddlam))):
            raise QuadratureFailure(f"non-finite coefficients at t = {t}")
        rate = dlam / lam
        Bmat = self.K0 / (lam * lam) - (rate * rate) * self.K2
        amat = (-ddlam / lam) * self.A1
        bmat = rate * self.A1
        if self.problem.forcing is None:
            return Bmat, amat, bmat, self._zero
        _, _, _, g = self.problem.line(t, self.yq, out=(None, None, None, np.empty(len(self.yq))))
        if not np.all(np.isfinite(g)):
            raise QuadratureFailure(f"non-finite forcing at t = {t}")
        return Bmat, amat, bmat, self.W.T @ (self.wq * g)

    def rhs(self, t, d, ddot):
        Bmat, amat, bmat, gvec = self.matrices(t)
        return 2.0 * (bmat @ ddot) - (Bmat + amat) @ d + gvec


@dataclass
class Trajectory:
    """Discrete-in-time solution, modal coefficients or grid values."""

    kind: str                 # 'modal' | 'grid'
    times: np.ndarray         # (nt,)
    values: np.ndarray        # (nt, K)
    velocities: np.ndarray    # (nt, K)
    L: float
    basis: SineBasis = None
    x: np.ndarray = None      # grid nodes for kind == 'grid'
    front: np.ndarray = None  # physical domain length per time (cylinder runs)
    meta: dict = field(default_factory=dict)

    def index_of(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        return i

    def eval(self, t, y):
        """(v, v_dot, v_y) at reference points y, at the stored time nearest t.

        Raises ValueError when t lies more than half a stored step away
        from every stored time.
        """
        i = self.index_of(t)
        gap = abs(t - self.times[i])
        step = np.max(np.diff(self.times), initial=0.0)
        if gap > 0.5 * step + 1e-12 * max(1.0, abs(t)):
            raise ValueError(f"t = {t} is {gap:g} from the nearest stored time "
                             f"{self.times[i]}, more than half a step")
        return self.eval_index(i, y)

    def eval_index(self, i, y):
        y = np.asarray(y, dtype=float).reshape(-1)
        if self.kind == "modal":
            W = self.basis.values(y)
            Wp = self.basis.derivs(y)
            v = W @ self.values[i]
            vd = W @ self.velocities[i]
            vy = Wp @ self.values[i]
        else:
            v = np.interp(y, self.x, self.values[i])
            vd = np.interp(y, self.x, self.velocities[i])
            vy = np.interp(y, self.x, np.gradient(self.values[i], self.x, edge_order=2))
        return v, vd, vy

    def eval_all(self, y):
        """(v, v_dot, v_y) at reference points y for every stored time, (nt, len(y))."""
        y = np.asarray(y, dtype=float).reshape(-1)
        if self.kind == "modal":
            W = self.basis.values(y)
            Wp = self.basis.derivs(y)
            return self.values @ W.T, self.velocities @ W.T, self.values @ Wp.T
        x = self.x
        j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, len(x) - 2)
        w = np.clip((y - x[j]) / (x[j + 1] - x[j]), 0.0, 1.0)

        def interp(F):
            return F[:, j] + w * (F[:, j + 1] - F[:, j])

        # v_y: np.gradient over blocks of rows, not the whole (nt, n + 1)
        # array at once; the rows are independent, so the bits are the same.
        # Column-major like interp's results: the ledger's matmuls round by it
        V = self.values
        vy = np.empty((len(V), len(y)), order="F")
        rows = max(1, (1 << 16) // len(x))
        for r in range(0, len(V), rows):
            vy[r:r + rows] = interp(np.gradient(V[r:r + rows], x, axis=1, edge_order=2))
        return interp(V), interp(self.velocities), vy


def integrate(system: GalerkinSystem, d0, ddot0, dt, T, store_every=1):
    """RK4 on the projected system; the trajectory stores every step."""
    m = system.basis.m
    d = np.array(d0, dtype=float).reshape(m)
    dd = np.array(ddot0, dtype=float).reshape(m)
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        nsteps = int(np.ceil(T / dt - 1e-12))
    if nsteps % store_every:
        raise ValueError("store_every must divide the step count")
    nstored = nsteps // store_every + 1
    times = np.empty(nstored)
    vals = np.empty((nstored, m))
    vels = np.empty((nstored, m))
    times[0] = 0.0
    vals[0] = d
    vels[0] = dd
    stored = 1
    t = 0.0
    for k in range(nsteps):
        k1d, k1v = dd, system.rhs(t, d, dd)
        d2 = d + 0.5 * dt * k1d
        v2 = dd + 0.5 * dt * k1v
        k2d, k2v = v2, system.rhs(t + 0.5 * dt, d2, v2)
        d3 = d + 0.5 * dt * k2d
        v3 = dd + 0.5 * dt * k2v
        k3d, k3v = v3, system.rhs(t + 0.5 * dt, d3, v3)
        d4 = d + dt * k3d
        v4 = dd + dt * k3v
        k4d, k4v = v4, system.rhs(t + dt, d4, v4)
        d = d + (dt / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        dd = dd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t = (k + 1) * dt
        norm = float(np.max(np.abs(d)))
        if not np.isfinite(norm) or norm > 1.0e12:
            raise BlowUp(f"modal state norm {norm} at t = {t}; shrink dt")
        if (k + 1) % store_every == 0:
            times[stored] = t
            vals[stored] = d
            vels[stored] = dd
            stored += 1
    return Trajectory(
        kind="modal", times=times, values=vals, velocities=vels,
        L=system.basis.L, basis=system.basis,
        meta={"dt": dt, "m": m},
    )


def solve_transformed_modal(problem, L, v0, v1, m=32, dt=1e-3, T=1.0,
                            nodes=10, store_every=1):
    """Assemble and integrate in one call; v0, v1 are callables on (0, L)."""
    basis = SineBasis(L, m)
    system = GalerkinSystem(basis, problem, nodes=nodes)
    d0 = basis.project(v0)
    dd0 = basis.project(v1)
    return integrate(system, d0, dd0, dt, T, store_every=store_every)
