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

assembled once by composite Gauss-Legendre quadrature (the affine
decomposition of reduced-basis methods); the system keeps these three,
not the sine tables at the quadrature nodes.  With r = lam'/lam the
acceleration is

    d'' = -K0 d / lam^2 + r^2 K2 d + (lam''/lam) A1 d + 2 r A1 d' + g,

fixed products combined with scalar weights.  ``integrate`` reads the
stretch rates once for the weights at the 2n + 1 half-step times of an
n-step run (and projects a forcing at all of them in row blocks), then
hands X = (d, d') to the shared RK4 driver, ``kernels.RK4``, with
``GalerkinSystem.accel`` as its acceleration: two matmuls a stage,
X @ [K0; K2; A1]^T giving the six products K0 x, K2 x, A1 x for x = d, d',
and their sum weighted by (-1/lam^2, r^2, lam''/lam, 0, 0, 2r).  No m x m
array is formed while stepping.  The run feeds its reader (``Rows``, which
builds the Trajectory of every 1d solver, by default) in one call.
``sampler`` takes v_dot and v_y from the stored rows of a run, modal or
grid, for ``Trajectory.eval``, the energy ledger and ``weak_residual``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUp, QuadratureFailure
from .kernels import RK4, half_steps, step_count

# the 10-point Gauss-Legendre rule on (-1, 1), nodes and weights: the rule of
# every panel of gauss_legendre_panels.  The literals are the reprs of
# np.polynomial.legendre.leggauss(10), which round-trip; forming the rule
# would make the process's first LAPACK call at import
QUAD_NODES = (
    np.array([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
              -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
              0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
              0.9739065285171717]),
    np.array([0.06667134430868814, 0.1494513491505804, 0.219086362515982,
              0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
              0.2692667193099965, 0.219086362515982, 0.1494513491505804,
              0.06667134430868814]),
)


def gauss_legendre_panels(L, panels):
    """Composite Gauss-Legendre rule on (0, L), QUAD_NODES on each of the
    panels: points and weights."""
    x, w = QUAD_NODES
    edges = np.linspace(0.0, L, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


class SineBasis:
    """First m sine modes on (0, L), L^2-orthonormal.

    ``values`` and ``derivs`` build their (len(y), m) table in one array:
    the outer product y freqs, then sin or cos and the scale in place, so a
    table peaks at its own size (the same bits as scale * sin(outer))."""

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
        """(len(y), m) table scale sin(freqs y)."""
        T = np.outer(np.asarray(y, dtype=float), self.freqs)
        np.sin(T, out=T)
        T *= self.scale
        return T

    def derivs(self, y):
        """(len(y), m) table (scale freqs) cos(freqs y)."""
        T = np.outer(np.asarray(y, dtype=float), self.freqs)
        np.cos(T, out=T)
        T *= self.scale * self.freqs
        return T

    def project(self, f):
        """L^2 coefficients of a callable by 10-point Gauss on max(8, m) panels."""
        y, w = gauss_legendre_panels(self.L, max(8, self.m))
        vals = np.asarray(f(y), dtype=float)
        return self.values(y).T @ (w * vals)


class GalerkinSystem:
    """The fixed affine pieces of the projected system, integrated by the
    QUAD_NODES rule on max(8, m) panels, and its stage acceleration.

    It keeps the quadrature rule (yq, wq), K0, K2, A1 and the stacked
    ``op``, and no (Q, m) table.  The assembly holds two tables at a time:
    Wp = w'_k(yq) and one product table P, which is w Wp for K0, then
    scaled by y^2 in place for K2, then w Wp again, scaled by y, for A1
    once Wp is gone and W = w_k(yq) is built.  Each P has the bits of
    y^2 (w Wp) or y (w Wp) formed whole.  ``projected_forcing`` builds its
    own W.
    """

    def __init__(self, basis: SineBasis, problem):
        self.basis = basis
        self.problem = problem
        self.yq, self.wq = gauss_legendre_panels(basis.L, max(8, basis.m))
        y, w = self.yq[:, None], self.wq[:, None]
        Wp = basis.derivs(self.yq)         # (Q, m)
        P = w * Wp
        self.K0 = Wp.T @ P
        P *= y * y
        self.K2 = Wp.T @ P
        np.multiply(w, Wp, out=P)
        del Wp
        P *= y
        self.A1 = basis.values(self.yq).T @ P
        # X @ op for a stacked (2, m) state X = (d, d') is (2, 3m): the rows
        # (K0 x, K2 x, A1 x) for x = d and for x = d'
        self.op = np.hstack((self.K0.T, self.K2.T, self.A1.T))
        self._products = np.empty((2, 3 * basis.m))
        self._rows = self._products.reshape(6, basis.m)

    def stage_weights(self, ts):
        """(S, 6) stage weights at the S times ts from one ``rates`` call, one
        per product (K0 d, K2 d, A1 d, K0 d', K2 d', A1 d'):
        (-1/lam^2, (lam'/lam)^2, lam''/lam, 0, 0, 2 lam'/lam).

        Raises QuadratureFailure naming the first t with a non-finite
        stretch rate.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lam, rate, accel = self.problem.rates(ts)
        bad = ~(np.isfinite(lam) & np.isfinite(rate) & np.isfinite(accel))
        if bad.any():
            raise QuadratureFailure(f"non-finite coefficients at t = {ts[np.argmax(bad)]}")
        w = np.zeros((len(ts), 6))
        w[:, 0] = -1.0 / (lam * lam)
        w[:, 1] = rate * rate
        w[:, 2] = accel
        w[:, 5] = 2.0 * rate
        return w

    def projected_forcing(self, ts):
        """(S, m) projected forcing <g(t), w_k> at the S times ts, or None
        without a forcing, through a sine table W at the quadrature nodes
        built for the call.  The quadrature values are taken in blocks of
        rows, so the transient stays bounded."""
        if self.problem.forcing is None:
            return None
        ts = np.asarray(ts, dtype=float).reshape(-1)
        W = self.basis.values(self.yq)
        G = np.empty((len(ts), self.basis.m))
        rows = max(1, (1 << 16) // len(self.yq))
        buf = np.empty((min(rows, len(ts)), len(self.yq)))
        for r in range(0, len(ts), rows):
            block = ts[r:r + rows]
            g = buf[:len(block)]
            self.problem.line(block, self.yq, out=(None, None, None, g))
            finite = np.isfinite(g).all(axis=1)
            if not finite.all():
                raise QuadratureFailure(f"non-finite forcing at t = {block[np.argmin(finite)]}")
            np.multiply(g, self.wq, out=g)
            np.matmul(g, W, out=G[r:r + rows])
        return G

    def accel(self, X, w, g, out):
        """d'' of the stacked (2, m) state X = (d, d') into out, for stage
        weights w (one row of ``stage_weights``) and projected forcing g (or
        None): two matmuls, the six products X @ op and their weighted sum
        (ndarray.dot: np.dot's routine without its dispatcher)."""
        X.dot(self.op, out=self._products)
        w.dot(self._rows, out=out)
        if g is not None:
            np.add(out, g, out)
        return out


def row_blocks(n, rows):
    """Slices of n rows, rows (a multiple of 4) at a time, a lone last row
    joining the block before it: at one BLAS thread a product over each block
    rounds every row as the whole product does, for OpenBLAS takes rows 4 at a
    time and a lone row another way.  A threaded product splits at rows of
    its own (at two threads a 12289 x 64 table moved an ulp)."""
    ends = list(range(rows, n, rows))
    if ends and n - ends[-1] == 1:
        ends.pop()
    return [slice(a, b) for a, b in zip([0] + ends, ends + [n])]


# rows of the sine table a modal Trajectory builds at a time, in row_blocks
_TABLE_ROWS = 256


@dataclass
class Trajectory:
    """Discrete-in-time solution, modal coefficients or grid values.

    Two readers, both at the stored time nearest t and both refusing a t
    more than half a stored step from every stored time: ``value_at(t, y)``
    gives v alone (W @ values for a modal run, the sine table W built
    _TABLE_ROWS points at a time; np.interp on the nodes for a grid one),
    and ``eval(t, y)`` gives (v, v_dot, v_y), the v of ``value_at`` with
    v_dot and v_y by ``sampler`` on the one stored row.
    Readers of many rows (the ledgers, ``weak_residual``) call ``sampler``
    on blocks of rows.
    """

    kind: str                 # 'modal' | 'grid'
    times: np.ndarray         # (nt,)
    values: np.ndarray        # (nt, K)
    velocities: np.ndarray    # (nt, K)
    L: float
    basis: SineBasis = None
    x: np.ndarray = None      # grid nodes for kind == 'grid'
    front: np.ndarray = None  # physical domain length per time (cylinder runs)
    meta: dict = field(default_factory=dict)

    def _stored_index(self, t):
        """Index of the stored time nearest t, refused (ValueError) more
        than half a stored step away from every stored time."""
        i = int(np.argmin(np.abs(self.times - t)))
        gap = abs(t - self.times[i])
        step = np.max(np.diff(self.times), initial=0.0)
        if gap > 0.5 * step + 1e-12 * max(1.0, abs(t)):
            raise ValueError(f"t = {t} is {gap:g} from the nearest stored time "
                             f"{self.times[i]}, more than half a step")
        return i

    def eval(self, t, y):
        """(v, v_dot, v_y) at reference points y, at the stored time nearest t.

        Raises ValueError when t lies more than half a stored step away
        from every stored time.
        """
        i = self._stored_index(t)
        y = np.asarray(y, dtype=float).reshape(-1)
        vd, vy = np.empty((2, 1, len(y)))
        sampler(y, self.x, self.basis)[1](self.values[i][None], self.velocities[i][None], vd, vy)
        return self._v(i, y), vd[0], vy[0]

    def value_at(self, t, y):
        """v alone at points y, at the stored time nearest t: eval(t, y)[0]
        with the same bits and refusal, without the v_dot and v_y tables."""
        return self._v(self._stored_index(t), np.asarray(y, dtype=float).reshape(-1))

    def _v(self, i, y):
        if self.kind != "modal":
            return np.interp(y, self.x, self.values[i])
        v = np.empty(len(y))
        for s in row_blocks(len(y), _TABLE_ROWS):
            np.matmul(self.basis.values(y[s]), self.values[i], out=v[s])
        return v


class Rows:
    """The default reader of every 1d solver: the Trajectory of the fed rows,
    kept when one feed holds them all, else copied as they come."""

    def start(self, times, kind, L, x=None, basis=None, meta=None):
        self.traj = Trajectory(kind, times, None, None, L, basis=basis, x=x, meta=meta)
        self.done = 0

    def feed(self, V, Vd):
        traj, i = self.traj, self.done
        self.done += len(V)
        if i == 0 and self.done == len(traj.times):
            traj.values, traj.velocities = V, Vd
            return
        if traj.values is None:
            shape = (len(traj.times), V.shape[1])  # nodes or modes, as fed
            traj.values, traj.velocities = np.empty(shape), np.empty(shape)
        traj.values[i:self.done] = V
        traj.velocities[i:self.done] = Vd

    def finish(self):
        return self.traj


def sampler(y, x=None, basis=None):
    """(order, sample): sample(V, Vd, vd, vy) writes v_dot and v_y at the
    points y into vd and vy from rows V, Vd of values and velocities: grid
    values on the nodes x by linear interpolation (v_y of the second-order
    np.gradient, evaluated only at the nodes next to y by ``_gradient_at``),
    or coefficients of a modal basis by two matmuls.  Grid
    rows are independent, so any split has the same bits; modal ones round
    as the whole product for any split into blocks of more than one row.
    order ("F" grid, "C" modal) is the memory order of the outputs, by
    which the ledger's matmuls over them round."""
    if basis is not None:
        W, Wp = basis.values(y).T, basis.derivs(y).T

        def sample(V, Vd, vd, vy):
            np.matmul(Vd, W, out=vd)
            np.matmul(V, Wp, out=vy)

        return "C", sample
    j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, len(x) - 2)
    w = np.clip((y - x[j]) / (x[j + 1] - x[j]), 0.0, 1.0)
    rows = max(1, (1 << 16) // max(len(x), len(y)))
    q, k = len(y), np.concatenate((j, j + 1))
    gradient = _gradient_at(x, k)

    def interpolate(G, out):
        # G holds a field at the nodes j | j + 1; out = G[:, j] + w (G[:, j + 1]
        # - G[:, j]), formed in a new array (an in-place op on a view that
        # partly overlaps its input makes numpy copy the input first)
        Gj = G[:, :q]
        d = G[:, q:] - Gj
        np.multiply(w, d, out=d)
        np.add(Gj, d, out=d)
        out[...] = d

    def sample(V, Vd, vd, vy):
        for r in range(0, len(V), rows):
            s = slice(r, r + rows)
            interpolate(Vd[s][:, k], vd[s])
            interpolate(gradient(V[s]), vy[s])

    return "F", sample


def gradient_spacing(x):
    """np.gradient's spacing rule on nodes x: (dx, None) for equal steps dx,
    else (dx, (a, b, c)), its inner coefficients of F[i - 1], F[i], F[i + 1]
    as np.gradient forms them."""
    dx = np.diff(x)
    if (dx == dx[0]).all():
        return dx, None
    d1, d2 = dx[:-1], dx[1:]
    return dx, (-d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2)))


def _gradient_at(x, k):
    """gradient(F): np.gradient(F, x, axis=1, edge_order=2)[:, k] with the
    same bits, reading only the nodes next to k.  Its coefficients are
    np.gradient's own, formed once, and each column keeps its operation
    order: (F[k + 1] - F[k - 1]) / (2 dx) at inner nodes of uniformly
    spaced x, and a F[i] + b F[i + 1] + c F[i + 2] at the other columns (end
    formulas at k = 0 and n, ``gradient_spacing``'s inner ones elsewhere)."""
    n = len(x) - 1
    dx, inner = gradient_spacing(x)
    coef = np.empty((3, n + 1))
    if inner is None:
        h = float(dx[0])
        coef[:, 0], coef[:, n] = (-1.5 / h, 2. / h, -0.5 / h), (0.5 / h, -2. / h, 1.5 / h)
        central = (k > 0) & (k < n)
    else:
        coef[:, 1:n] = inner
        d1, d2 = float(dx[0]), float(dx[1])
        coef[:, 0] = (-(2. * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2),
                      -d1 / (d2 * (d1 + d2)))
        d1, d2 = float(dx[-2]), float(dx[-1])
        coef[:, n] = (d2 / (d1 * (d1 + d2)), -(d2 + d1) / (d1 * d2),
                      (2. * d2 + d1) / (d2 * (d1 + d2)))
        central = np.zeros(len(k), dtype=bool)
    rest = np.flatnonzero(~central)
    r, any_central = len(rest), central.any()
    i0 = np.minimum(np.maximum(k[rest] - 1, 0), n - 2)
    a, b, c = coef[:, k[rest]]
    # one gather a call, P = F[:, cols]: i0, i0 + 1 and i0 + 2 at the other
    # columns, then, with central ones, k + 1 and k - 1 at every column
    # (clipped to the nodes: the central formula is formed at every column
    # and the other columns are overwritten)
    cols = [i0, i0 + 1, i0 + 2]
    if any_central:
        cols += [np.minimum(k + 1, n), np.maximum(k - 1, 0)]
    cols = np.concatenate(cols)
    p0, p1, p2 = (slice(i * r, (i + 1) * r) for i in range(3))
    hi, lo = slice(3 * r, 3 * r + len(k)), slice(3 * r + len(k), None)
    two_dx = 2. * dx[0]

    def gradient(F):
        P = F[:, cols]
        # the products in place in P, each on its own columns
        P0, P1, P2 = P[:, p0], P[:, p1], P[:, p2]
        np.multiply(a, P0, out=P0)
        np.multiply(b, P1, out=P1)
        R = P0 + P1
        np.multiply(c, P2, out=P2)
        np.add(R, P2, out=R)
        if not any_central:
            return R
        G = P[:, hi] - P[:, lo]
        np.divide(G, two_dx, out=G)
        G[:, rest] = R
        return G

    return gradient


def integrate(system: GalerkinSystem, d0, ddot0, dt, T, store_every=1, reader=None):
    """RK4 on the projected system: one ``kernels.RK4`` run whose
    acceleration is ``system.accel``.  The run stores every store_every-th
    step; dt is the one ``step_count`` gives.  The weights (and a forcing)
    are evaluated before the first step at the 2 nsteps + 1 half-step
    times of ``kernels.half_steps``, the grid solver's.  The whole stored
    run goes to the reader in one feed (a modal product over fewer rows
    rounds otherwise), and it returns reader.finish()."""
    basis, m = system.basis, system.basis.m
    nsteps, dt = step_count(dt, T, store_every)
    ts = half_steps(nsteps, dt)
    weights = system.stage_weights(ts)
    G = system.projected_forcing(ts)
    if G is None:
        G = [None] * len(ts)

    rk = RK4(m, dt)
    views = [(Y[:2], Y[2]) for Y in rk.stages]

    def accel(s, j):
        X, out = views[s]
        system.accel(X, weights[j], G[j], out)

    rk.accel = accel
    nstored = nsteps // store_every + 1
    vals = np.empty((nstored, m))
    vels = np.empty((nstored, m))
    vals[0] = rk.state[0] = np.asarray(d0, dtype=float).reshape(m)
    vels[0] = rk.state[1] = np.asarray(ddot0, dtype=float).reshape(m)
    status = rk.run(nsteps, store_every, vals, vels)
    if status < 0:
        norm = np.max(np.abs(rk.state))
        raise BlowUp(f"modal state norm {norm} at t = {-status * dt}; shrink dt")
    # the reader works without the run's tables (or a system no caller holds)
    del rk, accel, views, weights, G, ts, system, d0, ddot0
    reader = Rows() if reader is None else reader
    reader.start((np.arange(nstored) * store_every) * dt, "modal", basis.L,
                 basis=basis, meta={"dt": dt, "m": m})
    reader.feed(vals, vels)
    return reader.finish()


def solve_transformed_modal(problem, L, v0, v1, m=32, dt=1e-3, T=1.0, store_every=1,
                            reader=None):
    """Assemble and ``integrate`` in one call; v0, v1 are callables on (0, L)."""
    basis = SineBasis(L, m)
    return integrate(GalerkinSystem(basis, problem), basis.project(v0), basis.project(v1),
                     dt, T, store_every=store_every, reader=reader)
