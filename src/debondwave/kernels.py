"""Hot numerical kernel: the RK4 method-of-lines stepper of the 1d
hyperbolic solver, shared by the grid solver, the cylinder scheme and both
coupled debonding runs.  It is plain numpy: every stage works in place on
one preallocated stacked array.

The stepper advances  v'' = d/dy(B v') - a v' + 2 b v'* + g  on a uniform
grid with homogeneous Dirichlet ends (v'* is the y-derivative of the
velocity).  Coefficients are sampled on the RK4 half-step grid: slot 2k
is time t_k, slot 2k+1 is t_k + dt/2.

The step code lives once, in ``Stepper``.  The coupled solvers build one
per run and call it once per step; ``fd_run`` is its one-shot wrapper for
the solvers that know every coefficient slice up front.
"""

import numpy as np

BLOWUP_LIMIT = 1.0e12

# --- finite-difference wave stepper --------------------------------------


class Stepper:
    """RK4 stepper bound to one grid, one dt and one set of coefficients.

    Built once: it owns the stacked stage workspace, its views, the scratch
    of one right-hand side and the 0-d scalars, so ``run`` sets nothing up.
    It holds Bm (S, n), an, bn and gn (S, n+1) by reference, and a caller
    may refill them in place between runs.  S is 1 (a frozen slice serves
    every stage) or 2 nsteps + 1 half-step slices.  The state (v, vd) is
    the (2, n+1) view ``state``: write it before a run, read it after.
    """

    def __init__(self, h, dt, Bm, an, bn, gn):
        n1 = an.shape[1]
        # W[s] = (v_s, vd_s, vdd_s) at RK4 stage s: rows 0-1 are the stage
        # state and rows 1-2 its time derivative, so the state (v, vd) is
        # W[0, :2] and the four stage derivatives are K = W[:, 1:]
        W = np.empty((4, 3, n1))
        W[:, 2, ::n1 - 1] = 0.0
        S = X, S1, S2, S3 = [W[s, :2] for s in range(4)]
        self.state = X
        K0, K1, K2, K3 = K = W[:, 1:]
        K12 = K[1:3]
        # work arrays of one right-hand side: d = v_{i+1} - v_i, c = central
        # differences of (v, vd)
        d = np.empty(n1 - 1)
        c = np.empty((2, n1 - 2))
        V0, V1, V2, V3 = (
            (x[0, 1:], x[0, :-1], x[:, 2:], x[:, :-2], W[s, 2, 1:-1]) for s, x in enumerate(S))
        dr, dl = d[1:], d[:-1]
        c0, c1 = c
        an, bn, gn = an[:, 1:-1], bn[:, 1:-1], gn[:, 1:-1]
        # scalars as 0-d arrays: the same float64 arithmetic, less call overhead
        inv_h2, inv_2h, two, half, full, sixth = (
            np.array(x) for x in (1.0 / (h * h), 0.5 / h, 2.0, 0.5 * dt, dt, dt / 6.0))
        edges = X[:, ::n1 - 1]

        def rhs(views, j):
            # acc = d/dy(B v_y) - a v_y + 2 b vd_y + g, each term rounded in
            # the order of the reference stepper in tests/test_kernels.py
            vr, vl, xr, xl, acc = views
            np.subtract(vr, vl, out=d)
            np.multiply(Bm[j], d, out=d)
            np.subtract(dr, dl, out=acc)
            np.multiply(acc, inv_h2, out=acc)
            np.subtract(xr, xl, out=c)
            np.multiply(an[j], c0, out=c0)
            np.multiply(bn[j], c1, out=c1)
            np.multiply(c, inv_2h, out=c)
            np.subtract(acc, c0, out=acc)
            np.multiply(c1, two, out=c1)
            np.add(acc, c1, out=acc)
            np.add(acc, gn[j], out=acc)

        def step(j, jh, j1):
            """One RK4 step on the coefficient slices j (t), jh (t + dt/2)
            and j1 (t + dt); False when the new state blows up."""
            rhs(V0, j)
            np.multiply(K0, half, out=S1)
            np.add(X, S1, out=S1)
            rhs(V1, jh)
            np.multiply(K1, half, out=S2)
            np.add(X, S2, out=S2)
            rhs(V2, jh)
            np.multiply(K2, full, out=S3)
            np.add(X, S3, out=S3)
            rhs(V3, j1)
            # X += (dt/6) (((K0 + 2 K1) + 2 K2) + K3), summed into K1
            np.multiply(K12, two, out=K12)
            np.add(K0, K1, out=K1)
            np.add(K1, K2, out=K1)
            np.add(K1, K3, out=K1)
            np.multiply(K1, sixth, out=K1)
            np.add(X, K1, out=X)
            edges.fill(0.0)
            # both rows, so a NaN velocity from the end slice counts at this
            # step; not (max <= limit): a NaN state is a blow-up too
            return np.maximum.reduce(np.abs(X, out=S1), axis=None) <= BLOWUP_LIMIT

        self._step = step
        self._stride = 0 if Bm.shape[0] == 1 else 1

    def run(self, nsteps, store_every=1, out_v=None, out_vd=None):
        """Advance ``state`` in place by nsteps RK4 steps, step k on slices
        2k, 2k+1, 2k+2 (or slice 0 when frozen).

        With out_v/out_vd given, every store_every-th state goes to them
        from row 1 on.  Returns the number of rows filled (1 when nothing is
        stored), or -(k + 1) when step k blows up.
        """
        step, m = self._step, self._stride
        status = 1
        for k in range(nsteps):
            j = 2 * k * m
            if not step(j, j + m, j + 2 * m):
                return -(k + 1)
            if out_v is not None and (k + 1) % store_every == 0:
                out_v[status] = self.state[0]
                out_vd[status] = self.state[1]
                status += 1
        return status


def fd_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):
    """Advance (v, vd) in place by nsteps RK4 steps: a one-shot ``Stepper``.

    Bm holds one frozen slice or the 2 nsteps + 1 half-step slices.  Every
    store_every-th state goes to out_v/out_vd from row 1 on.  Returns the
    number of rows filled, or -(k + 1) when step k blows up.
    """
    stepper = Stepper(h, dt, Bm, an, bn, gn)
    X = stepper.state
    X[0] = v
    X[1] = vd
    status = stepper.run(nsteps, store_every, out_v, out_vd)
    v[:] = X[0]
    vd[:] = X[1]
    return status


def backend_name():
    """The stepper's implementation, recorded in manifests and run records."""
    return "numpy"
