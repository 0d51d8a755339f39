"""Hot numerical kernel: the RK4 method-of-lines stepper of the 1d
hyperbolic solver, shared by the grid solver, the cylinder scheme and both
coupled debonding runs.  It is plain numpy: every stage works in place on
one preallocated stacked array.

The stepper advances  v'' = d/dy(B v') - a v' + 2 b v'* + g  on a uniform
grid with homogeneous Dirichlet ends (v'* is the y-derivative of the
velocity).  Coefficients are sampled on the RK4 half-step grid: slot 2k
is time t_k, slot 2k+1 is t_k + dt/2.
"""

import numpy as np

BLOWUP_LIMIT = 1.0e12

# --- finite-difference wave stepper --------------------------------------


def fd_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):
    """Advance (v, vd) in place by nsteps RK4 steps.

    Bm holds one frozen slice or the 2 nsteps + 1 half-step slices.  Every
    store_every-th state goes to out_v/out_vd from row 1 on.  Returns the
    number of rows filled, or -(k + 1) when step k blows up.
    """
    n1 = v.shape[0]
    # W[s] = (v_s, vd_s, vdd_s) at RK4 stage s: rows 0-1 are the stage
    # state and rows 1-2 its time derivative, so the state (v, vd) is
    # W[0, :2] and the four stage derivatives are K = W[:, 1:]
    W = np.empty((4, 3, n1))
    W[:, 2, ::n1 - 1] = 0.0
    S = [W[s, :2] for s in range(4)]
    K = W[:, 1:]
    X = S[0]
    X[0] = v
    X[1] = vd
    # work arrays of one right-hand side: d = v_{i+1} - v_i, c = central
    # differences of (v, vd)
    d = np.empty(n1 - 1)
    c = np.empty((2, n1 - 2))
    views = [(x[0, 1:], x[0, :-1], x[:, 2:], x[:, :-2], W[s, 2, 1:-1]) for s, x in enumerate(S)]
    dr, dl = d[1:], d[:-1]
    c0, c1 = c
    an, bn, gn = an[:, 1:-1], bn[:, 1:-1], gn[:, 1:-1]
    # scalars as 0-d arrays: the same float64 arithmetic, less call overhead
    inv_h2, inv_2h, two, half, full, sixth = (
        np.array(x) for x in (1.0 / (h * h), 0.5 / h, 2.0, 0.5 * dt, dt, dt / 6.0))

    def rhs(s, j):
        # acc = d/dy(B v_y) - a v_y + 2 b vd_y + g, each term rounded in
        # the order of the reference stepper in tests/test_kernels.py
        vr, vl, xr, xl, acc = views[s]
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

    step = 0 if Bm.shape[0] == 1 else 1  # frozen: one slice serves every stage
    status = 1
    for k in range(nsteps):
        j = 2 * k * step
        rhs(0, j)
        for s, cs, js in ((1, half, j + step), (2, half, j + step), (3, full, j + 2 * step)):
            np.multiply(K[s - 1], cs, out=S[s])
            np.add(X, S[s], out=S[s])
            rhs(s, js)
        # X += (dt/6) (((K0 + 2 K1) + 2 K2) + K3), summed into K1
        np.multiply(K[1:3], two, out=K[1:3])
        np.add(K[0], K[1], out=K[1])
        np.add(K[1], K[2], out=K[1])
        np.add(K[1], K[3], out=K[1])
        np.multiply(K[1], sixth, out=K[1])
        np.add(X, K[1], out=X)
        X[:, ::n1 - 1] = 0.0
        # not (max <= limit): a NaN state is a blow-up too
        if not (np.maximum.reduce(np.abs(X[0], out=S[1][0])) <= BLOWUP_LIMIT):
            status = -(k + 1)
            break
        if (k + 1) % store_every == 0:
            out_v[status] = X[0]
            out_vd[status] = X[1]
            status += 1
    v[:] = X[0]
    vd[:] = X[1]
    return status


def backend_name():
    """The stepper's implementation, recorded in manifests and run records."""
    return "numpy"
