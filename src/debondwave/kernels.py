"""Hot numerical kernel: the RK4 method-of-lines stepper of the 1d
hyperbolic solver.

It exists in a numba version and a pure-numpy version; ``backend`` picks
one at import time, and the benchmark script times the two against each
other.

The stepper advances  v'' = d/dy(B v') - a v' + 2 b v'* + g  on a uniform
grid with homogeneous Dirichlet ends (v'* is the y-derivative of the
velocity).  Coefficients are sampled on the RK4 half-step grid: slot 2k
is time t_k, slot 2k+1 is t_k + dt/2.
"""

import numpy as np

from .backend import NUMBA_ENABLED, njit

BLOWUP_LIMIT = 1.0e12

# --- finite-difference wave stepper --------------------------------------


def _fd_run_numpy(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):
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
        # the order of the numba twin
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


@njit
def _fd_run_numba(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):  # pragma: no cover - numba path
    n1 = v.shape[0]
    n = n1 - 1
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h
    v2 = np.empty(n1)
    v3 = np.empty(n1)
    v4 = np.empty(n1)
    vd2 = np.empty(n1)
    vd3 = np.empty(n1)
    vd4 = np.empty(n1)
    k1a = np.zeros(n1)
    k2a = np.zeros(n1)
    k3a = np.zeros(n1)
    k4a = np.zeros(n1)
    frozen = Bm.shape[0] == 1
    stored = 1
    for k in range(nsteps):
        if frozen:
            j0 = 0
            j1 = 0
            j2 = 0
        else:
            j0 = 2 * k
            j1 = 2 * k + 1
            j2 = 2 * k + 2
        B0 = Bm[j0]
        a0 = an[j0]
        b0 = bn[j0]
        g0 = gn[j0]
        for i in range(1, n):
            flux = (B0[i] * (v[i + 1] - v[i]) - B0[i - 1] * (v[i] - v[i - 1])) * inv_h2
            adv = a0[i] * (v[i + 1] - v[i - 1]) * inv_2h
            drift = b0[i] * (vd[i + 1] - vd[i - 1]) * inv_2h
            k1a[i] = flux - adv + 2.0 * drift + g0[i]
        for i in range(n1):
            v2[i] = v[i] + 0.5 * dt * vd[i]
            vd2[i] = vd[i] + 0.5 * dt * k1a[i]
        v2[0] = v2[n] = 0.0
        vd2[0] = vd2[n] = 0.0
        B1 = Bm[j1]
        a1 = an[j1]
        b1 = bn[j1]
        g1 = gn[j1]
        for i in range(1, n):
            flux = (B1[i] * (v2[i + 1] - v2[i]) - B1[i - 1] * (v2[i] - v2[i - 1])) * inv_h2
            adv = a1[i] * (v2[i + 1] - v2[i - 1]) * inv_2h
            drift = b1[i] * (vd2[i + 1] - vd2[i - 1]) * inv_2h
            k2a[i] = flux - adv + 2.0 * drift + g1[i]
        for i in range(n1):
            v3[i] = v[i] + 0.5 * dt * vd2[i]
            vd3[i] = vd[i] + 0.5 * dt * k2a[i]
        v3[0] = v3[n] = 0.0
        vd3[0] = vd3[n] = 0.0
        for i in range(1, n):
            flux = (B1[i] * (v3[i + 1] - v3[i]) - B1[i - 1] * (v3[i] - v3[i - 1])) * inv_h2
            adv = a1[i] * (v3[i + 1] - v3[i - 1]) * inv_2h
            drift = b1[i] * (vd3[i + 1] - vd3[i - 1]) * inv_2h
            k3a[i] = flux - adv + 2.0 * drift + g1[i]
        for i in range(n1):
            v4[i] = v[i] + dt * vd3[i]
            vd4[i] = vd[i] + dt * k3a[i]
        v4[0] = v4[n] = 0.0
        vd4[0] = vd4[n] = 0.0
        B2 = Bm[j2]
        a2 = an[j2]
        b2 = bn[j2]
        g2 = gn[j2]
        for i in range(1, n):
            flux = (B2[i] * (v4[i + 1] - v4[i]) - B2[i - 1] * (v4[i] - v4[i - 1])) * inv_h2
            adv = a2[i] * (v4[i + 1] - v4[i - 1]) * inv_2h
            drift = b2[i] * (vd4[i + 1] - vd4[i - 1]) * inv_2h
            k4a[i] = flux - adv + 2.0 * drift + g2[i]
        sixth = dt / 6.0
        for i in range(n1):
            v[i] += sixth * (vd[i] + 2.0 * vd2[i] + 2.0 * vd3[i] + vd4[i])
            vd[i] += sixth * (k1a[i] + 2.0 * k2a[i] + 2.0 * k3a[i] + k4a[i])
        v[0] = v[n] = 0.0
        vd[0] = vd[n] = 0.0
        for i in range(n1):
            # not (|v| <= limit): a NaN state is a blow-up too
            if not (abs(v[i]) <= BLOWUP_LIMIT):
                return -(k + 1)
        if (k + 1) % store_every == 0:
            out_v[stored] = v
            out_vd[stored] = vd
            stored += 1
    return stored


fd_run = _fd_run_numba if NUMBA_ENABLED else _fd_run_numpy

