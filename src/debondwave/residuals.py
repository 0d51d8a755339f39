"""Strong-weak form residuals of stored trajectories.

For a probe phi vanishing at the ends, the solution must satisfy

    <v'', phi> + <B v_y, phi_y> + <a v_y, phi> + 2 <v', div(b phi)> = <g, phi>

at almost every time.  v'' is reconstructed from the stored velocities by
central differencing; a five-point fourth-order stencil keeps the
reconstruction error below the equation residual being measured.  Only
the stored rows that stencil reads are sampled (``galerkin.sampler``, as
the ledger reads them), ``_BLOCK_TIMES`` sampled times at a time, so no
v_dot or v_y table of every stored time is formed.
"""

import numpy as np

from .galerkin import SineBasis, gauss_legendre_panels, sampler

_BLOCK_TIMES = 16  # sampled times a block: 5 x 16 stored rows through the sampler


def weak_residual(traj, problem, n_probes=8):
    """max over interior stored times and probes of the equation residual.

    The probes are the first n_probes sine modes, integrated by a
    10-point Gauss rule on max(8, 2 n_probes) panels, at every k-th
    interior stored time with k = max(1, (nt - 4) // 200).
    """
    nt = len(traj.times)
    if nt < 5:
        return 0.0
    basis = SineBasis(traj.L, n_probes)
    yq, wq = gauss_legendre_panels(traj.L, max(8, 2 * n_probes))
    W = wq[:, None] * basis.values(yq)
    Wp = wq[:, None] * basis.derivs(yq)
    order, sample = sampler(yq, traj.x, traj.basis)
    dt = traj.times[1] - traj.times[0]
    worst = 0.0
    sampled = np.arange(2, nt - 2)[::max(1, (nt - 4) // 200)]
    for first in range(0, len(sampled), _BLOCK_TIMES):
        rows = sampled[first:first + _BLOCK_TIMES]
        k = len(rows)
        read = (rows + np.arange(-2, 3)[:, None]).ravel()  # rows - 2, ..., rows + 2
        vd, vy = (np.empty((len(read), len(yq)), order=order) for _ in range(2))
        sample(traj.values[read], traj.velocities[read], vd, vy)
        at = [slice(j * k, (j + 1) * k) for j in range(5)]  # offsets -2 ... 2
        vdd = (-vd[at[4]] + 8 * vd[at[3]] - 8 * vd[at[1]] + vd[at[0]]) / (12.0 * dt)
        vd, vy = vd[at[2]], vy[at[2]]
        t = traj.times[rows]
        B, a, b, g = problem.line(t, yq)
        divb = problem.rates(t)[1][:, None]  # div b = lam'/lam along each row
        r = (vdd + a * vy + 2.0 * vd * divb - g) @ W + (B * vy + 2.0 * vd * b) @ Wp
        worst = max(worst, float(np.max(np.abs(r))))
    return worst
