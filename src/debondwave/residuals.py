"""Strong-weak form residuals of stored trajectories.

For a probe phi vanishing at the ends, the solution must satisfy

    <v'', phi> + <B v_y, phi_y> + <a v_y, phi> + 2 <v', div(b phi)> = <g, phi>

at almost every time.  v'' is reconstructed from the stored velocities by
central differencing; a five-point fourth-order stencil keeps the
reconstruction error below the equation residual being measured.
"""

import numpy as np

from .galerkin import SineBasis, gauss_legendre_panels


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

    rows = np.arange(2, nt - 2)[::max(1, (nt - 4) // 200)]
    vd, vy = traj.eval_all(yq)
    dt = traj.times[1] - traj.times[0]
    vdd = (-vd[rows + 2] + 8 * vd[rows + 1] - 8 * vd[rows - 1] + vd[rows - 2]) / (12.0 * dt)
    vd, vy = vd[rows], vy[rows]
    t = traj.times[rows]
    B, a, b, g = problem.line(t, yq)
    _, divb = problem.line_rates(t, yq)
    r = (vdd + a * vy + 2.0 * vd * divb - g) @ W + (B * vy + 2.0 * vd * b) @ Wp
    return float(np.max(np.abs(r)))
