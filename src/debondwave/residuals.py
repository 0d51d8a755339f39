"""Strong-weak form residuals of stored trajectories.

For a probe phi vanishing at the ends, the solution must satisfy

    <v'', phi> + <B v_y, phi_y> + <a v_y, phi> + 2 <v', div(b phi)> = <g, phi>

at almost every time.  v'' is reconstructed from the stored velocities by
central differencing; a five-point fourth-order stencil keeps the
reconstruction error below the equation residual being measured.
"""

import numpy as np

from .galerkin import SineBasis, gauss_legendre_panels


def _velocity_derivative(vels, dt):
    """Fourth-order central differences of the stored velocity series."""
    acc = np.empty_like(vels)
    acc[:] = np.nan
    if len(vels) >= 5:
        acc[2:-2] = (-vels[4:] + 8 * vels[3:-1] - 8 * vels[1:-3] + vels[:-4]) / (12.0 * dt)
    return acc


def weak_residual(traj, problem, n_probes=8, panels=None, nodes=10,
                  probe_basis=None, time_stride=None):
    """max over interior stored times and probes of the equation residual."""
    L = traj.L
    basis = probe_basis or SineBasis(L, n_probes)
    panels = panels or max(8, 2 * n_probes)
    yq, wq = gauss_legendre_panels(L, panels, nodes)
    W = basis.values(yq)
    Wp = basis.derivs(yq)

    dt = traj.times[1] - traj.times[0]
    vdd_all = _velocity_derivative(traj.velocities, dt)
    idx = range(2, len(traj.times) - 2)
    if time_stride is None:
        time_stride = max(1, (len(traj.times) - 4) // 200)
    worst = 0.0
    for i in list(idx)[::time_stride]:
        t = traj.times[i]
        v, vd, vy = traj.eval_index(i, yq)
        if traj.kind == "modal":
            vdd = traj.basis.values(yq) @ vdd_all[i]
        else:
            vdd = np.interp(yq, traj.x, vdd_all[i])
        B, a, b, g = problem.line(t, yq)
        _, divb = problem.line_rates(t, yq)
        for k in range(basis.m):
            phi = W[:, k]
            phip = Wp[:, k]
            r = (
                np.sum(wq * vdd * phi)
                + np.sum(wq * B * vy * phip)
                + np.sum(wq * a * vy * phi)
                + 2.0 * np.sum(wq * vd * (divb * phi + b * phip))
                - np.sum(wq * g * phi)
            )
            worst = max(worst, abs(float(r)))
    return worst

