"""Time-discretized cylinder scheme on a growing 1d domain.

The horizon is split into partitions; on each one the standard wave
equation is solved on the domain frozen at the partition's left endpoint,
and the next partition restarts from the previous endpoint state extended
by zero onto the larger domain.

Frozen domain lengths are snapped to a fixed global grid, so every
restart is an exact zero-extension (no interpolation).  Within a
partition the RK4 stepper strictly dissipates the discrete energy

    E_h = h/2 sum v_dot_i^2 + 1/(2h) sum (v_{i+1} - v_i)^2,

so cylinder runs satisfy the energy inequality by construction; the
inequality is still measured and reported, never assumed.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BlowUp, NotMonotone
from .galerkin import Trajectory

INNER_CFL = 0.8


def discrete_energy(v, vd, h):
    kin = 0.5 * h * float(np.sum(vd * vd))
    dv = np.diff(v)
    pot = 0.5 / h * float(np.sum(dv * dv))
    return kin + pot


@dataclass
class CylinderRun:
    traj: Trajectory
    partition_times: np.ndarray
    energies: np.ndarray       # E_h at partition endpoints (incl. t = 0)
    works: np.ndarray          # accumulated work of the forcing at the same times
    h: float

    def energy_margin(self):
        """max over partition endpoints of E(t) - E(0) - work(t)."""
        return float(np.max(self.energies - self.works - self.energies[0]))


def solve_cylinder(fam, u0, u1, forcing=None, partitions=32, inner_n=384):
    """Cylinder-scheme solution of the moving-domain problem for a 1d family
    on [0, horizon]; the trajectory stores every inner step."""
    if fam.dim != 1:
        raise ValueError("cylinder scheme is 1d")
    K = int(partitions)
    tgrid = np.linspace(0.0, fam.horizon, K + 1)
    lengths = np.array([fam.domain_measure(t) for t in tgrid])
    if np.any(np.diff(lengths) < -1e-12):
        raise NotMonotone("domain shrinks between partition points")

    L_final = lengths[-1]
    h = L_final / inner_n
    marks = np.maximum.accumulate(np.clip(np.round(lengths / h).astype(int), 8, inner_n))

    x = np.linspace(0.0, L_final, inner_n + 1)
    V = np.zeros(inner_n + 1)
    VD = np.zeros(inner_n + 1)
    m0 = marks[0]
    inside = x <= lengths[0] + 1e-12
    V[inside] = np.asarray(u0(np.minimum(x[inside], lengths[0])), dtype=float)
    VD[inside] = np.asarray(u1(np.minimum(x[inside], lengths[0])), dtype=float)
    V[m0:] = 0.0
    VD[m0:] = 0.0
    V[0] = 0.0
    VD[0] = 0.0

    times = [0.0]
    vals = [V.copy()]
    vels = [VD.copy()]
    fronts = [m0 * h]
    energies = [discrete_energy(V, VD, h)]
    works = [0.0]
    work = 0.0

    for k in range(K):
        t0, t1 = tgrid[k], tgrid[k + 1]
        m = marks[k]
        delta = t1 - t0
        steps = max(1, int(np.ceil(delta / (INNER_CFL * h))))
        dt = delta / steps

        nseg = m  # cells in the frozen domain
        v = V[: m + 1].copy()
        vd = VD[: m + 1].copy()
        if forcing is None:
            Bm = np.ones((1, nseg))
            an = np.zeros((1, nseg + 1))
            bn = np.zeros((1, nseg + 1))
            gn = np.zeros((1, nseg + 1))
        else:
            S = 2 * steps + 1
            Bm = np.ones((S, nseg))
            an = np.zeros((S, nseg + 1))
            bn = np.zeros((S, nseg + 1))
            gn = np.empty((S, nseg + 1))
            for j in range(S):
                gn[j] = np.asarray(forcing(t0 + 0.5 * j * dt, x[: m + 1]), dtype=float)

        out_v = np.empty((steps + 1, m + 1))
        out_vd = np.empty((steps + 1, m + 1))
        out_v[0] = v
        out_vd[0] = vd
        status = kernels.fd_run(v, vd, h, dt, steps, Bm, an, bn, gn, 1, out_v, out_vd)
        if status < 0:
            raise BlowUp(f"cylinder partition {k} blew up at inner step {-status}")

        for s in range(1, steps + 1):
            t = t0 + s * dt
            full_v = np.zeros(inner_n + 1)
            full_vd = np.zeros(inner_n + 1)
            full_v[: m + 1] = out_v[s]
            full_vd[: m + 1] = out_vd[s]
            if forcing is not None:
                # trapezoid increment of <f, u_dot> over the inner step
                fa = np.asarray(forcing(t - dt, x[: m + 1]), dtype=float)
                fb = np.asarray(forcing(t, x[: m + 1]), dtype=float)
                work += 0.5 * dt * h * float(np.sum(fa * out_vd[s - 1] + fb * out_vd[s]))
            times.append(t)
            vals.append(full_v)
            vels.append(full_vd)
            fronts.append(m * h)
        V[: m + 1] = out_v[steps]
        VD[: m + 1] = out_vd[steps]
        V[m + 1:] = 0.0
        VD[m + 1:] = 0.0
        energies.append(discrete_energy(V, VD, h))
        works.append(work)

    traj = Trajectory(
        kind="grid",
        times=np.asarray(times),
        values=np.asarray(vals),
        velocities=np.asarray(vels),
        L=L_final,
        x=x,
        front=np.asarray(fronts),
        meta={"partitions": K, "inner_n": inner_n, "h": h},
    )
    return CylinderRun(
        traj=traj,
        partition_times=tgrid,
        energies=np.asarray(energies),
        works=np.asarray(works),
        h=h,
    )
