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
inequality is still measured and reported, never assumed.  The scheme
solves the unforced problem.  The trajectory holds the K + 1 partition-end
states at the partition grid, each with the frozen length it was stepped
on as its front; the inner steps are not stored.
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
    energies: np.ndarray       # E_h at partition endpoints (incl. t = 0)

    def energy_margin(self):
        """max over partition endpoints of E(t) - E(0)."""
        return float(np.max(self.energies - self.energies[0]))


def solve_cylinder(fam, u0, u1, partitions=32, inner_n=384):
    """Cylinder-scheme solution of the moving-domain problem for a 1d family
    on [0, horizon]; the trajectory stores the partition-end states."""
    if fam.dim != 1:
        raise ValueError("cylinder scheme is 1d")
    K = int(partitions)
    tgrid = np.linspace(0.0, fam.horizon, K + 1)
    lengths = fam.domain_measure(tgrid)
    if np.any(np.diff(lengths) < -1e-12):
        raise NotMonotone("domain shrinks between partition points")

    L_final = lengths[-1]
    h = L_final / inner_n
    marks = np.maximum.accumulate(np.clip(np.round(lengths / h).astype(int), 8, inner_n))
    # (steps, dt) of each partition by the one CFL step rule, so a run past
    # kernels.MAX_STEPS is refused before any stepper is built
    steps = [kernels.cfl_step_count(h, INNER_CFL, span) for span in np.diff(tgrid)]

    # the partition-end states, zero beyond each partition's frozen domain
    x = np.linspace(0.0, L_final, inner_n + 1)
    vals = np.zeros((K + 1, inner_n + 1))
    vels = np.zeros_like(vals)
    inside = x <= lengths[0] + 1e-12
    for row, data in ((vals[0], u0), (vels[0], u1)):
        row[inside] = np.asarray(data(np.minimum(x[inside], lengths[0])), dtype=float)
        row[marks[0]:] = 0.0
        row[0] = 0.0

    for k in range(K):
        m, (n, dt) = marks[k], steps[k]
        # the standard wave equation on the frozen domain, from the last
        # partition's end state, zero beyond its domain
        stepper = kernels.UnitStepper(h, dt, m + 1)
        stepper.state[:] = vals[k, : m + 1], vels[k, : m + 1]
        status = stepper.run(n)
        if status < 0:
            raise BlowUp(f"cylinder partition {k} blew up at inner step {-status}")
        vals[k + 1, : m + 1], vels[k + 1, : m + 1] = stepper.state

    traj = Trajectory(
        kind="grid",
        times=tgrid,
        values=vals,
        velocities=vels,
        L=L_final,
        x=x,
        front=np.concatenate([marks[:1], marks[:-1]]) * h,
        meta={"partitions": K, "inner_n": inner_n, "h": h},
    )
    energies = [discrete_energy(v, vd, h) for v, vd in zip(vals, vels)]
    return CylinderRun(traj=traj, energies=np.asarray(energies))
