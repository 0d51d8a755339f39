"""Method-of-lines grid solver for the transformed 1d problem.

Space: flux-form central differences for d/dy(B v_y) with B at cell
midpoints, centered first differences for the a and b terms, homogeneous
Dirichlet ends.  Time: classical RK4 at fixed step, coefficients sampled
on the half-step grid.  All 2 nsteps + 1 half-step slices come from one
closed-form PulledBackProblem.line call per node set, written in place
into the four arrays the stepping kernel reads.  The CFL guard
dt <= 0.9 h / sqrt(max B) raises before an unstable run starts.
"""

import numpy as np

from . import kernels
from .errors import BlowUp, CflViolation
from .galerkin import Trajectory

CFL_SAFETY = 0.9
MIN_CELLS = 8


def solve_fd(problem, L, n, v0, v1, dt, T, store_every=1):
    """Solve the transformed problem on n cells over (0, L) up to time T.

    v0, v1 are callables; the trajectory stores nodal values each
    store_every steps, and dt is the one ``kernels.step_count`` gives.
    Raises CflViolation or BlowUp.
    """
    if n < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} grid cells")
    h = L / n
    x = np.linspace(0.0, L, n + 1)
    xm = 0.5 * (x[:-1] + x[1:])
    nsteps, dt = kernels.step_count(dt, T, store_every)

    # every half-step coefficient slice at once, filled in place
    S = 2 * nsteps + 1
    ts = 0.5 * dt * np.arange(S)
    Bm = np.empty((S, n))
    an = np.empty((S, n + 1))
    bn = np.empty((S, n + 1))
    gn = np.zeros((S, n + 1))  # left untouched, so unpaged, without a forcing
    problem.line(ts, xm, out=(Bm, None, None, None))
    problem.line(ts, x, out=(None, an, bn, None if problem.forcing is None else gn))
    maxB = float(np.max(Bm))
    if dt > CFL_SAFETY * h / np.sqrt(maxB):
        raise CflViolation(
            f"dt = {dt} exceeds {CFL_SAFETY} h / sqrt(max B) = {CFL_SAFETY * h / np.sqrt(maxB)}"
        )

    v = np.asarray(v0(x), dtype=float).copy()
    vd = np.asarray(v1(x), dtype=float).copy()
    v[0] = v[-1] = 0.0
    vd[0] = vd[-1] = 0.0

    nstored = nsteps // store_every + 1
    out_v = np.empty((nstored, n + 1))
    out_vd = np.empty((nstored, n + 1))
    out_v[0] = v
    out_vd[0] = vd
    status = kernels.fd_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd)
    if status < 0:
        raise BlowUp(f"grid state exceeded {kernels.BLOWUP_LIMIT:g} at step {-status}; shrink dt")
    times = np.arange(nstored) * (store_every * dt)
    return Trajectory(
        kind="grid", times=times, values=out_v, velocities=out_vd,
        L=L, x=x, meta={"dt": dt, "n": n},
    )
