"""Method-of-lines grid solver for the transformed 1d problem.

Space: flux-form central differences for d/dy(B v_y) with B at cell
midpoints, centered first differences for the a and b terms, homogeneous
Dirichlet ends.  Time: classical RK4 at fixed step, coefficients sampled
on the half-step grid.  The run goes in blocks of K steps, K about
2^16 / (n + 1) whatever store_every: each block's 2K + 1 half-step slices
come from one closed-form PulledBackProblem.line call per node set (B at
midpoints; a, b, g at inner nodes), written in place into the rows of the
``kernels.Stepper`` the run owns (no forcing buffer without a forcing), so
the coefficients take O(2^16) memory whatever the step count or the
storing stride; a stored step may fall anywhere in a block.  The run feeds
each block's stored rows to a reader: ``galerkin.Rows`` builds the
Trajectory it returns (keeping the one block of a run that has only one),
``energy.Ledger`` samples them into its sums.

When lam'' is 0 at every half-step time of the run (rates() over them),
as for a constant-speed stretch, the identity or the interval flow of an
affine rho, a = -(lam''/lam) y is +-0 everywhere: the run neither fills a
nor steps with it (39 numpy calls a step instead of 43, 43 instead of
47 forced).  The bits hold: the full step subtracts a v_y = +-0 from the
flux term and then adds the b term, and x - (+-0) = x except that
-0 - (-0) = +0, so only a -0 flux term followed by a -0 b term (and no
forcing, or a -0 one) could end with the other sign of zero.

The CFL guard dt <= 0.9 h / sqrt(max B) sees every slice, at the first
cell midpoint where B is largest, and raises before an unstable run
starts.
"""

import numpy as np

from . import kernels
from .errors import BlowUp, CflViolation
from .galerkin import Rows

CFL_SAFETY = 0.9
MIN_CELLS = 8
# node-steps in one coefficient block: about 80 steps at n = 800
_BLOCK_POINTS = 1 << 16


def _max_B(problem, ts, xm):
    """max B over the slices at times ts and the midpoints xm, from the
    first midpoint alone: B = 1/lam^2 - (lam'/lam)^2 y^2 falls with y^2 at
    every time, and rounding is monotone, so that column holds the max."""
    col = np.empty((len(ts), 1))
    return float(np.max(problem.line(ts, xm[:1], out=(col, None, None, None))[0]))


def solve_fd(problem, L, n, v0, v1, dt, T, store_every=1, reader=None):
    """Solve the transformed problem on n cells over (0, L) up to time T.

    v0, v1 are callables; the run stores nodal values each store_every
    steps, and dt is the one ``kernels.step_count`` gives.  It returns
    reader.finish(), after reader.start(times, "grid", L, x=x, meta=meta)
    with the stored times, and reader.feed(V, Vd) with each block's stored
    values and velocities in order (the first block's begin with the first
    row): views of one buffer that the next block overwrites.  Raises
    RunTooLarge (before any allocation), CflViolation or BlowUp.
    """
    if n < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} grid cells")
    h = L / n
    x = np.linspace(0.0, L, n + 1)
    xm = 0.5 * (x[:-1] + x[1:])
    nsteps, dt = kernels.step_count(dt, T, store_every)
    kernels.check_steps(nsteps)

    # K steps to a block, whatever store_every; block k0 reads the slices
    # ts[2 k0 : 2 (k0 + K) + 1] from slot 0 of the buffers
    K = max(1, min(nsteps, _BLOCK_POINTS // (n + 1)))
    S = 2 * K + 1
    ts = kernels.half_steps(nsteps, dt)
    # a = -(lam''/lam) y is +-0 at every node when lam'' is 0 at every slice
    B, a, b = kernels.coefficient_rows(S, n, with_a=bool(np.any(problem.rates(ts)[2])))
    g = None if problem.forcing is None else np.empty((S, n - 1))

    maxB = _max_B(problem, ts, xm)
    if dt > CFL_SAFETY * h / np.sqrt(maxB):
        raise CflViolation(
            f"dt = {dt} exceeds {CFL_SAFETY} h / sqrt(max B) = {CFL_SAFETY * h / np.sqrt(maxB)}"
        )

    stepper = kernels.Stepper(h, dt, B, a, b, g)
    v, vd = stepper.state
    v[:], vd[:] = v0(x), v1(x)
    v[0] = v[-1] = 0.0
    vd[0] = vd[-1] = 0.0

    reader = Rows() if reader is None else reader
    times = np.arange(nsteps // store_every + 1) * (store_every * dt)
    reader.start(times, "grid", L, x=x, meta={"dt": dt, "n": n})
    # RK4.run stores from row 1; row 0, the first stored row, goes with block 0
    V, Vd = np.empty((2, min(len(times), -(-K // store_every) + 1), n + 1))
    V[0], Vd[0] = v, vd
    for k0 in range(0, nsteps, K):
        k = min(K, nsteps - k0)
        m = 2 * k + 1
        tb = ts[2 * k0:2 * k0 + m]
        problem.line(tb, xm, out=(B[:m], None, None, None))
        problem.line(tb, x[1:-1], out=(None, None if a is None else a[:m], b[:m],
                                       None if g is None else g[:m]))
        status = stepper.run(k, store_every, V, Vd, done=k0)
        if status < 0:
            raise BlowUp(f"grid state exceeded {kernels.BLOWUP_LIMIT:g} at step {k0 - status}; shrink dt")
        first = int(k0 > 0)
        reader.feed(V[first:status], Vd[first:status])
    return reader.finish()
