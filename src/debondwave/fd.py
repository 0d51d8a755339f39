"""Method-of-lines grid solver for the transformed 1d problem.

Space: flux-form central differences for d/dy(B v_y) with B at cell
midpoints, centered first differences for the a and b terms, homogeneous
Dirichlet ends.  Time: classical RK4 at fixed step, coefficients sampled
on the half-step grid.  The stretch rates (lam, lam'/lam, lam''/lam) of
all 2 nsteps + 1 half-step times are read once, by one
PulledBackProblem.rates call.  The run goes in blocks of K steps, K about
2^13 / (n + 1) whatever store_every (20 at n = 400, 10 at n = 800): each
block's 2K + 1 half-step slices are filled from slices of those rates,
one PulledBackProblem._fill call per node set (B at midpoints; a, b, g at
inner nodes), written in place into the rows of the ``kernels.Stepper``
the run owns (no forcing buffer without a forcing), so the coefficients
take O(2^13) memory whatever the step count or the storing stride; a
stored step may fall anywhere in a block.  Grid rows are independent, so
the block size does not move a bit.  The run feeds each block's stored
rows to a reader (a zero-step run its first row alone): ``galerkin.Rows``
builds the Trajectory it returns (keeping the one block of a run that has
only one), ``energy.Ledger`` samples them into its sums.

When lam'' is 0 at every half-step time of the run (those rates),
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
# node-steps in one coefficient block: 10 steps at n = 800
_BLOCK_POINTS = 1 << 13


def _max_B(problem, ts, rates, ym):
    """max B over the slices at times ts (with their rates) and the cell
    midpoints, from the first midpoint ym alone: B = 1/lam^2 - (lam'/lam)^2
    y^2 falls with y^2 at every time, and rounding is monotone, so that
    column holds the max."""
    col = np.empty((len(ts), 1))
    return float(np.max(problem._fill(ts, [ym], rates, out=(col, None, None, None))[0]))


def solve_fd(problem, L, n, v0, v1, dt, T, store_every=1, reader=None):
    """Solve the transformed problem on n cells over (0, L) up to time T.

    v0, v1 are callables; the run stores nodal values each store_every
    steps, and dt is the one ``kernels.step_count`` gives.  It returns
    reader.finish(), after reader.start(times, "grid", L, x=x, meta=meta)
    with the stored times, and reader.feed(V, Vd) with each block's stored
    values and velocities in order (the first block's begin with the first
    row): views of one buffer that the next block overwrites.  Raises
    RunTooLarge (before any allocation), CflViolation (before any array
    of the grid's size) or BlowUp.
    """
    if n < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} grid cells")
    h = L / n
    nsteps, dt = kernels.step_count(dt, T, store_every)
    ts = kernels.half_steps(nsteps, dt)
    # the rates of every slice, read once: each block fills from its slices
    rates = problem.rates(ts)
    # the first midpoint 0.5 (x[0] + x[1]) with x[1] = 0 + h: the bits of xm[0]
    maxB = _max_B(problem, ts, rates, 0.5 * (0.0 + h))
    if dt > CFL_SAFETY * h / np.sqrt(maxB):
        raise CflViolation(
            f"dt = {dt} exceeds {CFL_SAFETY} h / sqrt(max B) = {CFL_SAFETY * h / np.sqrt(maxB)}"
        )

    x = np.linspace(0.0, L, n + 1)
    xm = 0.5 * (x[:-1] + x[1:])
    # K steps to a block, whatever store_every; block k0 reads the slices
    # ts[2 k0 : 2 (k0 + K) + 1] from slot 0 of the buffers
    K = max(1, min(nsteps, _BLOCK_POINTS // (n + 1)))
    S = 2 * K + 1
    # a = -(lam''/lam) y is +-0 at every node when lam'' is 0 at every slice
    B, a, b = kernels.coefficient_rows(S, n, with_a=bool(np.any(rates[2])))
    g = None if problem.forcing is None else np.empty((S, n - 1))

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
        slots = slice(2 * k0, 2 * k0 + m)
        tb, rb = ts[slots], [r[slots] for r in rates]
        problem._fill(tb, xm, rb, out=(B[:m], None, None, None))
        problem._fill(tb, x[1:-1], rb, out=(None, None if a is None else a[:m], b[:m],
                                            None if g is None else g[:m]))
        status = stepper.run(k, store_every, V, Vd, done=k0)
        if status < 0:
            raise BlowUp(f"grid state exceeded {kernels.BLOWUP_LIMIT:g} at step {k0 - status}; shrink dt")
        first = int(k0 > 0)
        reader.feed(V[first:status], Vd[first:status])
    if nsteps == 0:  # a zero horizon stores its first row alone
        reader.feed(V[:1], Vd[:1])
    return reader.finish()
