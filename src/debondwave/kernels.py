"""The RK4 driver of every solver, and the wave right-hand sides of the 1d
grid solvers, in plain numpy: each stage works in place on one
preallocated stacked array.  At the solvers' sizes (65 to 1025 unknowns)
a numpy call costs one to two microseconds, mostly call overhead, so a
step costs about what its number of calls says.

``RK4`` steps x'' = f(t, x, x') with the state (x, x') stacked, in 11
numpy calls a step besides its four accelerations: 6 for the stage
states, 4 for the stage sum (one ``np.add.reduce`` over the stage axis)
and 1 for the blow-up guard (``ndarray.dot``, np.dot's routine without
its Python dispatcher).  ``RK4.step`` is that one step; ``run`` loops
over it and adds only the slot check and the store.  The ufuncs of a
step and of the accelerations below are bound once and take their
outputs by position, which saves the lookups and the keyword parse of
each call.  Every owner supplies the acceleration from data at one set
of slots, the 2n + 1 ``half_steps`` of an n-step run.  ``Stepper`` is
the grid wave right-hand side with Dirichlet ends, run by the grid
solver a block of steps at a time and stepped by the coupled solvers one
``step`` at a time; one multiply a stage by its coefficient row
[B | a | b] covers all three, so a step makes 43 calls (47 forced), 39
(43) without a.  ``UnitStepper`` is v'' = v_yy alone, for the cylinder
solver's frozen partitions; ``galerkin.integrate`` supplies the modal
acceleration.  ``step_count`` and ``cfl_step_count`` refuse a count
past ``MAX_STEPS`` or not finite, before a solver allocates for it.
"""

import math

import numpy as np

from .errors import RunTooLarge

BLOWUP_LIMIT = 1.0e12
_LIMIT_SQ = BLOWUP_LIMIT * BLOWUP_LIMIT
# steps a run may take.  A run's per-step tables (slot times, weights, front
# history, energy ledger) grow with its step count alone: a whole scenario
# run held about 470 bytes a step, with modes = 1 and with front_grid = 16,
# so 10^7 steps hold about 5 GB, and at the cheapest step (about 22 us) take
# about 4 minutes.  That is 800 times verify coupled-1d's n = 2048 run
# (about 1.2e4 steps) and 100 times debonding_constant.scn at front_grid =
# 16384 (about 1e5 steps)
MAX_STEPS = 10 ** 7


def _refuse(count):
    """count, refused with RunTooLarge when it exceeds MAX_STEPS or is not
    finite."""
    if not count <= MAX_STEPS:
        raise RunTooLarge(f"{count:.3g} steps exceed MAX_STEPS = {MAX_STEPS:.0e}")
    return count


def _ratio(T, step):
    """T / step, refused when it is not finite (int() overflows on it), as
    when step underflows to 0."""
    ratio = T / step if step else math.inf
    return ratio if math.isfinite(ratio) else _refuse(ratio)


def step_count(dt, T, store_every=1):
    """(nsteps, dt) of a fixed-step run from 0 to T.

    dt is kept when it divides T within 1e-9 max(1, T); otherwise the run
    takes ceil(T / dt) steps of T / nsteps, at least one, so it ends at T,
    not past it.  Raises RunTooLarge when T / dt is not finite, ValueError
    unless store_every divides nsteps, then RunTooLarge past MAX_STEPS.
    """
    ratio = _ratio(T, dt)
    nsteps = int(round(ratio))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        nsteps = max(1, int(np.ceil(ratio - 1e-12)))
        dt = T / nsteps
    if nsteps % store_every:
        raise ValueError("store_every must divide the step count")
    return _refuse(nsteps), dt


def cfl_step_count(h, cfl, T):
    """(nsteps, dt) of a coupled run from 0 to T on cells of width h: the
    fewest steps of at most cfl h, at least one, each T / nsteps.  Raises
    RunTooLarge when T / (cfl h) is not finite or nsteps exceeds MAX_STEPS.
    """
    nsteps = _refuse(max(1, int(np.ceil(_ratio(T, cfl * h) - 1e-12))))
    return nsteps, T / nsteps


def half_steps(nsteps, dt):
    """The slot times of an nsteps run from 0: slot j at j dt / 2."""
    return 0.5 * dt * np.arange(2 * nsteps + 1)


class RK4:
    """Classical fixed-step RK4 for x'' = f(t, x, x') on n unknowns.

    It owns the stage workspace ``stages``: stages[s] = (x_s, x'_s, x''_s)
    at stage s, and the state (x, x') is the (2, n) view ``state``.  The
    owner sets ``accel(s, j)``, which writes x''_s into stages[s, 2] with
    the data of slot j (step k of each run, counted from 0, uses slots 2k,
    2k+1 twice and 2k+2).  An owner that holds ``slots`` slots sets it: a
    run that would read more is refused with a ValueError before its
    first step.

    ``step(j)`` is one step on slots j, j+1, j+1 and j+2, with no slot
    check; it returns whether the state passed the blow-up guard.
    ``run`` steps with it, so an owner that steps one step at a time (the
    coupled front loop) calls ``step`` and skips a run's bookkeeping.
    """

    def __init__(self, n, dt):
        # rows 0-1 of stages[s] are the stage state and rows 1-2 its time
        # derivative, so the four stage derivatives are K = stages[:, 1:]
        W = np.empty((4, 3, n))
        self.stages = W
        self.state = X = W[0, :2]
        # the owner's accel (the ``accel`` property), in a list that step reads
        # at each call: step holds no reference to self, so no cycle keeps a
        # stepper's buffers alive until the cyclic collector runs
        self._accel = hook = [None]
        self.slots = np.inf
        K = W[:, 1:]
        K0, K1, K2 = K[:3]
        K12 = K[1:3]
        S1, S2, S3 = W[1, :2], W[2, :2], W[3, :2]
        Ksum = np.empty((2, n))
        # the state flat for the blow-up guard: a view, as W is contiguous
        Xf = W[0].reshape(-1)[:2 * n]
        # scalars as 0-d arrays: the same float64 arithmetic, less call overhead
        half, full, sixth, two = (np.array(x) for x in (0.5 * dt, dt, dt / 6.0, 2.0))
        # bound once: the ufuncs, outputs passed by position, and Xf.dot, the
        # routine of np.dot without its dispatcher
        multiply, add, add_reduce = np.multiply, np.add, np.add.reduce
        absolute, max_reduce, dot = np.abs, np.maximum.reduce, Xf.dot

        def step(j):
            accel = hook[0]
            accel(0, j)
            multiply(K0, half, S1)
            add(X, S1, S1)
            accel(1, j + 1)
            multiply(K1, half, S2)
            add(X, S2, S2)
            accel(2, j + 1)
            multiply(K2, full, S3)
            add(X, S3, S3)
            accel(3, j + 2)
            # X += (dt/6) (((K0 + 2 K1) + 2 K2) + K3): a reduction over the
            # outer stage axis adds whole rows in index order
            multiply(K12, two, K12)
            add_reduce(K, 0, None, Ksum)
            multiply(Ksum, sixth, Ksum)
            add(X, Ksum, X)
            # blow-up guard, both rows (a NaN velocity from the last stage
            # counts at this step); not (max <= limit): a NaN state blows up
            # too.  The sum of squares is at least the largest square in any
            # order, so below the limit's square it clears the state in one call
            return dot(Xf) < _LIMIT_SQ or max_reduce(absolute(X, S1), None) <= BLOWUP_LIMIT

        self.step = step

    @property
    def accel(self):
        return self._accel[0]

    @accel.setter
    def accel(self, f):
        self._accel[0] = f

    def run(self, nsteps, store_every=1, out_v=None, out_vd=None, done=0):
        """Advance ``state`` in place by nsteps RK4 steps.

        With out_v/out_vd given, every store_every-th state goes to them
        from row 1 on; done steps taken before this run count toward
        store_every.  Returns the number of rows filled (1 when nothing is
        stored), or -(k + 1) when step k blows up.
        """
        if 2 * nsteps + 1 > self.slots:
            raise ValueError(f"{nsteps} steps read {2 * nsteps + 1} slots; "
                             f"the owner has {self.slots}")
        step, X = self.step, self.state
        status = 1
        for k in range(nsteps):
            if not step(2 * k):
                return -(k + 1)
            if out_v is not None and (done + k + 1) % store_every == 0:
                out_v[status] = X[0]
                out_vd[status] = X[1]
                status += 1
        return status


class _Dirichlet(RK4):
    """``RK4`` on n1 grid nodes whose end accelerations are 0.  The owner
    starts both ends of v and vd at +0, as every solver does; the zero
    accelerations then keep them at +0 through every stage and step."""

    def __init__(self, n1, dt):
        super().__init__(n1, dt)
        self.stages[:, 2, ::n1 - 1] = 0.0


def coefficient_rows(S, n, with_a=True):
    """S slots of ``Stepper`` coefficients on n cells, one row a slot: [B (n)
    | a (n-1) | b (n-1)], or [B | b] without a (a None).  Returns the views
    B, a, b: B at the cell midpoints, a and b at the inner nodes."""
    rows = np.empty((S, 2 * n - 1 + with_a * (n - 1)))
    ab = rows[:, n:].reshape(S, -1, n - 1)
    return rows[:, :n], (ab[:, 0] if with_a else None), ab[:, -1]


class Stepper(_Dirichlet):
    """``RK4`` with the wave right-hand side on one grid and one dt, on
    coefficients held by reference: the views B, a, b of ``coefficient_rows``
    (a None: no a term, as for lam'' = 0), ``ab`` the (S, 2 or 1, n-1) block
    of a and b, and g (S, n-1) at the inner nodes (None: no forcing), which
    a caller may refill in place between runs; a run of nsteps reads slots
    0 to 2 nsteps.  A stage makes 8 numpy calls, 7 without a and one more
    with a forcing: 43 a step (47 forced), or 39 (43) without a.
    """

    def __init__(self, h, dt, B, a, b, g=None):
        rows = B.base
        if rows is None or any(x is not None and x.base is not rows for x in (a, b)):
            raise ValueError("B, a and b must be the views of one coefficient_rows call")
        n1 = B.shape[1] + 1
        super().__init__(n1, dt)
        self.slots = len(rows)
        self.ab = rows[:, n1 - 1:].reshape(self.slots, -1, n1 - 2)
        # w = [d | c] is laid out like a coefficient row (d = v_{i+1} - v_i, c
        # the central differences of (v, vd), or of vd alone), so one multiply
        # covers B, a and b; over a and b rows in separate blocks it did not pay
        vrows = slice(1 if a is None else 0, 2)
        w = np.empty(rows.shape[1])
        d, c = w[:n1 - 1], w[n1 - 1:].reshape(-1, n1 - 2)
        views = [(x[0, 1:], x[0, :-1], x[vrows, 2:], x[vrows, :-2], acc[1:-1])
                 for x, acc in zip(self.stages[:, :2], self.stages[:, 2])]
        dr, dl = d[1:], d[:-1]
        c0, c1 = c[0], c[-1]
        inv_h2 = np.array(1.0 / (h * h))
        # rows 1/2h and 2/2h: the b term's factor 2 is a power of two, so in
        # the scale it rounds as a multiply by 2 afterwards (away from
        # subnormals).  The scale is a full array: a (2, 1) scale column
        # costs more than the call it saves
        scale = np.repeat([[0.5 / h], [2.0 * (0.5 / h)]], n1 - 2, axis=1)[vrows]
        subtract, multiply, add = np.subtract, np.multiply, np.add

        def accel(s, j):
            # acc = d/dy(B v_y) - a v_y + 2 b vd_y + g, each term rounded in
            # the order of the reference stepper in tests/test_kernels.py.
            # Without a, acc - (+-0) = acc is skipped: only a -0 flux term
            # and a -0 b term end -0 here where the full step gives +0
            vr, vl, xr, xl, acc = views[s]
            subtract(vr, vl, d)
            subtract(xr, xl, c)
            multiply(w, rows[j], w)
            subtract(dr, dl, acc)
            multiply(acc, inv_h2, acc)
            multiply(c, scale, c)
            if a is not None:
                subtract(acc, c0, acc)
            add(acc, c1, acc)
            if g is not None:
                add(acc, g[j], acc)

        self.accel = accel


class UnitStepper(_Dirichlet):
    """``RK4`` with the standard wave equation v'' = v_yy on n1 nodes of
    spacing h: ``Stepper``'s values for B = 1 and a = b = g = 0 without the
    calls that multiply by them.  Dropping the add of +0 terms only keeps
    a -0 acceleration -0, which needs a -0 in the state.
    """

    def __init__(self, h, dt, n1):
        super().__init__(n1, dt)
        d = np.empty(n1 - 1)
        dr, dl = d[1:], d[:-1]
        views = [(x[1:], x[:-1], acc[1:-1])
                 for x, acc in zip(self.stages[:, 0], self.stages[:, 2])]
        inv_h2 = np.array(1.0 / (h * h))
        subtract, multiply = np.subtract, np.multiply

        def accel(s, j):
            vr, vl, acc = views[s]
            subtract(vr, vl, d)
            subtract(dr, dl, acc)
            multiply(acc, inv_h2, acc)

        self.accel = accel


def backend_name():
    """The stepper's implementation, recorded in manifests and run records."""
    return "numpy"
