"""The RK4 driver of every solver, and the wave right-hand sides of the 1d
grid solvers, in plain numpy: each stage works in place on one
preallocated stacked array.  At the solvers' sizes (65 to 1025 unknowns)
a numpy call costs one to two microseconds, mostly call overhead, so a
step costs about what its number of calls says.

``RK4`` steps x'' = f(t, x, x') with the state (x, x') stacked, in 11
numpy calls a step besides its four accelerations: 6 for the stage
states, 4 for the stage sum (one ``np.add.reduce`` over the stage axis)
and 1 for the blow-up guard.  Every owner supplies the acceleration from
data at one set of slots, the 2n + 1 ``half_steps`` of an n-step run.
``Stepper`` is the grid wave right-hand side with Dirichlet ends, run by
the grid solver a block of steps at a time and by the coupled solvers a
step at a time; one multiply a stage by its coefficient row [B | a | b]
covers all three, so a step makes 43 calls (47 forced), 39 (43) without
a.  ``UnitStepper`` is v'' = v_yy alone, for the cylinder solver's frozen
partitions; ``galerkin.integrate`` supplies the modal acceleration.
"""

import numpy as np

BLOWUP_LIMIT = 1.0e12
_LIMIT_SQ = BLOWUP_LIMIT * BLOWUP_LIMIT


def step_count(dt, T, store_every=1):
    """(nsteps, dt) of a fixed-step run from 0 to T.

    dt is kept when it divides T within 1e-9 max(1, T); otherwise the run
    takes ceil(T / dt) steps of T / nsteps, so it ends at T, not past it.
    Raises ValueError unless store_every divides nsteps.
    """
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        nsteps = int(np.ceil(T / dt - 1e-12))
        dt = T / nsteps
    if nsteps % store_every:
        raise ValueError("store_every must divide the step count")
    return nsteps, dt


def half_steps(nsteps, dt):
    """The slot times of an nsteps run from 0: slot j at j dt / 2."""
    return 0.5 * dt * np.arange(2 * nsteps + 1)


class RK4:
    """Classical fixed-step RK4 for x'' = f(t, x, x') on n unknowns.

    It owns the stage workspace ``stages``: stages[s] = (x_s, x'_s, x''_s)
    at stage s, and the state (x, x') is the (2, n) view ``state``.  The
    owner sets ``accel(s, j)``, which writes x''_s into stages[s, 2] with
    the data of slot j (step k of each run, counted from 0, uses slots 2k,
    2k+1 twice and 2k+2), and may set ``clamp()``, applied to
    the state after the first step of each run, before the blow-up guard:
    a clamp that later steps keep, as zero ends with zero accelerations.
    An owner that holds ``slots`` slots sets it: a run that would read
    more is refused with a ValueError before its first step.
    """

    def __init__(self, n, dt):
        # rows 0-1 of stages[s] are the stage state and rows 1-2 its time
        # derivative, so the four stage derivatives are K = stages[:, 1:]
        W = np.empty((4, 3, n))
        self.stages = W
        self.state = W[0, :2]
        self.accel = None
        self.clamp = None
        self.slots = np.inf
        K = W[:, 1:]
        # the state flat for the blow-up guard: a view, as W is contiguous
        Xf = W[0].reshape(-1)[:2 * n]
        # scalars as 0-d arrays: the same float64 arithmetic, less call overhead
        self._work = (self.state, Xf, W[1, :2], W[2, :2], W[3, :2], *K[:3], K, K[1:3],
                      np.empty((2, n)),
                      *(np.array(x) for x in (0.5 * dt, dt, dt / 6.0, 2.0)))

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
        accel, clamp = self.accel, self.clamp
        X, Xf, S1, S2, S3, K0, K1, K2, K, K12, Ksum, half, full, sixth, two = self._work
        status = 1
        for k in range(nsteps):
            j = 2 * k
            jh = j + 1
            accel(0, j)
            np.multiply(K0, half, out=S1)
            np.add(X, S1, out=S1)
            accel(1, jh)
            np.multiply(K1, half, out=S2)
            np.add(X, S2, out=S2)
            accel(2, jh)
            np.multiply(K2, full, out=S3)
            np.add(X, S3, out=S3)
            accel(3, jh + 1)
            # X += (dt/6) (((K0 + 2 K1) + 2 K2) + K3): a reduction over the
            # outer stage axis adds whole rows in index order
            np.multiply(K12, two, out=K12)
            np.add.reduce(K, axis=0, out=Ksum)
            np.multiply(Ksum, sixth, out=Ksum)
            np.add(X, Ksum, out=X)
            if k == 0 and clamp is not None:
                clamp()
            # both rows, so a NaN velocity from the last stage counts at this
            # step; not (max <= limit): a NaN state is a blow-up too.  The
            # sum of squares is at least the largest square in any order, so
            # below the limit's square it clears the state in one call
            if not np.dot(Xf, Xf) < _LIMIT_SQ and not (
                    np.maximum.reduce(np.abs(X, out=S1), axis=None) <= BLOWUP_LIMIT):
                return -(k + 1)
            if out_v is not None and (done + k + 1) % store_every == 0:
                out_v[status] = X[0]
                out_vd[status] = X[1]
                status += 1
        return status


class _Dirichlet(RK4):
    """``RK4`` on n1 grid nodes whose end values stay 0: their
    accelerations are 0, and the clamp sets the ends of the state to 0
    after a run's first step (the first step's stages see the ends as
    given, as the reference stepper's do)."""

    def __init__(self, n1, dt):
        super().__init__(n1, dt)
        self.stages[:, 2, ::n1 - 1] = 0.0
        edges = self.state[:, ::n1 - 1]
        self.clamp = lambda: edges.fill(0.0)


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

        def accel(s, j):
            # acc = d/dy(B v_y) - a v_y + 2 b vd_y + g, each term rounded in
            # the order of the reference stepper in tests/test_kernels.py.
            # Without a, acc - (+-0) = acc is skipped: only a -0 flux term
            # and a -0 b term end -0 here where the full step gives +0
            vr, vl, xr, xl, acc = views[s]
            np.subtract(vr, vl, out=d)
            np.subtract(xr, xl, out=c)
            np.multiply(w, rows[j], out=w)
            np.subtract(dr, dl, out=acc)
            np.multiply(acc, inv_h2, out=acc)
            np.multiply(c, scale, out=c)
            if a is not None:
                np.subtract(acc, c0, out=acc)
            np.add(acc, c1, out=acc)
            if g is not None:
                np.add(acc, g[j], out=acc)

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

        def accel(s, j):
            vr, vl, acc = views[s]
            np.subtract(vr, vl, out=d)
            np.subtract(dr, dl, out=acc)
            np.multiply(acc, inv_h2, out=acc)

        self.accel = accel


def backend_name():
    """The stepper's implementation, recorded in manifests and run records."""
    return "numpy"
