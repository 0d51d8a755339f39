"""Debonding flow rule and the coupled wave/front evolution.

The front speed comes from the maximum dissipation principle,

    omega = max { alpha in [0,1) : alpha kappa = alpha G_alpha },

equivalently the closed form  omega = sqrt(1 - 2 kappa / p^2)  when
p^2 > 2 kappa (else 0), or the [p - u_dot]^2 quotient form; a brute-force
scan over the alpha grid serves as the independent oracle.

The coupled solvers use explicit staggered splitting: extract the front
trace, apply the flow rule, advance the front by one Euler step, then
advance the transformed PDE on the reference grid with the map rebuilt
from the updated front; one loop serves the interval and the annulus,
which is 2d (the radial reduction of a disc with a hole).  Both check their
front data with ``characteristics.compatibility_check``.
The loop owns one ``kernels.Stepper`` for the whole run: its state is the
solution, each step refills the stepper's three coefficient rows in
place, a and b of all three with one divide, and advances it with one
``Stepper.step`` (no run bookkeeping: the ends stay +0 without a clamp).
The front scalars (trace, flow rule, slot fronts) are Python floats,
with the float64 arithmetic of their array forms.  The energy ledger is summed
in the step loop, one stored row behind (a row's front speed needs the
next stored position), so a run stores no trajectory unless a caller
passes a reader (every 1d solver's contract; ``galerkin.Rows`` builds
the Trajectory).  The 1d exact ODE from the characteristics module is the
oracle for the constant-data scenario.

The radial supercritical run passes near the switch p^2 = 2 kappa at
t = 0.31, so one ulp more PDE velocity per step moves its front speed by
0.085.  Keep the per-element operation order of the coefficient fill and
of the stepping kernel (no matmul, tensordot, einsum or 1/h prescaling).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .characteristics import (
    CharScenario,
    Verdict,
    compatibility_check,
    one_sided_derivative,
)
from .energy import EnergyLedger, _accumulate
from .errors import (
    BlowUp,
    CompatibilityViolated,
    HorizonReached,
    NonPositiveToughness,
    SupersonicStep,
)
from .expressions import Expression
from .galerkin import Trajectory, gauss_legendre_panels


def flow_rule(p, kappa, udot=None):
    """Scalar normal velocity of the front.

    With only the normal derivative p: sqrt(1 - 2 kappa / p^2) on the
    activated branch, 0 otherwise.  With the velocity trace u_dot: the
    quotient form ([p-u_dot]^2 - 2k) / ([p-u_dot]^2 + 2k), clipped at 0.
    Both land in [0, 1).
    """
    if kappa <= 0.0:
        raise NonPositiveToughness(f"kappa = {kappa}")
    if udot is None:
        p2 = p * p
        if p2 > 2.0 * kappa:
            return math.sqrt(1.0 - 2.0 * kappa / p2)
        return 0.0
    q = (p - udot) ** 2
    return max((q - 2.0 * kappa) / (q + 2.0 * kappa), 0.0)


def flow_rule_fixed_point(p, kappa):
    """Quotient form evaluated at the self-consistent trace u_dot = -omega p.

    Damped fixed-point iteration: stops when a step moves omega by less
    than 1e-14, or after 10 000 steps.
    """
    om = 0.0
    for _ in range(10_000):
        nxt = flow_rule(p, kappa, udot=-om * p)
        if abs(nxt - om) < 1e-14:
            return nxt
        om = 0.5 * (om + nxt)
    return om


ORACLE_GRID = 10_000  # cells of the alpha grid of mdp_oracle
GRIFFITH_TOL = 1e-3  # GriffithReport.ok: slack of G <= kappa and alpha (G - kappa) = 0


def mdp_oracle(p, kappa):
    """Brute-force maximum dissipation scan over the alpha grid k / ORACLE_GRID.

    Accepts alpha when |alpha kappa - alpha G_alpha| is within half a
    grid cell of the local slope (the grid-induced slack), and returns
    the largest accepted alpha.  Independent of the closed forms above.
    """
    if kappa <= 0.0:
        raise NonPositiveToughness(f"kappa = {kappa}")
    alpha = np.arange(ORACLE_GRID) / ORACLE_GRID
    h = alpha * kappa - alpha * 0.5 * (1.0 - alpha ** 2) * p * p
    slope = kappa - 0.5 * p * p + 1.5 * alpha ** 2 * p * p
    slack = 0.5 * np.abs(slope) / ORACLE_GRID + 1e-15
    ok = np.abs(h) <= slack
    return float(alpha[ok].max())


@dataclass
class GriffithReport:
    """Pointwise Griffith-criterion audit along a front history."""

    times: np.ndarray
    speed: np.ndarray
    G: np.ndarray
    kappa: np.ndarray
    activation: np.ndarray
    complementarity: np.ndarray

    def ok(self):
        subsonic = np.all((self.speed >= 0.0) & (self.speed < 1.0))
        bounded = np.all(self.G <= self.kappa + GRIFFITH_TOL)
        comp = np.all(np.abs(self.complementarity) <= GRIFFITH_TOL)
        return bool(subsonic and bounded and comp)


def griffith_check(times, speed, p, kappa_vals):
    """Evaluate the three Griffith conditions on a sampled front history."""
    times = np.asarray(times, dtype=float)
    speed = np.asarray(speed, dtype=float)
    p = np.asarray(p, dtype=float)
    kappa_vals = np.asarray(kappa_vals, dtype=float)
    G = 0.5 * (1.0 - speed ** 2) * p ** 2
    comp = speed * (G - kappa_vals)
    return GriffithReport(
        times=times, speed=speed, G=G, kappa=kappa_vals,
        activation=speed > 0.0, complementarity=comp,
    )


# --- coupled evolutions -----------------------------------------------------


@dataclass
class CoupledNumerics:
    n: int = 1024
    cfl: float = 0.45
    store_every: int = 8
    taper: float = 0.35       # fraction of the initial domain regularized at the fixed end


@dataclass
class CoupledRun:
    front: "FrontHistory"
    traj: Trajectory          # reader.finish(), or None without a reader
    ledger: EnergyLedger
    report: GriffithReport
    meta: dict = field(default_factory=dict)


@dataclass
class FrontHistory:
    times: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    trace: np.ndarray         # normal derivative p at the front
    kappa: np.ndarray


def _fixed_end_taper(y, yc, u0_at_0, u1_at_0):
    """C^2 correction (H, theta) enforcing u(t,0) = 0 compatibility.

    Adding H to u0 and theta = H' to both u0' and u1 zeroes the data at
    the fixed end while leaving the right-moving invariant u0' - u1
    untouched everywhere: the correction rides the left-moving wave and
    cannot reach the front before it reflects, i.e. not before T*.
    H is the quintic Hermite with H(0) = -u0(0), H'(0) = -u1(0),
    H''(0) = 0 and a triple zero at yc.
    """
    tau = np.clip(np.asarray(y, dtype=float) / yc, 0.0, 1.0)
    h00 = 1.0 - 10.0 * tau ** 3 + 15.0 * tau ** 4 - 6.0 * tau ** 5
    h10 = tau - 6.0 * tau ** 3 + 8.0 * tau ** 4 - 3.0 * tau ** 5
    d00 = (-30.0 * tau ** 2 + 60.0 * tau ** 3 - 30.0 * tau ** 4) / yc
    d10 = (1.0 - 18.0 * tau ** 2 + 32.0 * tau ** 3 - 15.0 * tau ** 4) / yc
    H = -u0_at_0 * h00 - u1_at_0 * yc * h10
    theta = -u0_at_0 * d00 - u1_at_0 * yc * d10
    inside = tau < 1.0
    return np.where(inside, H, 0.0), np.where(inside, theta, 0.0)


class _Interval:
    """(0, ell(t)) on the reference (0, l0), Phi = (ell / l0) y: the front
    is the right end, and the data are tapered at the fixed end."""

    name = "coupled 1d"
    side, normal = "right", 1.0
    limit = np.inf

    def __init__(self, sc, num):
        self.sc = sc
        self.kappa = sc.kappa
        self.L = l0 = sc.l0
        n = num.n
        self.y = np.linspace(0.0, l0, n + 1)
        self.ym = 0.5 * (self.y[:-1] + self.y[1:])
        self.yc = max(num.taper * l0, 4 * (l0 / n))
        self.yi = self.y[1:-1]
        self._m = np.empty(n)
        self._ab = np.empty((2, n - 1))
        self._col = np.empty((2, 1))     # (-acc, om)
        self._lt2 = np.empty((3, 1))     # the squared fronts
        # debond()'s quadrature, for a kappa without a closed-form integral
        if not isinstance(self.kappa, Expression):
            self._rule = gauss_legendre_panels(1.0, 8)

    def initial_state(self, om):
        sc, y = self.sc, self.y
        H, theta = _fixed_end_taper(y, self.yc, float(sc.u0(0.0)), float(sc.u1(0.0)))
        v0p = np.asarray(sc.u0.deriv(y), dtype=float) + theta
        v = np.asarray(sc.u0(y), dtype=float) + H
        vd = (np.asarray(sc.u1(y), dtype=float) + theta) + (om * y / self.L) * v0p
        return v, vd

    def kappa_at(self, ell):
        return float(self.kappa(ell))

    def grad(self, vy, ell):
        return vy * (self.L / ell)

    def nodes(self, ell):
        return (ell / self.L) * self.y

    def drift(self, ell, om):
        return (self.y * om) / ell

    def fill(self, B, ab, ells, om, acc):
        """B = (L^2 - (om y)^2) / ell^2 at the midpoints and a, b = (-acc y,
        om y) / ell at the inner nodes (ab (3, 2, n-1)), fronts ells (3, 1, 1)."""
        q, col, lt2 = self._m, self._col, self._lt2
        lt = ells[:, 0]
        np.multiply(self.ym, om, q)
        np.square(q, q)
        np.subtract(self.L * self.L, q, q)
        np.multiply(lt, lt, lt2)
        np.divide(q, lt2, B)
        col[0, 0], col[1, 0] = -acc, om
        np.divide(np.multiply(self.yi, col, self._ab), ells, ab)

    def volume(self, ell):
        return 1.0, ell / self.L

    def debond(self, ell):  # a column of fronts
        l0 = self.L
        if isinstance(self.kappa, Expression):
            return self.kappa.integral(l0, ell)
        xq, wq = self._rule
        return (ell - l0) * np.sum(wq * np.asarray(self.kappa(l0 + (ell - l0) * xq)),
                                   axis=1, keepdims=True)


class _Annulus:
    """R - rho(t) < r < R on the reference [R - rho0, R], Phi = R - (rho /
    rho0)(R - y): the front is the inner circle; the 2d radial reduction
    adds the drift -u_r / r and the volume weight 2 pi r."""

    name = "radial coupled"
    side, normal = "left", -1.0

    def __init__(self, R, rho0, u0, u1, kappa, num):
        self.R, self.L = R, rho0
        self.u0, self.u1, self.kappa = u0, u1, kappa
        n = num.n
        self.limit = R - 4 * (rho0 / n)
        self.y = np.linspace(R - rho0, R, n + 1)
        self.Ry = R - self.y
        self.nRy = -self.Ry
        self.Rym = R - 0.5 * (self.y[:-1] + self.y[1:])
        self.Ryi, self.nRyi = self.Ry[1:-1], self.nRy[1:-1]
        self._m = np.empty(n)
        self._ab = np.empty((2, n - 1))
        self._P = np.empty((3, n - 1))
        self._s = np.empty((3, 1, 1))    # the fronts over rho0
        self._inv_s2 = np.empty((3, 1))  # 1 / s^2
        self._col = np.empty((2, 1))     # (-acc, om) / L
        self._rule = gauss_legendre_panels(1.0, 8)  # debond()'s quadrature

    def initial_state(self, om):
        # v_dot(0) = u1 + u0' Phi_dot(0, .), Phi_dot = -(om/rho0)(R - y)
        y = self.y
        v = np.asarray(self.u0(y), dtype=float)
        vd = np.asarray(self.u1(y), dtype=float) - (om / self.L) * self.Ry * np.asarray(
            self.u0.deriv(y), dtype=float)
        return v, vd

    def kappa_at(self, rho):
        return float(self.kappa(self.R - rho))

    def grad(self, vy, rho):
        return vy / (rho / self.L)

    def nodes(self, rho):
        return self.R - (rho / self.L) * self.Ry

    def drift(self, rho, om):
        return (self.nRy * (om / self.L)) / (rho / self.L)

    def fill(self, B, ab, rhos, om, acc):
        """``_Interval.fill`` for the annulus, s = rho / L: B = 1/s^2 - (om (R - ym)
        / (L s))^2, and a, b = (acc, -om) (R - y) / (L s), then a -= 1 / (phi s)."""
        s, inv_s2, col, P = self._s, self._inv_s2, self._col, self._P
        np.divide(rhos, self.L, s)
        st = s[:, 0]
        np.multiply(self.Rym, om / self.L, self._m)
        np.divide(self._m, st, B)
        np.square(B, B)
        # Python pow on the scalars: np.square is x*x and may round otherwise
        inv_s2[:, 0] = [1.0 / x ** 2 for x in s.ravel().tolist()]
        np.subtract(inv_s2, B, B)
        col[0, 0], col[1, 0] = -acc / self.L, om / self.L
        np.divide(np.multiply(self.nRyi, col, self._ab), s, ab)
        # a -= 1 / (phi s), phi = R - s (R - y) the node radii
        np.multiply(st, self.Ryi, P)
        np.subtract(self.R, P, P)
        np.multiply(P, st, P)
        np.divide(1.0, P, P)
        np.subtract(ab[:, 0], P, ab[:, 0])

    def volume(self, rho):
        return 2.0 * np.pi * self.nodes(rho) * (rho / self.L), 1.0

    def debond(self, rho):
        # newly debonded rings R - rho < r < R - rho0, for a column of fronts
        xq, wq = self._rule
        a, b = self.R - rho, self.R - self.L
        rr = a + (b - a) * xq
        return (b - a) * np.sum(wq * np.asarray(self.kappa(rr)) * (2.0 * np.pi) * rr,
                                axis=1, keepdims=True)


def _evolve_coupled(geo, p0, kap0, horizon, num, forcing, verdict, reader):
    """Each step: front trace -> flow rule -> one RK4 step of the PDE with
    the front at l + om (tau - t) -> Euler front advance.

    The run owns one ``kernels.Stepper``: v and vd are views of its state,
    and each step refills its three rows in place, at t + half_steps(1, dt).
    Each stored row goes to the run's ``_CoupledLedger``, and to the reader
    if there is one."""
    n = num.n
    h = geo.L / n
    # reference characteristic speed is at most (1 + omega) l0 / ell <= 2
    nsteps, dt = kernels.cfl_step_count(h, num.cfl, horizon)
    kernels.check_steps(nsteps)
    window = slice(-3, None) if geo.side == "right" else slice(0, 3)

    B, a, b = kernels.coefficient_rows(3, n)
    g = None if forcing is None else np.empty((3, n - 1))
    stepper = kernels.Stepper(h, dt, B, a, b, g)
    slots = kernels.half_steps(1, dt).tolist()
    fronts = np.empty((3, 1, 1))
    front_slots = fronts.reshape(-1)
    v, vd = stepper.state
    om = flow_rule(p0, kap0)
    v[:], vd[:] = geo.initial_state(om)
    v[0] = v[-1] = 0.0
    vd[0] = vd[-1] = 0.0

    # step k ends at k dt + dt, the loop's own arithmetic
    times = np.append(0.0, np.arange(nsteps) * dt + dt)
    position, speed, trace, kappas = np.empty((4, nsteps + 1))
    position[0], speed[0], trace[0], kappas[0] = geo.L, om, p0, kap0
    stored = times[np.append(np.arange(0, nsteps, num.store_every), nsteps)]
    ledger = _CoupledLedger(geo, stored, forcing)
    ledger.feed(v, vd, geo.L)
    if reader is not None:
        reader.start(stored, "grid", geo.L, x=geo.y, meta={"dt": dt, "n": n})
        reader.feed(v[None], vd[None])

    pos = geo.L
    om_prev = om

    for k in range(nsteps):
        t = k * dt
        p = geo.grad(geo.normal * one_sided_derivative(v[window].tolist(), h, geo.side), pos)
        kap = geo.kappa_at(pos)
        om = flow_rule(p, kap)
        if om >= 1.0 - 1e-12:
            raise SupersonicStep(f"flow rule returned {om} at t = {t}")
        acc = (om - om_prev) / dt if k > 0 else 0.0

        front_slots[:] = [pos + om * s for s in slots]
        geo.fill(B, stepper.ab, fronts, om, acc)
        if forcing is not None:
            for j, (s, front) in enumerate(zip(slots, front_slots)):
                g[j] = np.asarray(forcing(t + s, geo.nodes(front)), dtype=float)[1:-1]
        # the ends start at +0 and stay +0 (zero end accelerations), so the
        # first-step clamp of a run would change nothing here
        if not stepper.step(0):
            raise BlowUp(f"{geo.name} run blew up at step {k}")
        pos = pos + dt * om
        om_prev = om
        if pos >= geo.limit:
            raise HorizonReached(f"front reached the outer circle region at t = {t + dt}")

        position[k + 1] = pos
        speed[k + 1] = om
        trace[k + 1] = p
        kappas[k + 1] = kap
        if (k + 1) % num.store_every == 0 or k + 1 == nsteps:
            ledger.feed(v, vd, pos)
            if reader is not None:
                reader.feed(v[None], vd[None])

    front = FrontHistory(times=times, position=position, speed=speed, trace=trace, kappa=kappas)
    report = griffith_check(front.times, front.speed, front.trace, front.kappa)
    return CoupledRun(front=front, traj=None if reader is None else reader.finish(),
                      ledger=ledger.finish(), report=report,
                      meta={"verdict": verdict.value, "dt": dt})


# values in one (rows, n + 1) block of the coupled ledger, rounded up to whole rows
_BLOCK_VALUES = 1 << 11


class _CoupledLedger:
    """Kinetic/potential/work and debonding dissipation along a coupled run,
    summed in the step loop one stored row behind: ``feed`` takes each
    stored row with its front position, and a block of rows is summed once
    the row after it is stored (sums along axis 1 round as per row), so the
    ledger holds one block and one look-ahead row.

    Each row's front speed is np.gradient(stored positions, stored times)
    at that row, which needs the next stored position.  np.gradient picks
    its uniform or non-uniform formula from the whole time array, so the
    step or the coefficients are formed here once from all stored times,
    as np.gradient forms them, with its first-order edge quotients."""

    def __init__(self, geo, times, forcing):
        self.geo, self.times, self.forcing = geo, times, forcing
        y = geo.y
        self.h = y[1] - y[0]
        self.w = np.full(len(y), self.h)
        self.w[0] = self.w[-1] = 0.5 * self.h
        nt = len(times)
        self.front = np.empty(nt)
        self.kinetic, self.potential, self.debond = np.empty((3, nt))
        self.work_rate = np.zeros(nt)
        self.dx = np.diff(times)
        if (self.dx == self.dx[0]).all():
            self.coef = None
        else:
            dx1, dx2 = self.dx[:-1], self.dx[1:]
            self.coef = (-(dx2) / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
                         dx1 / (dx2 * (dx1 + dx2)))
        self.rows = -(-_BLOCK_VALUES // len(y))
        self.V, self.Vd = np.empty((2, self.rows + 1, len(y)))
        self.first = self.fed = 0

    def feed(self, v, vd, pos):
        i = self.fed - self.first
        self.V[i], self.Vd[i] = v, vd
        self.front[self.fed] = pos
        self.fed += 1
        if i == self.rows:
            self._sum(i)
            self.V[0], self.Vd[0] = self.V[i], self.Vd[i]

    def _speeds(self, lo, hi):
        """np.gradient(front, times)[lo:hi], from front[lo - 1:hi + 1]."""
        f, dx, nt = self.front, self.dx, len(self.times)
        out = np.empty(hi - lo)
        a, b = max(lo, 1), min(hi, nt - 1)
        if a < b:
            if self.coef is None:
                out[a - lo:b - lo] = (f[a + 1:b + 1] - f[a - 1:b - 1]) / (2. * dx[0])
            else:
                ca, cb, cc = (c[a - 1:b - 1] for c in self.coef)
                out[a - lo:b - lo] = ca * f[a - 1:b - 1] + cb * f[a:b] + cc * f[a + 1:b + 1]
        if lo == 0:
            out[0] = (f[1] - f[0]) / dx[0]
        if hi == nt:
            out[-1] = (f[nt - 1] - f[nt - 2]) / dx[-1]
        return out

    def _sum(self, rows):
        geo, w = self.geo, self.w
        s = slice(self.first, self.first + rows)
        self.first += rows
        pos = self.front[s, None]
        vy = np.gradient(self.V[:rows], self.h, axis=1, edge_order=2)
        ud = self.Vd[:rows] - geo.drift(pos, self._speeds(s.start, s.stop)[:, None]) * vy
        ur = geo.grad(vy, pos)
        vol, scale = geo.volume(pos)
        self.kinetic[s, None] = 0.5 * np.sum(w * ud * ud * vol, axis=1, keepdims=True) * scale
        self.potential[s, None] = 0.5 * np.sum(w * ur * ur * vol, axis=1, keepdims=True) * scale
        if self.forcing is not None:
            f = np.asarray(self.forcing(self.times[s, None], geo.nodes(pos)))
            self.work_rate[s, None] = np.sum(w * f * ud * vol, axis=1, keepdims=True) * scale
        self.debond[s, None] = geo.debond(pos)

    def finish(self):
        """The EnergyLedger, after the last block (its last row's speed is
        the edge quotient)."""
        self._sum(self.fed - self.first)
        times, kinetic, debond = self.times, self.kinetic, self.debond
        work = _accumulate(times, self.work_rate, "trap")
        led = EnergyLedger(times=times.copy(), kinetic=kinetic, potential=self.potential,
                           work=work, debond_dissipation=debond)
        E = kinetic + self.potential - work
        led.residual_moving = np.abs(E + debond - E[0])
        return led


def evolve_coupled_1d(sc: CharScenario, numerics: CoupledNumerics = None, reader=None):
    """Staggered coupled evolution of the 1d debonding problem.

    Data are regularized near the fixed end x = 0 by a C^2 ramp over the
    first ``taper`` fraction of the domain, enforcing u(t,0) = 0
    compatibility without touching the front's domain of dependence for
    t <= (1 - taper) T*.  The front trace, flow rule, front advance and
    PDE advance alternate explicitly; the map is rebuilt from the updated
    front each step.  With a reader (every 1d solver's start / feed /
    finish), the stored rows also go to it and run.traj is
    reader.finish(); without one, run.traj is None.
    """
    num = numerics or CoupledNumerics()
    p0 = float(sc.u0.deriv(sc.l0))
    kap0 = float(sc.kappa(sc.l0))
    verdict = compatibility_check(p0, float(sc.u1(sc.l0)), kap0)
    if verdict is Verdict.INCOMPATIBLE:
        raise CompatibilityViolated("coupled run requires compatible front data")
    forcing = sc.forcing if sc.forcing is not None and not (
        hasattr(sc.forcing, "is_zero") and sc.forcing.is_zero()) else None
    geo = _Interval(sc, num)
    run = _evolve_coupled(geo, p0, kap0, sc.horizon, num, forcing, verdict, reader)
    run.meta["taper"] = geo.yc
    return run


def evolve_coupled_radial(R, rho0, u0, u1, kappa, horizon,
                          numerics: CoupledNumerics = None, forcing=None, reader=None):
    """Coupled debonding on 2d annuli { R - rho(t) < |x| < R } (radial symmetry).

    The radial reduction adds the drift -u_r / r to the 1d operator;
    the inner circle is the front, the outer one stays fixed.  Data are
    radial profiles of r on [R - rho0, R]; compatibility must hold at the
    inner circle (activated or resting start) and homogeneous conditions
    at the outer one.  ``reader`` as in ``evolve_coupled_1d``.
    """
    num = numerics or CoupledNumerics(taper=0.0)
    p0 = -float(u0.deriv(R - rho0))  # outward normal at the inner circle is -e_r
    kap0 = float(kappa(R - rho0))
    verdict = compatibility_check(p0, float(u1(R - rho0)), kap0)
    if verdict is Verdict.INCOMPATIBLE:
        raise CompatibilityViolated("radial data incompatible at the inner circle")
    geo = _Annulus(R, rho0, u0, u1, kappa, num)
    return _evolve_coupled(geo, p0, kap0, horizon, num, forcing, verdict, reader)
