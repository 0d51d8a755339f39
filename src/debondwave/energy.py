r"""Energy functionals, balances and the dynamic energy release rate.

Quantities tracked per stored time on the moving domain:

    kinetic   = 1/2 ||u_dot||^2_{L2(Omega_t)}
    potential = 1/2 ||grad u||^2_{L2(Omega_t)}
    work      = int_0^t <f, u_dot>
    boundary_dissipation = int_0^t int_{bdry} (omega/2)(1 - omega^2) (du/dnu)^2
    debond_dissipation   = int_0^t int_{bdry} omega kappa  ( = int_{Omega_t \ Omega_0} kappa )

Spatial integrals are pulled back to the reference domain with weight
det DPhi; boundary integrals use the per-face parametrization, never a
space-time mesh.  The 1d ledgers read the closed-form stretch
Phi = lam(t) y (det DPhi = lam, DPsi = 1/lam, the moving end at lam L with
normal speed lam' L) and form their integrands a block of stored times at
a time, so their transient memory does not grow with the step count:
``ledger_transformed`` from a stored trajectory, ``GridLedger`` from the
rows of a grid run as ``fd.solve_fd`` makes them, storing none.
Normal derivatives at the boundary come from one-sided stencils.  Time
accumulation uses the forward rectangle rule, matching the first-order
convergence the moving balance exhibits; the fixed-domain remainder uses
trapezoid.

The release-rate density is G_alpha = (1 - alpha^2) p^2 / 2 with the
equivalent form (1-omega)/(1+omega) [p - u_dot]^2 / 2 cross-checked
whenever the pair (p, u_dot) is kinematically consistent.
"""

from dataclasses import dataclass, field

import numpy as np

from .characteristics import one_sided_derivative
from .errors import SupersonicSpeed
from .galerkin import gauss_legendre_panels, grid_sampler
from .motion import boundary_kinematics


@dataclass
class EnergyLedger:
    times: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    work: np.ndarray
    boundary_dissipation: np.ndarray = None
    debond_dissipation: np.ndarray = None
    residual_moving: np.ndarray = None
    residual_fixed: np.ndarray = None
    G_total: np.ndarray = None
    meta: dict = field(default_factory=dict)


def _accumulate(times, rates, rule):
    """Cumulative time integral of a sampled rate."""
    out = np.zeros_like(rates)
    dt = np.diff(times)
    if rule == "rect":
        out[1:] = np.cumsum(dt * rates[:-1])
    elif rule == "trap":
        out[1:] = np.cumsum(0.5 * dt * (rates[:-1] + rates[1:]))
    else:
        raise ValueError("rule must be 'rect' or 'trap'")
    return out


def _quadrature(L, modes=0):
    """Gauss-Legendre nodes and weights on (0, L): max(16, modes) panels of 10."""
    return gauss_legendre_panels(L, max(16, modes), 10)


# quadrature values in one row block of the ledgers.  Blocks start at
# multiples of 16 rows and none is a single row, so at one BLAS thread each
# block's matrix-vector products round every row as those of the whole
# array do: OpenBLAS treats the rows past a multiple of 4 apart, and a
# single row takes another path.
_BLOCK_VALUES = 1 << 15


def _row_blocks(nt, nq):
    rows = max(16, _BLOCK_VALUES // nq // 16 * 16)
    ends = list(range(rows, nt, rows))
    if ends and nt - ends[-1] == 1:
        ends.pop()
    return [slice(a, b) for a, b in zip([0] + ends, ends + [nt])]


class _Ledger:
    """The 1d ledger of a transformed run, fed one ``_row_blocks`` block of
    stored times at a time by ``add`` once ``open`` has set the times.

    det DPhi = lam, DPsi = 1/lam and Psi_dot(t, Phi) = -(lam'/lam) y; the
    fixed end y = 0 does not move, the moving end sits at lam L with normal
    speed lam' L, and du/dnu there comes from the one-sided stencil on v at
    three samples h apart.  With a problem it keeps the fixed-domain balance
    with remainder, with B, B', a, div b and g in closed form:

    residual(t) = | 1/2||v'||^2 + 1/2<B grad v, grad v> - initial - R(t) |,
    R(t) = int_0^t ( 1/2<B' grad v, grad v> - <a grad v, v'> - <div b, v'^2>
                     + <g, v'> ).
    """

    def __init__(self, fam, forcing=None, kappa=None, problem=None):
        if fam.dim != 1:
            raise ValueError("ledger_transformed is the 1d path")
        self.fam, self.forcing, self.kappa, self.problem = fam, forcing, kappa, problem

    def open(self, times, L, modes, h):
        self.yq, self.wq = _quadrature(L, modes)
        self.blocks = _row_blocks(len(times), len(self.yq))
        self.times, self.L, self.h = times, L, h
        self.lam, self.dlam, _ = self.fam.stretch(times)
        self.rate = self.dlam / self.lam
        (self.kinetic, self.potential, self.work_rate, self.p,
         self.lhs, self.fixed_rate) = (np.zeros(len(times)) for _ in range(6))

    def add(self, s, vd, vy, front):
        """The stored times s: v_dot and v_y at the quadrature nodes, and v
        at the three samples nearest the moving end, one row a time."""
        yq, wq, lam, ts = self.yq, self.wq, self.lam[s], self.times[s]
        ud = vd - vy * np.multiply.outer(self.rate[s], yq)
        gu = vy / lam[:, None]
        self.kinetic[s] = 0.5 * lam * ((ud * ud) @ wq)
        self.potential[s] = 0.5 * lam * ((gu * gu) @ wq)
        if self.forcing is not None:
            f = np.asarray(self.forcing(ts[:, None], np.multiply.outer(lam, yq)), dtype=float)
            self.work_rate[s] = lam * ((f * ud) @ wq)
        # pushed forward by DPsi = 1/lam; the outward normal is +1 at the right end
        self.p[s] = one_sided_derivative(front.T, self.h, "right") / lam
        if self.problem is not None:
            B, a, _, g = self.problem.line(ts, yq)
            Bdot, divb = self.problem.line_rates(ts, yq)
            vy2 = vy * vy
            vd2 = vd * vd
            self.lhs[s] = 0.5 * (vd2 @ wq) + 0.5 * ((B * vy2) @ wq)
            self.fixed_rate[s] = (0.5 * ((Bdot * vy2) @ wq)
                                  - ((a * vy * vd) @ wq)
                                  - ((divb * vd2) @ wq)
                                  + ((g * vd) @ wq))

    def ledger(self):
        times, L = self.times, self.L
        omega = self.dlam * L
        bdry_rate = 0.5 * omega * (1.0 - omega ** 2) * self.p ** 2
        Gtot = np.full(len(times), np.nan)
        growing = omega > 1e-13
        Gtot[growing] = bdry_rate[growing] / omega[growing]
        debond = None
        if self.kappa is not None:
            kx = np.asarray(self.kappa(self.lam * L), dtype=float)
            debond = _accumulate(times, omega * kx, "rect")
        led = EnergyLedger(
            times=times.copy(), kinetic=self.kinetic, potential=self.potential,
            work=_accumulate(times, self.work_rate, "rect"),
            boundary_dissipation=_accumulate(times, bdry_rate, "rect"),
            debond_dissipation=debond, G_total=Gtot,
        )
        led.residual_moving = balance_residual_moving(led)
        if self.problem is not None:
            R = _accumulate(times, self.fixed_rate, "trap")
            led.residual_fixed = np.abs(self.lhs - self.lhs[0] - R)
        return led


def ledger_transformed(traj, fam, forcing=None, kappa=None, problem=None):
    """Energy ledger of a stored transformed-solver trajectory on a 1d family:
    evaluated once at the quadrature nodes, it goes to ``_Ledger`` a block
    of stored times at a time.  The samples near the moving end are the
    last three grid nodes, or points L/(2m) apart for a modal trajectory.
    """
    L = traj.L
    acc = _Ledger(fam, forcing, kappa, problem)
    if traj.kind == "grid":
        acc.open(traj.times, L, 0, traj.x[1] - traj.x[0])
        front = traj.values[:, -3:]
    else:
        acc.open(traj.times, L, traj.basis.m, L / (2.0 * traj.basis.m))
        front = traj.values @ traj.basis.values(L - np.array([2 * acc.h, acc.h, 0.0])).T
        front[:, -1] = 0.0
    vd, vy = traj.eval_all(acc.yq)
    for s in acc.blocks:
        acc.add(s, vd[s], vy[s], front[s])
    return acc.ledger()


class GridLedger(_Ledger):
    """A ``fd.solve_fd`` reader: the run returns ``ledger_transformed`` of
    its grid trajectory, with the same bits, and stores no trajectory.  Each
    stored row is sampled by ``grid_sampler`` as it arrives, into the
    column-major arrays of its ``_row_blocks`` block, and each full block
    goes to ``add``: the reader holds one solver block of rows and one
    ledger block of samples whatever the step count.
    """

    def start(self, times, L, x, meta, v, vd):
        self.open(times, L, 0, x[1] - x[0])
        self.sample = grid_sampler(x, self.yq)
        rows = max(s.stop - s.start for s in self.blocks)
        self.vd, self.vy = (np.empty((rows, len(self.yq)), order="F") for _ in range(2))
        self.front = np.empty((rows, 3))
        self.buf = np.empty((2, 2, len(x)))
        self.buf[0, 1], self.buf[1, 1] = v, vd
        self.b, self.at, self.pending = 0, 0, 1

    def _read(self):
        V, Vd = self.buf[:, 1:self.pending + 1]
        i = 0
        while i < len(V):
            s = self.blocks[self.b]
            r, k = self.at - s.start, min(len(V) - i, s.stop - self.at)
            self.sample(V[i:i + k], Vd[i:i + k], self.vd[r:r + k], self.vy[r:r + k])
            self.front[r:r + k] = V[i:i + k, -3:]
            i, self.at = i + k, self.at + k
            if self.at == s.stop:
                n = s.stop - s.start
                self.add(s, self.vd[:n], self.vy[:n], self.front[:n])
                self.b += 1
        self.pending = 0

    def rows(self, count):
        self._read()
        if len(self.buf[0]) < count + 1:
            self.buf = np.empty((2, count + 1, self.buf.shape[2]))
        self.pending = count
        return self.buf[0, :count + 1], self.buf[1, :count + 1]

    def finish(self):
        self._read()
        return self.ledger()


def balance_residual_moving(led: EnergyLedger):
    """|kinetic + potential + boundary_dissipation - initial - work| per time."""
    e0 = led.kinetic[0] + led.potential[0]
    bd = led.boundary_dissipation if led.boundary_dissipation is not None else 0.0
    return np.abs(led.kinetic + led.potential + bd - e0 - led.work)


# --- release rate ----------------------------------------------------------

RELEASE_FORMS_TOL = 1e-10


def release_rate_density(p, udot=None, alpha=0.0):
    """G_alpha = (1 - alpha^2) p^2 / 2, cross-checked against the
    (1-a)/(1+a) [p - u_dot]^2 / 2 form on kinematically consistent pairs."""
    if not (0.0 <= alpha < 1.0):
        raise SupersonicSpeed(f"front speed {alpha} outside [0, 1)")
    G = 0.5 * (1.0 - alpha * alpha) * p * p
    if udot is not None and abs(udot + alpha * p) <= 1e-8 * (1.0 + abs(p)):
        alt = 0.5 * (1.0 - alpha) / (1.0 + alpha) * (p - udot) ** 2
        if abs(alt - G) > RELEASE_FORMS_TOL * max(1.0, abs(G)):
            raise AssertionError(
                f"release-rate forms disagree: {G} vs {alt} at alpha={alpha}")
    return G


def total_release_rate(omega, p, weights):
    """Boundary-integrated release rate; None when int omega <= 0.

    G(t) = int (omega/2)(1-omega^2) p^2 / int omega, the paper's quotient,
    defined only for growing boundaries.
    """
    omega = np.asarray(omega, dtype=float)
    p = np.asarray(p, dtype=float)
    weights = np.asarray(weights, dtype=float)
    den = float(np.sum(weights * omega))
    if den <= 0.0:
        return None
    num = float(np.sum(weights * 0.5 * omega * (1.0 - omega ** 2) * p ** 2))
    return num / den


# --- measure identity -------------------------------------------------------

_BLOCK_POINTS = 4096


def measure_identity_residual(fam):
    """| |Omega_T| - |Omega_0| - int_0^T int_bdry omega | at the horizon T.

    Simpson's rule on 201 times over the boundary faces at resolution 128.
    The times go to boundary_kinematics in blocks of about _BLOCK_POINTS
    face points, which bounds the memory of one call.
    """
    T = fam.horizon
    ts = np.linspace(0.0, T, 201)
    faces = fam.reference.boundary_faces(128)
    per_block = max(1, _BLOCK_POINTS // sum(len(f.weights) for f in faces))
    flux = np.concatenate([
        sum(np.sum(fk.weights * fk.omega, axis=-1)
            for fk in boundary_kinematics(fam, ts[i:i + per_block], faces=faces))
        for i in range(0, len(ts), per_block)])
    h = ts[1] - ts[0]
    w = np.ones(len(ts))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = h / 3.0 * float(np.sum(w * flux))
    geometric = fam.domain_measure(T) - fam.domain_measure(0.0)
    return abs(geometric - integral)
