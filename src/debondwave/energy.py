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
a time (about ``_BLOCK_VALUES`` = 2^13 quadrature values, 48 rows of a grid
ledger), so their transient memory does not grow with the step count:
``Ledger`` reads the rows of a run as its solver makes them, storing
none, and ``ledger_transformed`` a stored trajectory.  The fixed balance
of a block reads the stretch rates once and forms each of its terms in
one work array of the block's shape, besides the squared samples.
Normal derivatives at the boundary come from one-sided stencils.  Time
accumulation uses the forward rectangle rule, matching the first-order
convergence the moving balance exhibits; the fixed-domain remainder uses
trapezoid.

The ledger's G_total is the boundary dissipation rate over the front
speed, (1 - omega^2) p^2 / 2 at the moving end; the pointwise density
G_alpha = (1 - alpha^2) p^2 / 2 of a front history is
``griffith.griffith_check``'s G.
"""

from dataclasses import dataclass

import numpy as np

from .characteristics import one_sided_derivative
from .galerkin import gauss_legendre_panels, row_blocks, sampler
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
    return gauss_legendre_panels(L, max(16, modes))


# quadrature values in one row block of the ledgers (``galerkin.row_blocks``
# of a multiple of 16 rows).  The block's temporaries are most of a streamed
# grid run's transient memory.
_BLOCK_VALUES = 1 << 13


def _moving_block(forcing, ts, lam, dlam, yq, wq, vd, vy):
    """Kinetic, potential energy and work rate at ts from v_dot, v_y at yq."""
    ud = vd - vy * np.multiply.outer(dlam / lam, yq)
    gu = vy / lam[:, None]
    kinetic = 0.5 * lam * ((ud * ud) @ wq)
    potential = 0.5 * lam * ((gu * gu) @ wq)
    if forcing is None:
        return kinetic, potential, 0.0
    f = np.asarray(forcing(ts[:, None], np.multiply.outer(lam, yq)), dtype=float)
    return kinetic, potential, lam * ((f * ud) @ wq)


def _fixed_block(problem, ts, yq, wq, vd, vy):
    """The fixed balance's energy and rate of R (``Ledger``) at ts, likewise.

    The rates are read once, and each coefficient product is formed in one
    C-ordered work array: B, dB/dt, a and g filled in place, div b as the
    column lam'/lam.  C is the order of the full-array product of a
    coefficient and the samples, F-ordered grid samples too, and the order
    sets how the matvec rounds.  The a term (+-0 when lam'' is 0 over the
    block) and the g term (0 without a forcing) are formed only when they
    can be nonzero, as in ``solve_fd``.
    """
    rates = problem.rates(ts)
    work = np.empty(vd.shape)
    vy2 = vy * vy
    vd2 = vd * vd
    problem._fill(ts, yq, rates, out=(work, None, None, None))
    lhs = 0.5 * (vd2 @ wq) + 0.5 * (np.multiply(work, vy2, out=work) @ wq)
    rate = 0.5 * (np.multiply(problem._fill_dB(yq, rates, work), vy2, out=work) @ wq)
    if np.any(rates[2]):
        problem._fill(ts, yq, rates, out=(None, work, None, None))
        np.multiply(work, vy, out=work)
        rate -= np.multiply(work, vd, out=work) @ wq
    rate -= np.multiply(rates[1][:, None], vd2, out=work) @ wq
    if problem.forcing is not None:
        problem._fill(ts, yq, rates, out=(None, None, None, work))
        rate += np.multiply(work, vd, out=work) @ wq
    return lhs, rate


class Ledger:
    """The 1d ledger of a transformed run, a solver's reader: ``start``
    with the stored times, ``feed`` with the stored rows in order (grid
    values or modal coefficients), and ``finish`` returns the EnergyLedger.
    ``ledger_transformed`` feeds it a stored trajectory in one call.

    Each row is sampled at the quadrature nodes by ``galerkin.sampler`` into
    its ``galerkin.row_blocks`` block, and each full block is summed (by functions,
    whose temporaries go before the next rows are sampled), so the ledger
    holds one block of samples.  The three samples nearest the moving end
    (the last three grid nodes, or points L/(2m) apart) give du/dnu once
    over each fed chunk: a modal product over a block or over one row
    rounds otherwise, so a modal trajectory is fed whole.

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
            raise ValueError("the transformed ledger is the 1d path")
        self.fam, self.forcing, self.kappa, self.problem = fam, forcing, kappa, problem

    def start(self, times, kind, L, x=None, basis=None, meta=None):
        self.yq, self.wq = _quadrature(L, 0 if basis is None else basis.m)
        self.blocks = row_blocks(len(times), max(16, _BLOCK_VALUES // len(self.yq) // 16 * 16))
        order, self.sample = sampler(self.yq, x, basis)
        rows = max(s.stop - s.start for s in self.blocks)
        self.vd, self.vy = (np.empty((rows, len(self.yq)), order=order) for _ in range(2))
        if basis is None:
            self.h, self.ends = x[1] - x[0], None
        else:
            self.h = L / (2.0 * basis.m)
            self.ends = basis.values(L - np.array([2 * self.h, self.h, 0.0])).T
        self.times, self.L, self.b, self.at = times, L, 0, 0
        self.lam, self.dlam, _ = self.fam.stretch(times)
        self.kinetic, self.potential, self.work_rate, self.p = (
            np.zeros(len(times)) for _ in range(4))
        if self.problem is not None:
            self.lhs, self.fixed_rate = np.zeros(len(times)), np.zeros(len(times))

    def feed(self, V, Vd):
        if self.ends is None:
            ends = V[:, -3:]
        else:
            ends = V @ self.ends
            ends[:, -1] = 0.0
        # pushed forward by DPsi = 1/lam; the outward normal is +1 at the right end
        fed = slice(self.at, self.at + len(V))
        self.p[fed] = one_sided_derivative(ends.T, self.h, "right") / self.lam[fed]
        i = 0
        while i < len(V):
            s = self.blocks[self.b]
            r, k = self.at - s.start, min(len(V) - i, s.stop - self.at)
            self.sample(V[i:i + k], Vd[i:i + k], self.vd[r:r + k], self.vy[r:r + k])
            i, self.at = i + k, self.at + k
            if self.at < s.stop:
                break
            self.b += 1
            n = s.stop - s.start
            vd, vy, ts = self.vd[:n], self.vy[:n], self.times[s]
            if self.problem is not None:
                self.lhs[s], self.fixed_rate[s] = _fixed_block(
                    self.problem, ts, self.yq, self.wq, vd, vy)
            self.kinetic[s], self.potential[s], self.work_rate[s] = _moving_block(
                self.forcing, ts, self.lam[s], self.dlam[s], self.yq, self.wq, vd, vy)

    def finish(self):
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
        work = _accumulate(times, self.work_rate, "rect")
        bd = _accumulate(times, bdry_rate, "rect")
        e0 = self.kinetic[0] + self.potential[0]
        led = EnergyLedger(
            times=times.copy(), kinetic=self.kinetic, potential=self.potential, work=work,
            boundary_dissipation=bd, debond_dissipation=debond, G_total=Gtot,
            residual_moving=np.abs(self.kinetic + self.potential + bd - e0 - work),
        )
        if self.problem is not None:
            R = _accumulate(times, self.fixed_rate, "trap")
            led.residual_fixed = np.abs(self.lhs - self.lhs[0] - R)
        return led


def ledger_transformed(traj, fam, forcing=None, kappa=None, problem=None):
    """Energy ledger of a stored transformed-solver trajectory on a 1d
    family: its rows go to a ``Ledger`` in one feed, the calls a grid run
    makes on its reader."""
    led = Ledger(fam, forcing, kappa, problem)
    led.start(traj.times, traj.kind, traj.L, x=traj.x, basis=traj.basis)
    led.feed(traj.values, traj.velocities)
    return led.finish()


# --- measure identity -------------------------------------------------------

_BLOCK_POINTS = 4096


def measure_identity_residual(fam):
    """| |Omega_T| - |Omega_0| - int_0^T int_bdry omega | at the horizon T.

    Simpson's rule on 201 times over the boundary faces at resolution 128.
    The times go to boundary_kinematics in blocks of about _BLOCK_POINTS
    face points, which bounds the memory of one call; each call evaluates
    all faces together, and omega there comes from the family's
    closed-form normal pushforward, so no Jacobian matrix is formed or
    inverted at any face point.  The flux is summed per face, in face
    order.
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
