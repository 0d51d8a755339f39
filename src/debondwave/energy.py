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
a time, so their transient memory does not grow with the step count.
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
from .galerkin import gauss_legendre_panels
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


def _quadrature(traj):
    """Gauss-Legendre nodes and weights on (0, L): max(16, modes) panels of 10."""
    panels = max(16, (traj.basis.m if traj.kind == "modal" else 16))
    return gauss_legendre_panels(traj.L, panels, 10)


def front_normal_derivative(traj, fam):
    """du/dnu at the moving end of a 1d reference trajectory, per stored time.

    Uses the one-sided stencil on v at the three nearest samples (grid
    nodes, or offsets L/(2m) apart for modal trajectories), then the
    pushforward factor DPsi = 1/lam.
    """
    L = traj.L
    if traj.kind == "grid":
        h = traj.x[1] - traj.x[0]
        v = traj.values[:, -3:]
    else:
        h = L / (2.0 * traj.basis.m)
        v = traj.values @ traj.basis.values(np.array([L - 2 * h, L - h, L])).T
        v[:, -1] = 0.0
    lam, _, _ = fam.stretch(traj.times)
    return one_sided_derivative(v.T, h, "right") / lam  # outward normal +1 at the right end


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


def ledger_transformed(traj, fam, forcing=None, kappa=None, problem=None):
    """Energy ledger for a transformed-solver trajectory on a 1d family.

    det DPhi = lam, DPsi = 1/lam and Psi_dot(t, Phi) = -(lam'/lam) y; the
    fixed end y = 0 does not move, the moving end sits at lam L with normal
    speed lam' L.  The trajectory is evaluated once at the quadrature
    nodes, and the integrands are formed in blocks of stored times.
    """
    if fam.dim != 1:
        raise ValueError("ledger_transformed is the 1d path")
    L = traj.L
    yq, wq = _quadrature(traj)
    times = traj.times
    lam, dlam, _ = fam.stretch(times)
    rate = dlam / lam

    vd, vy = traj.eval_all(yq)
    kinetic, potential, work_rate = (np.zeros(len(times)) for _ in range(3))
    for s in _row_blocks(len(times), len(yq)):
        ud = vd[s] - vy[s] * np.multiply.outer(rate[s], yq)
        gu = vy[s] / lam[s, None]
        kinetic[s] = 0.5 * lam[s] * ((ud * ud) @ wq)
        potential[s] = 0.5 * lam[s] * ((gu * gu) @ wq)
        if forcing is not None:
            f = np.asarray(forcing(times[s, None], np.multiply.outer(lam[s], yq)), dtype=float)
            work_rate[s] = lam[s] * ((f * ud) @ wq)

    omega = dlam * L
    p = front_normal_derivative(traj, fam)
    bdry_rate = 0.5 * omega * (1.0 - omega ** 2) * p ** 2
    Gtot = np.full(len(times), np.nan)
    growing = omega > 1e-13
    Gtot[growing] = bdry_rate[growing] / omega[growing]

    work = _accumulate(times, work_rate, "rect")
    bdry = _accumulate(times, bdry_rate, "rect")
    debond = None
    if kappa is not None:
        kx = np.asarray(kappa(lam * L), dtype=float)
        debond = _accumulate(times, omega * kx, "rect")
    led = EnergyLedger(
        times=times.copy(), kinetic=kinetic, potential=potential, work=work,
        boundary_dissipation=bdry, debond_dissipation=debond, G_total=Gtot,
    )
    led.residual_moving = balance_residual_moving(led)
    if problem is not None:
        led.residual_fixed = _fixed_residual(problem, times, yq, wq, vd, vy)
    return led


def balance_residual_moving(led: EnergyLedger):
    """|kinetic + potential + boundary_dissipation - initial - work| per time."""
    e0 = led.kinetic[0] + led.potential[0]
    bd = led.boundary_dissipation if led.boundary_dissipation is not None else 0.0
    return np.abs(led.kinetic + led.potential + bd - e0 - led.work)


def _fixed_residual(problem, times, yq, wq, vd, vy):
    """Fixed-domain balance with remainder, per stored time, from v_dot and
    v_y at the quadrature nodes:

    residual(t) = | 1/2||v'||^2 + 1/2<B grad v, grad v> - initial - R(t) |,
    R(t) = int_0^t ( 1/2<B' grad v, grad v> - <a grad v, v'> - <div b, v'^2>
                     + <g, v'> ),
    with B, B', a, div b and g in closed form, a block of stored times at once.
    """
    lhs, rate = np.empty(len(times)), np.empty(len(times))
    for s in _row_blocks(len(times), len(yq)):
        B, a, _, g = problem.line(times[s], yq)
        Bdot, divb = problem.line_rates(times[s], yq)
        vys, vds = vy[s], vd[s]
        vy2 = vys * vys
        vd2 = vds * vds
        lhs[s] = 0.5 * (vd2 @ wq) + 0.5 * ((B * vy2) @ wq)
        rate[s] = (0.5 * ((Bdot * vy2) @ wq)
                   - ((a * vys * vds) @ wq)
                   - ((divb * vd2) @ wq)
                   + ((g * vds) @ wq))
    R = _accumulate(times, rate, "trap")
    return np.abs(lhs - lhs[0] - R)


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
