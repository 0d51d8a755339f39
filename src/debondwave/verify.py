"""Named verification suites with machine-readable pass/fail results.

Suites: identities, transform-equivalence, energy, griffith, coupled-1d,
coupled-radial (and "all").  Each check records the measured value, its
tolerance and the runtime; the CLI prints one line per check and exits
nonzero when anything fails.
"""

import time
from dataclasses import dataclass

import numpy as np

from .characteristics import CharScenario, front_ode_exact
from .cylinder import solve_cylinder
from .domains import Ball, Box, Interval, Tetrahedron
from .energy import Ledger, measure_identity_residual
from .expressions import Affine, Const, Poly
from .fd import solve_fd
from .galerkin import solve_transformed_modal
from .griffith import (
    GRIFFITH_TOL,
    CoupledNumerics,
    evolve_coupled_1d,
    evolve_coupled_radial,
    flow_rule,
    flow_rule_fixed_point,
    mdp_oracle,
)
from .kernels import step_count
from .motion import (
    boundary_kinematics,
    homothetic,
    identity_motion,
    interval_flow,
    one_d_scaling,
    radial_annulus_flow,
    validate,
)
from .transform import PulledBackProblem, ellipticity_constant


@dataclass
class CheckResult:
    suite: str
    name: str
    value: float
    tol: float
    passed: bool
    seconds: float
    note: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return (f"{tag} {self.suite}.{self.name}  value={self.value:.6g}  "
                f"tol={self.tol:.6g}  time={self.seconds:.2f}s{note}")


def _check(suite, name, value, tol, t0, note="", larger_is_better=False):
    ok = value >= tol if larger_is_better else value <= tol
    return CheckResult(suite, name, float(value), float(tol), bool(ok),
                       time.time() - t0, note)


SQ2 = np.sqrt(2.0)


def _builtin_families():
    return {
        "identity": identity_motion(Interval(1.0), 1.0),
        "one_d_scaling": one_d_scaling(Affine(1.0, 0.5), 1.0),
        "homothetic_ball": homothetic(Poly(1.0, 0.2, 0.05), Ball(1.0, 2), 1.0),
        "homothetic_box": homothetic(Affine(1.0, 0.3), Box((1.0, 0.5)), 1.0),
        "homothetic_tetra": homothetic(Affine(1.0, 0.2), Tetrahedron((0.6, 0.8)), 1.0),
        "sublevel_annulus": radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0),
        "sublevel_interval": interval_flow(4.0, Affine(1.0, 0.5), 1.0),
    }


def suite_identities():
    """Criteria 1, 2 and 12: map identities, omega agreement, measure identity.

    Each worst value is an np.maximum, which keeps a NaN where max() drops
    one that comes second, so a NaN reads as NaN and fails its check."""
    out = []
    fams = _builtin_families()
    analytic = ("identity", "one_d_scaling", "homothetic_ball",
                "homothetic_box", "homothetic_tetra")
    t0 = time.time()
    worst_analytic = 0.0
    for name in analytic:
        rep = validate(fams[name], nt=20, npts=20)
        worst_analytic = np.maximum(worst_analytic, rep.max_residual())
    out.append(_check("identities", "jacobian-analytic", worst_analytic,
                      1e-9, t0))
    t0 = time.time()
    worst_flow = 0.0
    for name in ("sublevel_annulus", "sublevel_interval"):
        rep = validate(fams[name], nt=20, npts=20)
        worst_flow = np.maximum(worst_flow, rep.max_residual())
    out.append(_check("identities", "jacobian-sublevel", worst_flow,
                      1e-6, t0))
    out.append(_check("identities", "jacobian-runtime",
                      out[0].seconds + out[1].seconds, 2.0, t0))

    # omega is the tube's own normal speed: l' = 0.5 at the interval's right
    # end, rho' = 0.1 on the annulus's inner circle and 0 on the fixed faces
    t0 = time.time()
    ts = np.linspace(0.0, 1.0, 50)
    moving = {"one_d_scaling": ("right", 0.5), "sublevel_interval": ("right", 0.5),
              "sublevel_annulus": ("inner", 0.1)}
    worst = 0.0
    for name, (face, speed) in moving.items():
        for fk in boundary_kinematics(fams[name], ts, resolution=16):
            want = speed if fk.name == face else 0.0
            worst = np.maximum(worst, np.max(np.abs(fk.omega - want)))
    out.append(_check("identities", "omega-well-defined", worst, 1e-6, t0))

    t0 = time.time()
    worst = 0.0
    for name, fam in fams.items():
        worst = np.maximum(worst, measure_identity_residual(fam))
    out.append(_check("identities", "measure-identity", worst, 1e-6, t0))
    return out


def _criterion4_scenario():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    problem = PulledBackProblem(fam)

    def v0(y):
        return np.sin(np.pi * np.asarray(y, dtype=float))

    def v1(y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def u0(x):
        return np.sin(np.pi * np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def u1(x):
        x = np.asarray(x, dtype=float)
        return -(x / 2.0) * np.pi * np.cos(np.pi * x)

    return fam, problem, v0, v1, u0, u1


def _cross_solver_distances(fam, problem, v0, v1, u0, u1, m, n, parts, dt, inner_n):
    """L2 distances at t = 1 between the three solvers' physical fields.

    The modal and grid runs store only t = 0 and t = 1, the one time read,
    and each trajectory gives its values there alone (``Trajectory.value_at``).
    """
    store = step_count(dt, 1.0)[0]
    modal = solve_transformed_modal(problem, 1.0, v0, v1, m=m, dt=dt, T=1.0, store_every=store)
    grid = solve_fd(problem, 1.0, n, v0, v1, dt=dt, T=1.0, store_every=store)
    cyl = solve_cylinder(fam, u0, u1, partitions=parts, inner_n=inner_n)
    lT = fam.domain_measure(1.0)
    xs = np.linspace(0.0, lT, 3001)[1:-1]
    w = xs[1] - xs[0]
    um = modal.value_at(1.0, xs / lT)
    ug = grid.value_at(1.0, xs / lT)
    uc = cyl.traj.value_at(1.0, xs)

    def l2(a, b):
        return float(np.sqrt(np.sum((a - b) ** 2) * w))

    return {"modal-grid": l2(um, ug), "modal-cylinder": l2(um, uc),
            "grid-cylinder": l2(ug, uc)}


def suite_transform_equivalence():
    """Criteria 3 and 4: ellipticity and cross-solver agreement."""
    out = []
    t0 = time.time()
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    cb = ellipticity_constant(fam, nt=21, npts=41)
    out.append(_check("transform-equivalence", "ellipticity-value",
                      abs(cb - 1.0 / 3.0), 1e-10, t0))
    t0 = time.time()
    worst_cb = np.inf
    for f in _builtin_families().values():
        worst_cb = min(worst_cb, ellipticity_constant(f, nt=11, npts=21))
    out.append(_check("transform-equivalence", "ellipticity-positive", worst_cb,
                      0.0, t0, larger_is_better=True))

    fam, problem, v0, v1, u0, u1 = _criterion4_scenario()
    t0 = time.time()
    base = _cross_solver_distances(fam, problem, v0, v1, u0, u1, 32, 400, 32, 1e-3, 384)
    fine = _cross_solver_distances(fam, problem, v0, v1, u0, u1, 64, 800, 64, 5e-4, 768)
    elapsed = time.time() - t0
    for pair in ("modal-grid", "modal-cylinder", "grid-cylinder"):
        out.append(CheckResult("transform-equivalence", f"cross-{pair}",
                               base[pair], 2e-2,
                               base[pair] <= 2e-2, elapsed,
                               note=f"refined={fine[pair]:.3g}"))
        ratio = base[pair] / fine[pair]
        out.append(_check("transform-equivalence", f"cross-{pair}-ratio", ratio,
                          1.3, t0, larger_is_better=True))
    out.append(_check("transform-equivalence", "cross-runtime", elapsed, 30.0, t0))
    return out


def suite_energy():
    """Criteria 5, 6 and 7: balances and the cylinder energy inequality."""
    out = []
    fam, problem, v0, v1, u0, u1 = _criterion4_scenario()

    # every run hands its rows to the ledger and stores no trajectory
    t0 = time.time()
    r1 = float(solve_fd(problem, 1.0, 400, v0, v1, dt=1e-3, T=1.0,
                        reader=Ledger(fam)).residual_moving.max())
    r2 = float(solve_fd(problem, 1.0, 800, v0, v1, dt=5e-4, T=1.0,
                        reader=Ledger(fam)).residual_moving.max())
    out.append(_check("energy", "moving-balance", r1, 5e-3, t0,
                      note=f"refined={r2:.3g}"))
    ratio = r1 / r2
    ok = 1.3 <= ratio <= 3.0
    out.append(CheckResult("energy", "moving-balance-ratio", ratio, 3.0, ok,
                           time.time() - t0, note="window [1.3, 3]"))

    t0 = time.time()
    rf = float(solve_transformed_modal(problem, 1.0, v0, v1, m=32, dt=1e-3, T=1.0,
                                       reader=Ledger(fam, problem=problem)).residual_fixed.max())
    out.append(_check("energy", "fixed-balance", rf, 1e-3, t0))

    t0 = time.time()
    margins = []
    for parts, inner in ((32, 384), (64, 768)):
        cyl = solve_cylinder(fam, u0, u1, partitions=parts, inner_n=inner)
        margins.append(cyl.energy_margin() / cyl.energies[0])
        del cyl
    out.append(_check("energy", "cylinder-inequality", max(margins),
                      1e-8, t0))
    return out


def suite_griffith():
    """Criterion 8: flow-rule forms and the brute-force oracle agree on a
    fixed draw of 1000 (p, kappa) pairs (seed 0)."""
    out = []
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 5.0)
        k = rng.uniform(0.1, 5.0)
        a = flow_rule(p, k)
        b = flow_rule_fixed_point(p, k)
        m = mdp_oracle(p, k)
        worst = max(worst, abs(a - b), abs(a - m), abs(b - m))
    res = _check("griffith", "equivalence", worst, 2e-4, t0)
    out.append(res)
    out.append(_check("griffith", "equivalence-runtime", res.seconds, 5.0, t0))
    return out


def constant_data_scenario(horizon):
    return CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2),
                        kappa=Const(1.0), horizon=horizon)


def suite_coupled_1d():
    """Criteria 9 and 10: exact front ODE and the staggered coupled solver."""
    out = []
    tstar = 2.0 + SQ2
    T = 0.8 * tstar

    t0 = time.time()
    fc = front_ode_exact(constant_data_scenario(5.0), dt=1e-3)
    err_speed = float(np.max(np.abs(fc.speed - SQ2 / 2.0)))
    err_tstar = abs(fc.tstar - tstar)
    out.append(_check("coupled-1d", "exact-ode-speed", err_speed, 1e-8, t0))
    out.append(_check("coupled-1d", "exact-ode-horizon", err_tstar, 1e-8, t0))

    t0 = time.time()
    run = evolve_coupled_1d(constant_data_scenario(T), CoupledNumerics())
    err = float(np.max(np.abs(run.front.speed - SQ2 / 2.0)))
    out.append(_check("coupled-1d", "staggered-speed", err, 1e-3, t0))
    out.append(_check("coupled-1d", "runtime", time.time() - t0, 30.0, t0))
    t0 = time.time()
    r1 = float(run.ledger.residual_moving.max())
    run2 = evolve_coupled_1d(constant_data_scenario(T), CoupledNumerics(n=2048))
    r2 = float(run2.ledger.residual_moving.max())
    out.append(_check("coupled-1d", "coupled-balance", r1, 1e-2, t0,
                      note=f"refined={r2:.3g}"))
    out.append(_check("coupled-1d", "coupled-balance-refines", r2, r1, t0))
    return out


def radial_test_data():
    """Supercritical radial data for R = 2, rho0 = 0.5: activated at r = 1.5, quiet at 2."""
    u0 = Poly(-48.0, 80.0, -44.0, 8.0)  # 8 (r - 1.5)(r - 2)^2 on [1.5, 2]
    c0 = 1 - 12 * 2.25 - 16 * 3.375
    c1 = 12 * 3 + 16 * 6.75
    c2 = -12 - 16 * 4.5
    c3 = 16.0
    u1 = Poly(SQ2 * c0, SQ2 * c1, SQ2 * c2, SQ2 * c3)
    return u0, u1


def suite_coupled_radial():
    """Criterion 11: supercritical radial run sanity."""
    out = []
    t0 = time.time()
    u0, u1 = radial_test_data()
    run = evolve_coupled_radial(2.0, 0.5, u0, u1, Const(1.0), horizon=0.4,
                                numerics=CoupledNumerics(n=512, taper=0.0))
    drop = float(np.min(np.diff(run.front.position)))
    out.append(_check("coupled-radial", "front-nondecreasing", -drop, 0.0, t0))
    out.append(_check("coupled-radial", "front-subsonic",
                      float(run.front.speed.max()), 1.0 - 1e-12, t0))
    gmax = float(np.max(run.report.G - run.report.kappa))
    cmax = float(np.max(np.abs(run.report.complementarity)))
    out.append(_check("coupled-radial", "griffith-bound", gmax, GRIFFITH_TOL, t0))
    out.append(_check("coupled-radial", "griffith-complementarity", cmax,
                      GRIFFITH_TOL, t0))
    out.append(_check("coupled-radial", "runtime", time.time() - t0, 60.0, t0))
    return out


SUITES = {
    "identities": suite_identities,
    "transform-equivalence": suite_transform_equivalence,
    "energy": suite_energy,
    "griffith": suite_griffith,
    "coupled-1d": suite_coupled_1d,
    "coupled-radial": suite_coupled_radial,
}


def run_suite(name):
    from .errors import UnknownSuite

    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    fn = SUITES.get(name)
    if fn is None:
        raise UnknownSuite(f"unknown suite {name!r}; have {sorted(SUITES)} and 'all'")
    return fn()
