import dataclasses

import numpy as np
import pytest

from debondwave.characteristics import (CharScenario, dalembert_fixed, front_ode_exact,
                                        one_sided_derivative)
from debondwave.errors import CompatibilityViolated, NonPositiveToughness
from debondwave.expressions import Const, Poly, SineMode, SpaceTimeField
from debondwave import griffith, kernels
from debondwave.fd import Rows, solve_fd
from debondwave.griffith import (
    CoupledNumerics,
    Verdict,
    compatibility_check,
    evolve_coupled_1d,
    evolve_coupled_radial,
    flow_rule,
    flow_rule_fixed_point,
    griffith_check,
    mdp_oracle,
)
from debondwave.motion import identity_motion
from debondwave.domains import Interval
from debondwave.transform import PulledBackProblem
from debondwave.verify import constant_data_scenario

SQ2 = np.sqrt(2.0)


# --- flow rule --------------------------------------------------------------


def test_flow_rule_closed_form():
    assert abs(flow_rule(2.0, 1.0) - SQ2 / 2.0) < 1e-15
    assert flow_rule(1.0, 1.0) == 0.0  # p^2 <= 2 kappa
    with pytest.raises(NonPositiveToughness):
        flow_rule(1.0, 0.0)


def test_flow_rule_rounds_as_numpy_sqrt():
    # math.sqrt and np.sqrt are both correctly rounded: the same bits as
    # float(np.sqrt(..)), on a seeded draw and at the switch p^2 = 2 kappa
    def numpy_rule(p, kappa):
        p2 = p * p
        return float(np.sqrt(1.0 - 2.0 * kappa / p2)) if p2 > 2.0 * kappa else 0.0

    rng = np.random.default_rng(26)
    pairs = [(p, k) for p, k in zip(rng.uniform(-6.0, 6.0, 2000), rng.uniform(0.01, 9.0, 2000))]
    for p in rng.uniform(0.1, 6.0, 200):
        p = float(p)
        switch = 0.5 * (p * p)  # 2 kappa == p^2 exactly
        pairs += [(p, switch), (-p, switch), (p, np.nextafter(switch, 0.0))]
    for p, k in pairs:
        got = flow_rule(float(p), float(k))
        assert type(got) is float and got.hex() == numpy_rule(float(p), float(k)).hex()


def test_front_trace_float_path_matches_array_path():
    # the coupled loop hands the three front samples as a list of floats
    v = np.random.default_rng(4).standard_normal(64)
    for window, side in ((slice(-3, None), "right"), (slice(0, 3), "left")):
        for h in (1.0 / 64, 0.5 / 1024, 0.37):
            got = one_sided_derivative(v[window].tolist(), h, side)
            want = one_sided_derivative(v[window], h, side)
            assert type(got) is float and got.hex() == float(want).hex()


def test_flow_rule_quotient_form():
    # [p - u_dot] = 2 + sqrt2 with kappa = 1 gives the same speed
    assert abs(flow_rule(2.0 + SQ2, 1.0, udot=0.0) - SQ2 / 2.0) < 1e-12
    assert abs(flow_rule_fixed_point(2.0, 1.0) - SQ2 / 2.0) < 1e-10


def test_mdp_oracle_examples():
    assert abs(mdp_oracle(2.0, 1.0) - SQ2 / 2.0) < 1e-4
    assert mdp_oracle(1.0, 1.0) == 0.0
    assert mdp_oracle(2.0, 1.0e6) == 0.0


def test_three_forms_agree_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = rng.uniform(0.0, 5.0)
        k = rng.uniform(0.1, 5.0)
        a = flow_rule(p, k)
        b = flow_rule_fixed_point(p, k)
        m = mdp_oracle(p, k)
        assert abs(a - b) < 1e-10
        assert abs(a - m) < 2e-4


def test_activated_branch_pays_exactly_kappa():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = rng.uniform(0.1, 5.0)
        k = rng.uniform(0.1, 5.0)
        om = flow_rule(p, k)
        if om > 0.0:
            G = 0.5 * (1.0 - om * om) * p * p
            assert abs(G - k) < 1e-12


def test_compatibility_check():
    assert compatibility_check(1.0, 0.0, 1.0) is Verdict.SUBCRITICAL_REST
    assert compatibility_check(-np.sqrt(3.0), 1.0, 1.0) is Verdict.ACTIVATED_START
    assert compatibility_check(2.0, 1.0, 1.0) is Verdict.INCOMPATIBLE
    assert compatibility_check(2.0, 0.0, 1.0) is Verdict.INCOMPATIBLE


def test_griffith_check_flags_violations():
    ts = np.linspace(0.0, 1.0, 5)
    speed = np.full(5, 0.5)
    kappa = np.ones(5)
    p_ok = np.sqrt(2.0 * kappa / (1.0 - speed ** 2))
    assert griffith_check(ts, speed, p_ok, kappa).ok()
    p_bad = 0.5 * p_ok  # activated with G far below kappa
    assert not griffith_check(ts, speed, p_bad, kappa).ok()


# --- coupled 1d --------------------------------------------------------------


def constant_scenario(T):
    return CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2),
                        kappa=Const(1.0), horizon=T)


def _stored_fronts(run):
    """The front positions at a run's stored steps, those of run.traj.times."""
    return run.front.position[np.isin(run.front.times, run.traj.times)]


def test_coupled_constant_data_tracks_exact_speed():
    T = 0.8 * (2.0 + SQ2)
    run = evolve_coupled_1d(constant_scenario(T), CoupledNumerics(n=512, store_every=16))
    assert np.max(np.abs(run.front.speed - SQ2 / 2.0)) < 1e-3
    exact = front_ode_exact(constant_scenario(5.0), dt=1e-3)
    for t in (0.5, 1.5, 2.5):
        got = np.interp(t, run.front.times, run.front.position)
        assert abs(got - float(np.interp(t, exact.times, exact.position))) < 2e-3


def test_coupled_forced_front_converges_to_exact():
    # the exact front ODE subtracts the forcing's integral along the backward
    # characteristic; the Euler front advance makes the forced run first order
    sc = CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2), kappa=Const(1.0),
                      horizon=1.5, forcing=SpaceTimeField(Const(0.5)))
    exact = front_ode_exact(sc, dt=1e-3)
    errs = []
    for n in (512, 1024):
        run = evolve_coupled_1d(sc, CoupledNumerics(n=n, store_every=16))
        errs.append(max(abs(p - float(np.interp(t, exact.times, exact.position)))
                        for t, p in zip(run.front.times, run.front.position)))
    assert errs[1] <= 2e-5  # 1.07e-5 measured; 2.14e-5 at n = 512
    assert errs[0] / errs[1] >= 1.8


def test_coupled_front_monotone_and_subsonic():
    T = 0.8 * (2.0 + SQ2)
    run = evolve_coupled_1d(constant_scenario(T), CoupledNumerics(n=256, store_every=16))
    assert np.all(np.diff(run.front.position) >= 0.0)
    assert np.all((run.front.speed >= 0.0) & (run.front.speed < 1.0))
    assert run.report.ok()
    # C^{2,1} surrogate: bounded discrete second differences of the front
    dt = np.diff(run.front.times)
    dd = np.diff(run.front.position, 2) / (dt[:-1] * dt[1:])
    assert np.isfinite(float(np.max(np.abs(dd))))


def test_coupled_energy_balance_with_toughness():
    T = 0.8 * (2.0 + SQ2)
    run = evolve_coupled_1d(constant_scenario(T), CoupledNumerics(n=1024, store_every=16))
    assert np.max(run.ledger.residual_moving) < 1e-2


def test_coupled_subcritical_rest_reduces_to_fixed_solve():
    # compatible sine data, |u0'(1)| = 0.4 pi < sqrt(2): the front never moves
    u0 = SineMode(0.4, 1).bound(1.0)
    sc = CharScenario(l0=1.0, u0=u0, u1=Const(0.0), kappa=Const(1.0), horizon=1.2)
    dt = 1.2 / 768
    run = evolve_coupled_1d(sc, CoupledNumerics(n=256, cfl=0.4, store_every=8), reader=Rows())
    assert run.meta["dt"] == dt
    assert np.max(run.front.speed) == 0.0
    assert np.max(run.front.position) == 1.0
    # identical arithmetic to the fixed-domain stepper at the same dt
    pb = PulledBackProblem(identity_motion(Interval(1.0), 1.2))
    ref = solve_fd(pb, 1.0, 256, lambda y: u0(y), lambda y: 0.0 * np.asarray(y),
                   dt=dt, T=1.2, store_every=8)
    assert np.max(np.abs(run.traj.values[-1] - ref.values[-1])) < 1e-10


def test_coupled_boundary_kinematic_identity():
    # |u_dot + omega du/dnu| at the moving front, with u_dot reconstructed
    # independently by time differences of u at a fixed physical point
    T = 0.8 * (2.0 + SQ2)
    run = evolve_coupled_1d(constant_scenario(T), CoupledNumerics(n=512, store_every=4),
                            reader=Rows())
    traj = run.traj
    fronts = _stored_fronts(run)
    h = traj.x[1] - traj.x[0]
    worst = 0.0
    for i in range(4, len(traj.times) - 4, 40):
        t = traj.times[i]
        ell = fronts[i]
        om = np.interp(t, run.front.times, run.front.speed)
        p = np.interp(t, run.front.times, run.front.trace)
        xbar = 0.99 * ell  # fixed physical probe just inside the front
        us = []
        for j in (i - 1, i + 1):
            y = xbar / fronts[j]  # reference coordinate of xbar at time j
            us.append(float(np.interp(y, traj.x, traj.values[j])))
        dt = traj.times[i + 1] - traj.times[i - 1]
        ud = (us[1] - us[0]) / dt
        worst = max(worst, abs(ud + om * p))
    assert worst <= max(5e-3, 10 * h)


# --- coupled radial ------------------------------------------------------------


def radial_data(scale=1.0):
    u0 = Poly(*(scale * c for c in (-48.0, 80.0, -44.0, 8.0)))
    c = (1 - 12 * 2.25 - 16 * 3.375, 12 * 3 + 16 * 6.75, -12 - 16 * 4.5, 16.0)
    u1 = Poly(*(scale * SQ2 * ci for ci in c))
    return u0, u1


def test_radial_supercritical_run():
    u0, u1 = radial_data()
    run = evolve_coupled_radial(2.0, 0.5, u0, u1, Const(1.0), horizon=0.4,
                                numerics=CoupledNumerics(n=384, taper=0.0))
    assert np.all(np.diff(run.front.position) >= 0.0)
    assert np.all((run.front.speed >= 0.0) & (run.front.speed < 1.0))
    assert run.report.ok()
    assert np.max(run.ledger.residual_moving) < 1e-2
    assert run.front.position[-1] > 0.5  # it actually debonds


def test_radial_subcritical_stays_put():
    u0, u1 = radial_data(scale=0.25)
    # u1 = 0 and |du0/dnu| = 0.5 < sqrt(2 kappa): resting start
    run = evolve_coupled_radial(2.0, 0.5, u0, Const(0.0), Const(1.0), horizon=0.3,
                                numerics=CoupledNumerics(n=256, taper=0.0))
    assert np.max(run.front.speed) == 0.0
    assert np.max(run.front.position) == 0.5


def test_radial_incompatible_data_rejected():
    u0, _ = radial_data()
    with pytest.raises(CompatibilityViolated):
        evolve_coupled_radial(2.0, 0.5, u0, Const(1.0), Const(1.0), horizon=0.2,
                              numerics=CoupledNumerics(n=128, taper=0.0))


def test_radial_solver_reproduces_manufactured_solution():
    # U(t,r) = cos(t) phi(r) with forcing f = -cos(t)(phi + phi'' + phi'/r)
    # validates the radial reduction (including the 1/r drift term) directly;
    # subcritical amplitude keeps the front at rest
    phi = Poly(*(0.5 * c for c in (-48.0, 80.0, -44.0, 8.0)))

    def forcing(t, r):
        r = np.asarray(r, dtype=float)
        return -np.cos(t) * (phi(r) + phi.deriv2(r) + phi.deriv(r) / r)

    run = evolve_coupled_radial(2.0, 0.5, phi, Const(0.0), Const(1.0), horizon=0.5,
                                numerics=CoupledNumerics(n=256, taper=0.0),
                                forcing=forcing, reader=Rows())
    assert np.max(run.front.speed) == 0.0
    i = len(run.traj.times) - 1
    exact = np.cos(run.traj.times[i]) * phi(run.traj.x)
    assert np.max(np.abs(run.traj.values[i] - exact)) < 1e-5


# --- bit-for-bit pins of the coupled solvers --------------------------------
# Any change in the rounding of the coefficient fill or of the RK4 step moves
# these reprs; near t = 0.31 the radial run sits on the switch p^2 = 2 kappa,
# where one ulp of PDE velocity per step moves the front speed by about 0.085.
# The final trace p also sees the PDE after the radial front has stopped.


def _front_pins(run):
    f = run.front
    i = int(np.argmin(np.abs(f.times - 0.31)))
    return (repr(float(f.position[-1])), repr(float(f.speed[i])),
            int(np.count_nonzero(run.report.activation)), repr(float(f.trace[-1])))


def test_radial_supercritical_run_is_bit_for_bit():
    u0, u1 = radial_data()
    run = evolve_coupled_radial(2.0, 0.5, u0, u1, Const(1.0), horizon=0.4,
                                numerics=CoupledNumerics(n=128, taper=0.0))
    assert _front_pins(run) == ("0.6626877278081944", "0.038674767591575586", 181,
                                 "-0.4275448696952554")


class _CountingZero:
    """A forcing whose is_zero() holds, counting its evaluations."""

    calls = 0

    def is_zero(self):
        return True

    def __call__(self, t, x):
        self.calls += 1
        return 0.0 * np.asarray(x, dtype=float)


def test_a_zero_forcing_is_never_evaluated():
    # a zero forcing is no forcing: the runs keep the unforced bits
    f = _CountingZero()
    plain = constant_scenario(0.5)
    sc = dataclasses.replace(plain, forcing=f)
    assert _front_pins(evolve_coupled_1d(sc, CoupledNumerics(n=64))) == _front_pins(
        evolve_coupled_1d(plain, CoupledNumerics(n=64)))
    u0, u1 = radial_data()
    radial = [evolve_coupled_radial(2.0, 0.5, u0, u1, Const(1.0), horizon=0.2,
                                    numerics=CoupledNumerics(n=64, taper=0.0), forcing=g)
              for g in (f, None)]
    assert _front_pins(radial[0]) == _front_pins(radial[1])
    assert np.array_equal(front_ode_exact(sc).position, front_ode_exact(plain).position)
    u0 = SineMode(1.0, 1).bound(1.0)
    assert dalembert_fixed(1.0, u0, Const(0.0), f, 0.3, 0.7) == dalembert_fixed(
        1.0, u0, Const(0.0), None, 0.3, 0.7)
    assert f.calls == 0


def test_coupled_1d_run_is_bit_for_bit():
    run = evolve_coupled_1d(constant_scenario(0.5), CoupledNumerics(n=64))
    assert _front_pins(run) == ("1.3535533905932793", "0.7071067811865445", 73,
                                 "-1.9999999999999931")


# --- the coupled coefficient fill against the per-slot formulas --------------


def _ref_interval_fill(geo, ells, om, acc):
    # per slot: B = (L^2 - (om ym)^2) / ell^2 and a, b = (-acc y, om y) / ell
    B, a, b = [], [], []
    for ell in ells:
        q = np.subtract(geo.L * geo.L, np.square(np.multiply(geo.ym, om)))
        B.append(np.divide(q, ell * ell))
        a.append(np.divide(np.multiply(geo.y, -acc), ell))
        b.append(np.divide(np.multiply(geo.y, om), ell))
    return B, a, b


def _ref_annulus_fill(geo, rhos, om, acc):
    # per slot, s = rho / L: B = 1/s^2 - (om (R - ym) / (L s))^2, a and b the
    # drifts (acc, -om) (R - y) / (L s), and a -= 1 / ((R - s (R - y)) s)
    B, a, b = [], [], []
    for rho in rhos:
        s = rho / geo.L
        B.append(np.subtract(1.0 / s ** 2, np.square(np.divide(np.multiply(geo.Rym, om / geo.L), s))))
        b.append(np.divide(np.multiply(geo.nRy, om / geo.L), rho / geo.L))
        ai = np.divide(np.multiply(geo.nRy, -acc / geo.L), rho / geo.L)
        P = np.divide(1.0, np.multiply(np.subtract(geo.R, np.multiply(s, geo.Ry)), s))
        a.append(np.subtract(ai, P))
    return B, a, b


@pytest.mark.parametrize("om, acc", [(0.4, 0.0), (0.4, -2.5), (0.0, 1.5)],
                         ids=["acc=0", "acc<0", "om=0"])
@pytest.mark.parametrize("geometry", ["interval", "annulus"])
def test_coupled_fill_matches_the_per_slot_formulas(geometry, om, acc):
    n = 64
    num = CoupledNumerics(n=n)
    if geometry == "interval":
        geo, ref, pos = griffith._Interval(constant_scenario(1.0), num), _ref_interval_fill, 1.3
    else:
        u0, u1 = radial_data()
        geo, ref, pos = griffith._Annulus(2.0, 0.5, u0, u1, Const(1.0), num), _ref_annulus_fill, 0.7
    fronts = pos + om * kernels.half_steps(1, 0.01)[:, None, None]
    B, a, b = kernels.coefficient_rows(3, n)
    geo.fill(B, kernels.Stepper(1.0 / n, 0.01, B, a, b).ab, fronts, om, acc)
    want = ref(geo, fronts.ravel().tolist(), om, acc)
    for got, rows, inner in ((B, want[0], slice(None)), (a, want[1], slice(1, -1)),
                             (b, want[2], slice(1, -1))):
        for j in range(3):
            assert np.array_equal(got[j], rows[j][inner])
            assert np.array_equal(np.signbit(got[j]), np.signbit(rows[j][inner]))


# --- the coupled ledger's row blocks against the per-row formulas ------------


def _per_row_ledger(geo, traj, front, forcing):
    """(kinetic, potential, work, debond) of a coupled run one stored row at
    a time, with the front positions at the stored steps: the ledger's
    formulas before its row blocks, the debonded part as a column of one
    front, the speeds np.gradient's over the whole run."""
    y, times = traj.x, traj.times
    h = y[1] - y[0]
    w = np.full(len(y), h)
    w[0] = w[-1] = 0.5 * h
    speeds = np.gradient(front, times)
    kinetic, potential, rate, debond = np.zeros((4, len(times)))
    for i, pos in enumerate(front):
        vy = np.gradient(traj.values[i], h, edge_order=2)
        ud = traj.velocities[i] - geo.drift(pos, speeds[i]) * vy
        ur = geo.grad(vy, pos)
        vol, scale = geo.volume(pos)
        kinetic[i] = 0.5 * np.sum(w * ud * ud * vol) * scale
        potential[i] = 0.5 * np.sum(w * ur * ur * vol) * scale
        f = np.asarray(forcing(times[i], geo.nodes(pos)))
        rate[i] = np.sum(w * f * ud * vol) * scale
        debond[i] = geo.debond(np.array([[pos]]))[0, 0]
    work = np.zeros(len(times))
    work[1:] = np.cumsum(0.5 * np.diff(times) * (rate[:-1] + rate[1:]))
    return kinetic, potential, work, debond


@pytest.mark.parametrize("case", ["1d", "1d-quadrature", "radial", "radial-short-gap",
                                  "1d-two-rows"])
def test_coupled_ledger_blocks_keep_the_per_row_bits(case):
    # forced runs at n = 128 (blocks of 16 rows): 108 stored rows in 1d,
    # 115 on the annulus, so each ends with a shorter block; the short-gap
    # run stores every 5th of 228 steps (47 rows, the last gap 3 steps), and
    # the two-row run only its first and last steps
    forcing = SpaceTimeField(Const(0.5))
    if case.startswith("radial"):
        u0, u1 = radial_data()
        num = CoupledNumerics(n=128, taper=0.0, store_every=5 if "gap" in case else 2)
        run = evolve_coupled_radial(2.0, 0.5, u0, u1, Const(1.0), horizon=0.4,
                                    numerics=num, forcing=forcing, reader=Rows())
        geo = griffith._Annulus(2.0, 0.5, u0, u1, Const(1.0), num)
    else:
        # the quadrature case takes debond()'s Gauss rule, kappa(1) = 1 as before
        kappa = (lambda x: 0.5 + 0.5 * np.asarray(x)) if case == "1d-quadrature" else Const(1.0)
        sc = CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2), kappa=kappa,
                          horizon=1.5, forcing=forcing)
        num = CoupledNumerics(n=128, store_every=10 ** 6 if case == "1d-two-rows" else 4)
        run = evolve_coupled_1d(sc, num, reader=Rows())
        geo = griffith._Interval(sc, num)
    nt, nsteps = len(run.traj.times), len(run.front.times) - 1
    assert np.max(run.front.speed) > 0.0
    if case == "1d-two-rows":
        assert nt == 2
    elif case == "radial-short-gap":
        assert nsteps % num.store_every and len(set(np.diff(run.traj.times))) > 1
    else:
        assert nt % 16
    want = _per_row_ledger(geo, run.traj, _stored_fronts(run), forcing)
    led = run.ledger
    for got, ref in zip((led.kinetic, led.potential, led.work, led.debond_dissipation), want):
        assert np.array_equal(got, ref)
    E = want[0] + want[1] - want[2]
    assert np.array_equal(led.residual_moving, np.abs(E + want[3] - E[0]))


@pytest.mark.parametrize("geometry", ["interval", "annulus"])
def test_coupled_run_stores_no_trajectory_without_a_reader(geometry):
    def go(reader=None):
        if geometry == "interval":
            return evolve_coupled_1d(constant_scenario(0.5), CoupledNumerics(n=64),
                                     reader=reader)
        u0, u1 = radial_data()
        return evolve_coupled_radial(2.0, 0.5, u0, u1, Const(1.0), horizon=0.2,
                                     numerics=CoupledNumerics(n=64, taper=0.0), reader=reader)

    bare, kept = go(), go(Rows())
    assert bare.traj is None and np.array_equal(kept.traj.times, kept.ledger.times)
    for name in ("times", "position", "speed", "trace", "kappa"):
        assert np.array_equal(getattr(bare.front, name), getattr(kept.front, name))
    for name in ("times", "kinetic", "potential", "work", "debond_dissipation",
                 "residual_moving"):
        assert np.array_equal(getattr(bare.ledger, name), getattr(kept.ledger, name))


def test_coupled_ledger_with_two_stored_rows():
    # every coupled run stores its first and last steps; with only those the
    # front speed is the difference quotient between them, not 0
    sc = constant_data_scenario(0.2)
    every = evolve_coupled_1d(sc, CoupledNumerics(n=256, store_every=8)).ledger
    two = evolve_coupled_1d(sc, CoupledNumerics(n=256, store_every=1000)).ledger
    assert len(two.times) == 2
    assert abs(two.kinetic[0] - every.kinetic[0]) <= 1e-9 * abs(every.kinetic[0])
    assert two.residual_moving.max() < 1e-2
