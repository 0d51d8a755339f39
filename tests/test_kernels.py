"""The RK4 driver and the wave stepper on it: bit-for-bit against reference
steppers, blow-up guard; the blocked grid solver against the all-at-once
one."""

import tracemalloc

import numpy as np
import pytest

from debondwave import fd, galerkin, kernels
from debondwave.characteristics import CharScenario
from debondwave.domains import Interval
from debondwave.errors import BlowUp, CflViolation, RunTooLarge
from debondwave.expressions import Affine, Const, Poly
from debondwave.fd import solve_fd
from debondwave.galerkin import Trajectory
from debondwave.griffith import CoupledNumerics, evolve_coupled_1d
from debondwave.motion import identity_motion, interval_flow, one_d_scaling
from debondwave.transform import PulledBackProblem


# --- reference: the straightforward numpy stepper, one temporary per term ---


def _ref_rhs(v, vd, h, Bm, an, bn, gn, out):
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h
    flux = (Bm[1:] * (v[2:] - v[1:-1]) - Bm[:-1] * (v[1:-1] - v[:-2])) * inv_h2
    adv = an[1:-1] * (v[2:] - v[:-2]) * inv_2h
    drift = bn[1:-1] * (vd[2:] - vd[:-2]) * inv_2h
    out[1:-1] = flux - adv + 2.0 * drift + gn[1:-1]
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _ref_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):
    n1 = v.shape[0]
    acc = np.empty(n1)
    k1a = np.empty(n1)
    k2a = np.empty(n1)
    k3a = np.empty(n1)
    k4a = np.empty(n1)
    stored = 1
    for k in range(nsteps):
        j0, j1, j2 = 2 * k, 2 * k + 1, 2 * k + 2
        _ref_rhs(v, vd, h, Bm[j0], an[j0], bn[j0], gn[j0], k1a)
        v2 = v + (0.5 * dt) * vd
        vd2 = vd + (0.5 * dt) * k1a
        _ref_rhs(v2, vd2, h, Bm[j1], an[j1], bn[j1], gn[j1], k2a)
        v3 = v + (0.5 * dt) * vd2
        vd3 = vd + (0.5 * dt) * k2a
        _ref_rhs(v3, vd3, h, Bm[j1], an[j1], bn[j1], gn[j1], k3a)
        v4 = v + dt * vd3
        vd4 = vd + dt * k3a
        _ref_rhs(v4, vd4, h, Bm[j2], an[j2], bn[j2], gn[j2], k4a)
        acc[:] = vd + 2.0 * vd2 + 2.0 * vd3 + vd4
        v += (dt / 6.0) * acc
        vd += (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        v[0] = v[-1] = 0.0
        vd[0] = vd[-1] = 0.0
        if np.max(np.abs(v)) > kernels.BLOWUP_LIMIT:
            return -(k + 1)
        if (k + 1) % store_every == 0:
            out_v[stored] = v
            out_vd[stored] = vd
            stored += 1
    return stored


def _coefficient_slices(n, S, moving, forced, seed=3):
    """S coefficient slices on n cells; time-dependent when ``moving``."""
    rng = np.random.default_rng(seed)
    y = np.linspace(0.0, 1.0, n + 1)
    ym = 0.5 * (y[:-1] + y[1:])
    s = 1.0 + 0.3 * rng.random((S, 1)) if moving else np.ones((S, 1))
    Bm = (1.0 - 0.3 * ym ** 2) / s ** 2
    an = -0.2 * y / s
    bn = 0.3 * y / s
    gn = np.sin(np.pi * y) * s if forced else np.zeros((S, n + 1))
    return y, Bm, an, bn, gn


def _initial(y, seed=2):
    v = np.sin(np.pi * y)
    vd = 0.1 * np.random.default_rng(seed).standard_normal(len(y))
    v[0] = v[-1] = vd[0] = vd[-1] = 0.0
    return v, vd


def _fill_rows(rows, Bm, an, bn, gn=None):
    # the rows (B, a, b[, g]) from the slices the reference reads: B at the
    # midpoints, a, b and g at the inner nodes
    B, *inner = rows
    B[:] = Bm
    for row, full in zip(inner, (an, bn, gn)):
        if row is not None:
            row[:] = full[:, 1:-1]


def _stepper(h, dt, Bm, an, bn, gn=None):
    # a Stepper on rows holding the reference's slices; an None: no a term
    rows = kernels.coefficient_rows(*Bm.shape, with_a=an is not None)
    _fill_rows(rows, Bm, an, bn)
    return kernels.Stepper(h, dt, *rows, None if gn is None else gn[:, 1:-1])


def _stepper_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):
    # one Stepper run on the given slices, (v, vd) advanced in place
    stepper = _stepper(h, dt, Bm, an, bn, gn)
    stepper.state[:] = v, vd
    status = stepper.run(nsteps, store_every, out_v, out_vd)
    v[:], vd[:] = stepper.state
    return status


def _run(impl, y, dt, nsteps, Bm, an, bn, gn, store_every):
    h = y[1] - y[0]
    v, vd = _initial(y)
    nstored = nsteps // store_every + 1
    out_v = np.empty((nstored, len(y)))
    out_vd = np.empty((nstored, len(y)))
    out_v[0] = v
    out_vd[0] = vd
    status = impl(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd)
    return status, v, vd, out_v, out_vd


@pytest.mark.parametrize("moving, forced, store_every", [
    (False, False, 1),   # frozen: one slice tiled to every slot
    (True, True, 1),     # 2 nsteps + 1 time-dependent slices with a forcing
    (True, False, 4),    # stores every 4th step only
])
def test_numpy_kernel_matches_reference_bit_for_bit(moving, forced, store_every):
    n, nsteps = 64, 40
    y, Bm, an, bn, gn = _coefficient_slices(n, 2 * nsteps + 1, moving, forced)
    dt = 0.5 / n
    got = _run(_stepper_run, y, dt, nsteps, Bm, an, bn, gn, store_every)
    ref = _run(_ref_run, y, dt, nsteps, Bm, an, bn, gn, store_every)
    assert got[0] == ref[0] == nsteps // store_every + 1
    for a, b in zip(got[1:], ref[1:]):
        assert np.array_equal(a, b)


def test_numpy_kernel_chained_single_steps_match_reference():
    # the coupled-solver pattern: one Stepper bound to three slices that the
    # caller refills in place before every single-step run; a stepper that
    # copied its buffers would step on the uninitialised ones
    n, nsteps = 64, 30
    y, Bm, an, bn, gn = _coefficient_slices(n, 2 * nsteps + 1, moving=True, forced=True)
    h = y[1] - y[0]
    dt = 0.5 / n
    rows = (*kernels.coefficient_rows(3, n), np.empty((3, n - 1)))
    stepper = kernels.Stepper(h, dt, *rows)
    v, vd = _initial(y)
    stepper.state[0] = v
    stepper.state[1] = vd
    out_v, out_vd, ref_v, ref_vd = np.empty((4, 2, n + 1))
    for k in range(nsteps):
        sl = slice(2 * k, 2 * k + 3)
        _fill_rows(rows, Bm[sl], an[sl], bn[sl], gn[sl])
        assert stepper.run(1, 1, out_v, out_vd) == 2
        assert _ref_run(v, vd, h, dt, 1, Bm[sl], an[sl], bn[sl], gn[sl], 1, ref_v, ref_vd) == 2
        assert np.array_equal(stepper.state[0], v) and np.array_equal(stepper.state[1], vd)
        assert np.array_equal(out_v[1], ref_v[1]) and np.array_equal(out_vd[1], ref_vd[1])


def test_stepper_refuses_a_run_longer_than_its_slots_before_stepping():
    # 2 steps read slots 0 to 4; three rows hold only the slots of one
    n = 16
    y, Bm, an, bn, gn = _coefficient_slices(n, 3, moving=True, forced=True)
    stepper = _stepper(y[1] - y[0], 0.5 / n, Bm, an, bn, gn)
    stepper.state[:] = _initial(y)
    before = stepper.state.copy()
    with pytest.raises(ValueError, match="2 steps read 5 slots; the owner has 3"):
        stepper.run(2)
    assert np.array_equal(stepper.state, before)
    assert stepper.run(1) == 1


def test_stepper_refuses_coefficients_not_in_one_row():
    n = 16
    B, a, b = kernels.coefficient_rows(3, n)
    B1, _, b1 = kernels.coefficient_rows(3, n, with_a=False)
    for rows in ((np.empty((3, n)), a, b), (B1, a, b1), (B, a, b1)):
        with pytest.raises(ValueError, match="coefficient_rows"):
            kernels.Stepper(1.0 / n, 0.01, *rows)


# --- the stepper without a forcing, and the unit-coefficient stepper -------


@pytest.mark.parametrize("moving", [False, True])
def test_stepper_without_forcing_matches_zero_forcing(moving):
    # gn=None skips the add of +0: the same values and the same zero signs
    n, nsteps = 64, 40
    y, Bm, an, bn, gn = _coefficient_slices(n, 2 * nsteps + 1, moving=moving, forced=False)
    got = []
    for g in (None, gn):
        stepper = _stepper(y[1] - y[0], 0.5 / n, Bm, an, bn, g)
        stepper.state[:] = _initial(y)
        out = np.zeros((2, nsteps + 1, n + 1))
        assert stepper.run(nsteps, 1, *out) == nsteps + 1
        got.append((stepper.state.copy(), out))
    for a, b in zip(*got):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


# --- the stepper without the a term -----------------------------------------


def _affine_slices(n, S, moving, forced):
    """S slices of the criterion-4 stretch lam = 1 + t/2, from ``line``: a is
    -(lam''/lam) y, all -0; every slice at t = 0.3 unless ``moving``."""
    problem = _moving_problem(1.0, _wavy_forcing if forced else None)
    y = np.linspace(0.0, 1.0, n + 1)
    ym = 0.5 * (y[:-1] + y[1:])
    ts = 0.5 * (0.5 / n) * np.arange(S) if moving else np.full(S, 0.3)
    Bm = problem.line(ts, ym)[0]
    _, an, bn, gn = problem.line(ts, y)
    assert not np.any(an) and np.all(np.signbit(an))
    return y, Bm, an, bn, (gn if forced else None)


def _same_bits(got, want):
    # the same values, NaN where NaN, and the same signs of zero
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
        num = ~np.isnan(a)
        assert np.array_equal(np.signbit(a[num]), np.signbit(b[num]))


@pytest.mark.parametrize("moving, forced, store_every", [
    (False, False, 1),   # frozen slice in every slot
    (True, False, 1),    # half-step slices
    (True, True, 1),     # forced
    (True, False, 4),    # stores every 4th step only
])
def test_a_free_stepper_matches_the_zero_a_slices(moving, forced, store_every):
    n, nsteps = 64, 40
    y, Bm, an, bn, gn = _affine_slices(n, 2 * nsteps + 1, moving, forced)
    dt = 0.5 / n
    free = _run(_stepper_run, y, dt, nsteps, Bm, None, bn, gn, store_every)
    full = _run(_stepper_run, y, dt, nsteps, Bm, an, bn, gn, store_every)
    assert free[0] == full[0] == nsteps // store_every + 1
    _same_bits(free[1:], full[1:])


def test_a_free_stepper_chained_single_steps_match_the_full_stepper():
    # the coupled-solver pattern on three slices refilled before every step
    n, nsteps = 64, 30
    y, Bm, an, bn, gn = _affine_slices(n, 2 * nsteps + 1, moving=True, forced=True)
    h, dt = y[1] - y[0], 0.5 / n
    g3 = np.empty((3, n - 1))
    free_rows = (*kernels.coefficient_rows(3, n, with_a=False), g3)
    full_rows = (*kernels.coefficient_rows(3, n), g3)
    free = kernels.Stepper(h, dt, *free_rows)
    full = kernels.Stepper(h, dt, *full_rows)
    for stepper in (free, full):
        stepper.state[:] = _initial(y)
    rows = np.zeros((2, 2, 2, n + 1))
    for k in range(nsteps):
        sl = slice(2 * k, 2 * k + 3)
        for coef in (free_rows, full_rows):
            _fill_rows(coef, Bm[sl], an[sl], bn[sl], gn[sl])
        for stepper, out in zip((free, full), rows):
            assert stepper.run(1, 1, *out) == 2
        _same_bits((free.state, rows[0]), (full.state, rows[1]))


@pytest.mark.parametrize("moving, slot, status", [
    (False, 0, -1),   # the frozen slice of the first step
    (True, 5, -3),    # the half-step slice of step 2
    (True, 6, -3),    # the end slice of step 2
])
def test_a_free_stepper_blows_up_at_the_same_step(moving, slot, status):
    n, nsteps = 16, 5
    y, Bm, an, bn, gn = _affine_slices(n, 2 * nsteps + 1, moving, forced=True)
    gn[slot, n // 2] = np.nan
    dt = 0.5 / n
    free = _run(_stepper_run, y, dt, nsteps, Bm, None, bn, gn, 1)
    full = _run(_stepper_run, y, dt, nsteps, Bm, an, bn, gn, 1)
    assert free[0] == full[0] == status
    # the rows stored before the blow-up, and the state it left
    _same_bits((free[1], free[2], *(rows[:-status] for rows in free[3:])),
               (full[1], full[2], *(rows[:-status] for rows in full[3:])))


@pytest.mark.parametrize("fam, a_free", [
    (one_d_scaling(Affine(1.0, 0.5), 1.0), True),     # lam'' = 0
    (interval_flow(4.0, Affine(1.0, 0.5), 1.0), True),  # rho affine: lam'' = 0
    (one_d_scaling(Poly(1.0, 0.3, 0.1), 1.0), False),  # lam'' = 0.2
], ids=["affine", "interval-flow", "poly"])
def test_solve_fd_steps_without_a_where_lam_accelerates_nowhere(monkeypatch, fam, a_free):
    steppers = []

    class Recording(kernels.Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            steppers.append(self)

    monkeypatch.setattr(kernels, "Stepper", Recording)
    L = fam.reference.length
    solve_fd(PulledBackProblem(fam), L, 100, _sine, _kick, dt=2e-3, T=1.0)
    (stepper,) = steppers
    assert (stepper.ab.shape[1] == 1) == a_free  # b alone, no a


def _unit_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd):
    # the _stepper_run call pattern on UnitStepper, which reads no coefficients
    stepper = kernels.UnitStepper(h, dt, len(v))
    stepper.state[:] = v, vd
    status = stepper.run(nsteps, store_every, out_v, out_vd)
    v[:], vd[:] = stepper.state
    return status


@pytest.mark.parametrize("nsteps, dt_h, status", [
    (40, 0.5, 41),   # the cylinder's partitions run at dt = 0.8 h at most
    (60, 2.0, -17),  # beyond the CFL limit: the same blow-up step
])
def test_unit_stepper_matches_stepper_with_unit_coefficients(nsteps, dt_h, status):
    n = 48
    y = np.linspace(0.0, 1.0, n + 1)
    Bm = np.ones((2 * nsteps + 1, n))
    zero = np.zeros((2 * nsteps + 1, n + 1))
    unit, grid, ref = (_run(impl, y, dt_h / n, nsteps, Bm, zero, zero, zero, 1)
                       for impl in (_unit_run, _stepper_run, _ref_run))
    rows = abs(status)  # the stored rows, the initial one included
    assert unit[0] == grid[0] == status
    for a, b in zip(unit[1:], grid[1:]):
        assert np.array_equal(a[:rows], b[:rows])
    if status > 0:
        assert ref[0] == status
        for a, b in zip(unit[1:], ref[1:]):
            assert np.array_equal(a, b)
    else:
        # the reference's guard reads v alone, so it stops a step or more
        # later; its rows up to the stepper's blow-up are the same
        assert ref[0] < status
        for a, b in zip(unit[3:], ref[3:]):
            assert np.array_equal(a[:rows], b[:rows])

# --- the RK4 driver on a small linear system --------------------------------


@pytest.mark.parametrize("store_every", [1, 3])
def test_rk4_driver_matches_textbook_rk4(store_every):
    # x'' = -A x - 2 C x' + g_j with a forcing per half-step slot: step k
    # reads 2k, 2k + 1 and 2k + 2 at t_k, t_k + dt/2 and t_k + dt
    n, nsteps, dt = 5, 12, 0.05
    rng = np.random.default_rng(7)
    A, C = rng.standard_normal((2, n, n))
    g = rng.standard_normal((2 * nsteps + 1, n))
    x0 = rng.standard_normal((2, n))

    def accel(x, xd, j):
        return -(A * x).sum(axis=1) - 2.0 * (C * xd).sum(axis=1) + g[j]

    def f(y, j):
        return np.stack((y[1], accel(y[0], y[1], j)))

    y = x0.copy()
    ref = [y]
    for k in range(nsteps):
        j = 2 * k
        k1 = f(y, j)
        k2 = f(y + (0.5 * dt) * k1, j + 1)
        k3 = f(y + (0.5 * dt) * k2, j + 1)
        k4 = f(y + dt * k3, j + 2)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % store_every == 0:
            ref.append(y)
    ref = np.array(ref)

    rk = kernels.RK4(n, dt)

    def stage_accel(s, j):
        x, xd, out = rk.stages[s]
        out[:] = accel(x, xd, j)

    rk.accel = stage_accel
    rk.state[:] = x0
    out_v, out_vd = np.empty((2, nsteps // store_every + 1, n))
    out_v[0], out_vd[0] = x0
    assert rk.run(nsteps, store_every, out_v, out_vd) == len(ref)
    assert np.array_equal(rk.state, ref[-1])
    assert np.array_equal(out_v, ref[:, 0]) and np.array_equal(out_vd, ref[:, 1])


# --- RK4.step: the single step that run loops over ---------------------------


def _chained_steps(rk, nsteps):
    """rk.run(nsteps, 1, ...) as chained rk.step(2k) calls: (run's status,
    the states after each step)."""
    rows = [rk.state.copy()]
    for k in range(nsteps):
        if not rk.step(2 * k):
            return -(k + 1), np.array(rows)
        rows.append(rk.state.copy())
    return nsteps + 1, np.array(rows)


def _grid_stepper_maker(case, n, nsteps, nan_slot=None):
    """A function making a fresh stepper of the case, its state set with
    +0 ends, as every solver starts it."""
    S = 2 * nsteps + 1
    if case == "a-free":
        y, Bm, an, bn, gn = _affine_slices(n, S, moving=True, forced=nan_slot is not None)
        an = None
    else:
        y, Bm, an, bn, gn = _coefficient_slices(n, S, moving=True, forced=case != "full")
        if case == "full":
            gn = None
    if nan_slot is not None:
        gn[nan_slot, n // 2] = np.nan
    h, dt = y[1] - y[0], 0.5 / n

    def make():
        if case == "unit":
            rk = kernels.UnitStepper(h, dt, n + 1)
        else:
            rk = _stepper(h, dt, Bm, an, bn, gn)
        rk.state[:] = _initial(y)
        return rk

    return make


@pytest.mark.parametrize("case", ["full", "a-free", "forced", "unit"])
def test_chained_steps_match_a_run(case):
    n, nsteps = 32, 12
    make = _grid_stepper_maker(case, n, nsteps)
    rk = make()
    out = np.empty((2, nsteps + 1, n + 1))
    out[:, 0] = rk.state
    assert rk.run(nsteps, 1, *out) == nsteps + 1
    status, rows = _chained_steps(make(), nsteps)
    assert status == nsteps + 1
    _same_bits((rows[:, 0], rows[:, 1]), out)
    assert rows[1, 0, 0] == rows[1, 1, -1] == 0.0


def test_chained_steps_match_the_modal_driver():
    # galerkin.integrate is one run; the same RK4 stepped one step at a time
    problem = _moving_problem(1.0, _wavy_forcing)
    system = galerkin.GalerkinSystem(galerkin.SineBasis(1.0, 8), problem)
    d0, dd0 = np.random.default_rng(5).standard_normal((2, 8))
    dt, nsteps = 0.02, 25
    traj = galerkin.integrate(system, d0, dd0, dt, nsteps * dt)
    ts = kernels.half_steps(nsteps, dt)
    weights, G = system.stage_weights(ts), system.projected_forcing(ts)
    rk = kernels.RK4(8, dt)
    rk.accel = lambda s, j: system.accel(rk.stages[s, :2], weights[j], G[j], rk.stages[s, 2])
    rk.state[:] = d0, dd0
    status, rows = _chained_steps(rk, nsteps)
    assert status == nsteps + 1
    _same_bits((rows[:, 0], rows[:, 1]), (traj.values, traj.velocities))


@pytest.mark.parametrize("case", ["forced", "a-free"])
@pytest.mark.parametrize("slot, status", [(0, -1), (5, -3), (6, -3)])
def test_step_reports_a_nan_blowup_at_the_step_run_does(case, slot, status):
    n, nsteps = 16, 5
    make = _grid_stepper_maker(case, n, nsteps, nan_slot=slot)
    assert make().run(nsteps) == status
    got, rows = _chained_steps(make(), nsteps)
    assert got == status and len(rows) == -status


# --- blow-up guard: a NaN state must count as a blow-up ---------------------


def test_kernel_reports_nan_state_as_blowup():
    n, nsteps = 16, 5
    y, Bm, an, bn, gn = _coefficient_slices(n, 2 * nsteps + 1, moving=False, forced=True)
    gn[0, n // 2] = np.nan
    status = _run(_stepper_run, y, 0.5 / n, nsteps, Bm, an, bn, gn, 1)[0]
    assert status == -1


@pytest.mark.parametrize("moving, slot, status", [
    (False, 0, -1),   # the frozen slice of the first step
    (True, 5, -3),    # the half-step slice of step 2
    (True, 6, -3),    # the end slice of step 2: NaN velocity, caught at step 2
])
def test_stepper_reports_the_same_nan_blowup_storing_or_not(moving, slot, status):
    n, nsteps = 16, 5
    y, Bm, an, bn, gn = _coefficient_slices(n, 2 * nsteps + 1, moving=moving, forced=True)
    gn[slot, n // 2] = np.nan
    dt = 0.5 / n
    stepper = _stepper(y[1] - y[0], dt, Bm, an, bn, gn)
    stepper.state[:] = _initial(y)
    assert stepper.run(nsteps) == status
    assert _run(_stepper_run, y, dt, nsteps, Bm, an, bn, gn, 1)[0] == status



@pytest.mark.parametrize("x0, status", [
    (0.9e12, 1),                   # all entries: the squares sum past 1e24
    (kernels.BLOWUP_LIMIT, 1),     # at the limit is not beyond it
    (np.nextafter(kernels.BLOWUP_LIMIT, np.inf), -1),
])
def test_blowup_guard_reads_the_largest_entry(x0, status):
    # x'' = 0 from rest keeps the state; one entry or all of them at x0
    n = 1000
    rk = kernels.RK4(n, 0.1)
    rk.accel = lambda s, j: rk.stages[s, 2].fill(0.0)
    for state in (np.full(n, x0), np.where(np.arange(n) == 7, x0, 0.0)):
        rk.state[0], rk.state[1] = state, 0.0
        assert rk.run(1) == status


def test_solve_fd_raises_blowup_on_nan_coefficient():
    def forcing(t, x):
        return np.full(np.shape(x), np.nan)

    pb = PulledBackProblem(identity_motion(Interval(1.0), 0.1), forcing)
    with pytest.raises(BlowUp):
        solve_fd(pb, 1.0, 32, lambda y: np.sin(np.pi * np.asarray(y)),
                 lambda y: 0.0 * np.asarray(y), dt=0.01, T=0.1)


def test_coupled_solver_raises_blowup_on_nan_coefficient():
    def forcing(t, x):
        return np.full(np.shape(x), np.nan)

    sc = CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(np.sqrt(2.0)),
                      kappa=Const(1.0), horizon=0.1, forcing=forcing)
    with pytest.raises(BlowUp):
        evolve_coupled_1d(sc, CoupledNumerics(n=64, store_every=1))


# --- the grid solver: blocked fill against the all-at-once fill -------------


def _ref_solve_fd(problem, L, n, v0, v1, dt, T, store_every=1):
    """solve_fd with all 2 nsteps + 1 half-step slices filled before the first step."""
    h = L / n
    x = np.linspace(0.0, L, n + 1)
    xm = 0.5 * (x[:-1] + x[1:])
    nsteps, dt = kernels.step_count(dt, T, store_every)
    S = 2 * nsteps + 1
    ts = 0.5 * dt * np.arange(S)
    Bm = np.empty((S, n))
    an = np.empty((S, n + 1))
    bn = np.empty((S, n + 1))
    gn = np.zeros((S, n + 1))
    problem.line(ts, xm, out=(Bm, None, None, None))
    problem.line(ts, x, out=(None, an, bn, None if problem.forcing is None else gn))
    maxB = float(np.max(Bm))
    if dt > fd.CFL_SAFETY * h / np.sqrt(maxB):
        raise CflViolation("reference CFL guard")
    v = np.asarray(v0(x), dtype=float).copy()
    vd = np.asarray(v1(x), dtype=float).copy()
    v[0] = v[-1] = 0.0
    vd[0] = vd[-1] = 0.0
    nstored = nsteps // store_every + 1
    out_v = np.empty((nstored, n + 1))
    out_vd = np.empty((nstored, n + 1))
    out_v[0] = v
    out_vd[0] = vd
    status = _stepper_run(v, vd, h, dt, nsteps, Bm, an, bn, gn, store_every, out_v, out_vd)
    if status < 0:
        raise BlowUp(f"grid state exceeded {kernels.BLOWUP_LIMIT:g} at step {-status}; shrink dt")
    times = np.arange(nstored) * (store_every * dt)
    return Trajectory(kind="grid", times=times, values=out_v, velocities=out_vd,
                      L=L, x=x, meta={"dt": dt, "n": n})


def _moving_problem(horizon, forcing=None):
    return PulledBackProblem(one_d_scaling(Affine(1.0, 0.5), horizon), forcing)


def _sine(y):
    return np.sin(np.pi * np.asarray(y))


def _kick(y):
    return 0.3 * np.sin(2 * np.pi * np.asarray(y))


def _wavy_forcing(t, x):
    return np.cos(3.0 * t) * np.sin(np.pi * x)


@pytest.mark.parametrize("n, dt, T, store_every, forcing", [
    (200, 2e-3, 2.0, 1, None),              # 1000 steps, not a multiple of a block
    (200, 2e-3, 0.5, 1, None),              # 250 steps, one block and a part
    (200, 2e-3, 0.3, 1, None),              # 150 steps, shorter than one block
    (200, 2e-3, 1.998, 3, None),            # 999 steps stored every 3rd
    (200, 2e-3, 2.002, 7, _wavy_forcing),   # 1001 steps stored every 7th, forced
    (1 << 16, 1e-5, 3e-5, 1, None),         # so many nodes that a block is one step
])
def test_blocked_solve_fd_matches_all_at_once_fill(n, dt, T, store_every, forcing):
    problem = _moving_problem(T, forcing)
    got = solve_fd(problem, 1.0, n, _sine, _kick, dt=dt, T=T, store_every=store_every)
    want = _ref_solve_fd(problem, 1.0, n, _sine, _kick, dt=dt, T=T, store_every=store_every)
    for name in ("times", "values", "velocities", "x"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.meta == want.meta


def test_solve_fd_cfl_guard_sees_the_last_block_before_any_forcing():
    # lam = 1 - 0.27785 t shrinks, so max B grows; at dt = 2e-3 on 200 cells
    # only the last half-step slice, at t = T, breaks dt <= 0.9 h / sqrt(max B)
    n, dt, T = 200, 2e-3, 2.0
    assert T / dt > fd._BLOCK_POINTS // (n + 1)  # more than one block
    calls = []

    def counting(t, x):
        calls.append(t)
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))

    fam = one_d_scaling(Affine(1.0, -0.27785), T)
    solve_fd(PulledBackProblem(fam), 1.0, n, _sine, _kick, dt=dt, T=T - dt)
    with pytest.raises(CflViolation):
        _ref_solve_fd(PulledBackProblem(fam), 1.0, n, _sine, _kick, dt=dt, T=T)
    with pytest.raises(CflViolation):
        solve_fd(PulledBackProblem(fam, counting), 1.0, n, _sine, _kick, dt=dt, T=T)
    assert calls == []


@pytest.mark.parametrize("problem", [
    _moving_problem(2.0),                      # growing: lam' > 0
    _moving_problem(2.0, _wavy_forcing),       # forced
    PulledBackProblem(one_d_scaling(Affine(1.0, -0.27785), 2.0)),  # shrinking
])
def test_cfl_guard_reads_the_max_of_every_slice(problem):
    n, nsteps, dt = 200, 1000, 2e-3
    x = np.linspace(0.0, 1.0, n + 1)
    xm = 0.5 * (x[:-1] + x[1:])
    # solve_fd forms the first midpoint before the grid: the bits of xm[0]
    ym = 0.5 * (0.0 + 1.0 / n)
    assert np.array_equal([ym], xm[:1])
    ts = 0.5 * dt * np.arange(2 * nsteps + 1)
    assert fd._max_B(problem, ts, problem.rates(ts), ym) == float(np.max(problem.line(ts, xm)[0]))


def test_solve_fd_refuses_a_cfl_violation_before_it_allocates_the_grid():
    # 200 000 cells: x alone would be 1.6 MB
    tracemalloc.start()
    try:
        with pytest.raises(CflViolation):
            solve_fd(_moving_problem(1.0), 1.0, 200_000, _sine, _kick, dt=1e-3, T=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_solve_fd_blowup_names_the_reference_step():
    # NaN from t > 0.7 on; the end slice of step 350 of 500 sits at
    # 0.5 dt 700 = 0.7000000000000001, inside the second block
    def late_nan(t, x):
        return np.where(t > 0.7, np.nan, np.sin(np.pi * x))

    problem = _moving_problem(1.0, late_nan)
    messages = []
    for solve in (solve_fd, _ref_solve_fd):
        with pytest.raises(BlowUp) as err:
            solve(problem, 1.0, 200, _sine, _kick, dt=2e-3, T=1.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "at step 350;" in messages[0]


def test_the_run_bound_counts_steps_alone():
    # per-step tables grow with the step count, whatever the unknowns: a
    # run at the bound passes, and one step more is refused
    limit = kernels.MAX_STEPS
    assert kernels.step_count(1.0, float(limit)) == (limit, 1.0)
    assert kernels.cfl_step_count(1.0, 1.0, float(limit)) == (limit, 1.0)
    with pytest.raises(RunTooLarge):
        kernels.step_count(1.0, float(limit + 1))
    with pytest.raises(RunTooLarge):
        kernels.cfl_step_count(1.0, 1.0, float(limit + 1))
    # so is a count that is not finite, before int() meets it: T / dt
    # overflows to inf, or cfl h underflows to 0
    with pytest.raises(RunTooLarge):
        kernels.step_count(1e-309, 1.0)
    with pytest.raises(RunTooLarge):
        kernels.cfl_step_count(1.0 / 1024, 5e-324, 1.0)


@pytest.mark.parametrize("dt, T", [(1e300, 1.0), (1e300, 2.7), (3.0, 1.0)])
def test_a_step_longer_than_the_horizon_is_one_step(dt, T):
    # ceil(T / dt - 1e-12) is 0 when T / dt < 1e-12, and T / 0 divided by zero
    assert kernels.step_count(dt, T) == (1, T)
    with pytest.raises(ValueError, match="store_every must divide"):
        kernels.step_count(dt, T, store_every=2)


@pytest.mark.parametrize("h, cfl", [(1e300, 0.5), (1e-3, 1e300), (1.0, 3.0)])
def test_a_cfl_step_longer_than_the_horizon_is_one_step(h, cfl):
    assert kernels.cfl_step_count(h, cfl, 2.7) == (1, 2.7)
