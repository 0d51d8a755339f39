import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import debondwave
from debondwave import energy
from debondwave.domains import Interval
from debondwave.energy import (
    Ledger,
    _quadrature,
    ledger_transformed,
    measure_identity_residual,
)
from debondwave.expressions import Affine, Const, Poly, SineMode, SpaceTimeField
from debondwave.domains import Ball, Box, Tetrahedron
from debondwave.fd import solve_fd
from debondwave.galerkin import SineBasis, Trajectory, sampler, solve_transformed_modal
from debondwave.griffith import flow_rule, griffith_check
from debondwave.motion import (
    homothetic,
    identity_motion,
    interval_flow,
    one_d_scaling,
    radial_annulus_flow,
)
from debondwave.transform import PulledBackProblem


def _standing_wave_trajectory(nt=501, m=3):
    basis = SineBasis(1.0, m)
    ts = np.linspace(0.0, 1.0, nt)
    vals = np.zeros((nt, m))
    vels = np.zeros((nt, m))
    amp = 1.0 / np.sqrt(2.0)  # so v = cos(pi t) sin(pi y)
    vals[:, 0] = amp * np.cos(np.pi * ts)
    vels[:, 0] = -amp * np.pi * np.sin(np.pi * ts)
    return Trajectory(kind="modal", times=ts, values=vals, velocities=vels,
                      L=1.0, basis=basis)


def test_static_ledger_conserves_energy():
    fam = identity_motion(Interval(1.0), 1.0)
    led = ledger_transformed(_standing_wave_trajectory(), fam)
    total = led.kinetic + led.potential
    assert np.max(np.abs(total - np.pi ** 2 / 4.0)) < 1e-10
    assert np.max(np.abs(led.boundary_dissipation)) < 1e-13
    assert np.max(led.residual_moving) < 1e-6


def test_zero_solution_ledger():
    basis = SineBasis(1.0, 2)
    ts = np.linspace(0.0, 1.0, 11)
    z = np.zeros((11, 2))
    traj = Trajectory(kind="modal", times=ts, values=z, velocities=z.copy(),
                      L=1.0, basis=basis)
    led = ledger_transformed(traj, identity_motion(Interval(1.0), 1.0),
                             kappa=Const(1.0))
    for arr in (led.kinetic, led.potential, led.work, led.boundary_dissipation,
                led.debond_dissipation, led.residual_moving):
        assert np.max(np.abs(arr)) == 0.0


def test_debond_dissipation_both_forms():
    # kappa = 1, l = 1 + t/2: dissipated energy t/2, also |Omega_t| - |Omega_0|
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    traj = _standing_wave_trajectory(nt=201)
    led = ledger_transformed(traj, fam, kappa=Const(1.0))
    expect = 0.5 * led.times
    assert np.max(np.abs(led.debond_dissipation - expect)) < 1e-6
    geo = np.array([fam.domain_measure(t) - fam.domain_measure(0.0) for t in led.times])
    assert np.max(np.abs(led.debond_dissipation - geo)) < 1e-6


def _residual_fixed(traj, problem):
    return ledger_transformed(traj, problem.fam, problem=problem).residual_fixed


def test_fixed_balance_identity_and_zero():
    pb = PulledBackProblem(identity_motion(Interval(1.0), 1.0))
    res = _residual_fixed(_standing_wave_trajectory(), pb)
    assert np.max(res) < 1e-6
    basis = SineBasis(1.0, 2)
    ts = np.linspace(0.0, 1.0, 11)
    z = np.zeros((11, 2))
    zero = Trajectory(kind="modal", times=ts, values=z, velocities=z.copy(),
                      L=1.0, basis=basis)
    assert np.max(_residual_fixed(zero, pb)) == 0.0


def test_fixed_balance_moving_run():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    traj = solve_transformed_modal(pb, 1.0, lambda y: np.sin(np.pi * y),
                                   lambda y: 0.0 * np.asarray(y), m=32, dt=1e-3, T=1.0)
    assert np.max(_residual_fixed(traj, pb)) < 1e-3


def _sampled_rows(monkeypatch):
    """Copies of the rows (values, velocities) that the ledger's sampler is
    given, in the order it is given them."""
    seen = []
    real = energy.sampler

    def spy(y, x=None, basis=None):
        order, sample = real(y, x, basis)

        def counted(V, Vd, vd, vy):
            seen.append((V.copy(), Vd.copy()))
            sample(V, Vd, vd, vy)

        return order, counted

    monkeypatch.setattr(energy, "sampler", spy)
    return seen


# 2000 steps: several ledger blocks, and at n = 64 four solver blocks of at most 504
@pytest.mark.parametrize("source", ["grid", "modal", "streamed-1", "streamed-5"])
def test_ledger_samples_each_stored_row_once(monkeypatch, source):
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    v0 = lambda y: np.sin(np.pi * y)
    v1 = lambda y: 0.0 * np.asarray(y)
    store_every = 5 if source == "streamed-5" else 1
    if source == "modal":
        traj = solve_transformed_modal(pb, 1.0, v0, v1, m=16, dt=5e-4, T=1.0)
    else:
        traj = solve_fd(pb, 1.0, 64, v0, v1, dt=5e-4, T=1.0, store_every=store_every)
    seen = _sampled_rows(monkeypatch)
    if source.startswith("streamed"):
        solve_fd(pb, 1.0, 64, v0, v1, dt=5e-4, T=1.0, store_every=store_every,
                 reader=Ledger(fam, problem=pb))
    else:
        ledger_transformed(traj, fam, problem=pb)
    assert len(seen) > 1
    assert np.array_equal(np.concatenate([V for V, _ in seen]), traj.values)
    assert np.array_equal(np.concatenate([Vd for _, Vd in seen]), traj.velocities)


def _whole_array_ledger(traj, fam, forcing, problem):
    """(kinetic, potential, work, residual_fixed) from every stored time at
    once, the formulas of the ledger before its row blocks."""
    yq, wq = _quadrature(traj.L, traj.basis.m if traj.kind == "modal" else 0)
    times = traj.times
    lam, dlam, _ = fam.stretch(times)
    order, sample = sampler(yq, traj.x, traj.basis)
    vd, vy = (np.empty((len(times), len(yq)), order=order) for _ in range(2))
    sample(traj.values, traj.velocities, vd, vy)
    ud = vd - vy * np.multiply.outer(dlam / lam, yq)
    gu = vy / lam[:, None]
    kinetic = 0.5 * lam * ((ud * ud) @ wq)
    potential = 0.5 * lam * ((gu * gu) @ wq)
    f = np.asarray(forcing(times[:, None], np.multiply.outer(lam, yq)), dtype=float)
    work_rate = lam * ((f * ud) @ wq)
    work = np.zeros(len(times))
    work[1:] = np.cumsum(np.diff(times) * work_rate[:-1])

    B, a, _, g = problem.line(times, yq)
    Bdot, divb = problem.line_rates(times, yq)
    vy2 = vy * vy
    vd2 = vd * vd
    lhs = 0.5 * (vd2 @ wq) + 0.5 * ((B * vy2) @ wq)
    rate = (0.5 * ((Bdot * vy2) @ wq) - ((a * vy * vd) @ wq) - ((divb * vd2) @ wq)
            + ((g * vd) @ wq))
    R = np.zeros(len(times))
    R[1:] = np.cumsum(0.5 * np.diff(times) * (rate[:-1] + rate[1:]))
    return kinetic, potential, work, np.abs(lhs - lhs[0] - R)


def check_ledger_blocks_match_the_whole_array():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    forcing = SpaceTimeField(SineMode(1.0, 2).bound(1.0), Poly(0.5, 1.0, -0.3))
    pb = PulledBackProblem(fam, forcing=forcing)
    v0 = lambda y: np.sin(np.pi * y)
    v1 = lambda y: 0.0 * np.asarray(y)
    # ledger blocks of 192 rows at 160 quadrature values (grid), 96 at 320
    # (m = 32): row counts past several blocks, and one row past a block
    trajs = [solve_fd(pb, 1.0, 64, v0, v1, dt=1 / 500, T=1.0),
             solve_fd(pb, 1.0, 64, v0, v1, dt=1 / 192, T=1.0),
             solve_transformed_modal(pb, 1.0, v0, v1, m=32, dt=1 / 300, T=1.0),
             solve_transformed_modal(pb, 1.0, v0, v1, m=32, dt=1 / 96, T=1.0)]
    for traj in trajs:
        assert len(traj.times) % 16
        led = ledger_transformed(traj, fam, forcing=forcing, problem=pb)
        kinetic, potential, work, fixed = _whole_array_ledger(traj, fam, forcing, pb)
        assert np.array_equal(led.kinetic, kinetic)
        assert np.array_equal(led.potential, potential)
        assert np.array_equal(led.work, work)
        assert np.array_equal(led.residual_moving,
                              np.abs(kinetic + potential + led.boundary_dissipation
                                     - (kinetic[0] + potential[0]) - work))
        assert np.array_equal(led.residual_fixed, fixed)


def test_ledger_row_blocks_keep_the_whole_array_bits():
    # at one BLAS thread: a threaded gemv splits the whole array at rows
    # that no block boundary can follow, so more threads may move an ulp
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(debondwave.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join([src, tests])}
    run = subprocess.run(
        [sys.executable, "-c",
         "import test_energy; test_energy.check_ledger_blocks_match_the_whole_array()"],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_ledger_transient_stays_small_beside_the_trajectory():
    # 4001 stored times at 160 quadrature values: one (nt, nq) array is 5.1 MB,
    # and the whole-array formulas took a traced 72 MB here
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    traj = solve_fd(pb, 1.0, 32, lambda y: np.sin(np.pi * y),
                    lambda y: 0.0 * np.asarray(y), dt=1 / 4000, T=1.0)
    ledger_transformed(traj, fam, problem=pb)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ledger_transformed(traj, fam, problem=pb)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # v_dot and v_y at the quadrature nodes are held a block at a time, never
    # whole (two (nt, nq) arrays, 10.2 MB here): the ledger takes about 3.3 MB
    # whatever the step count
    assert peak < 6e6


def test_moving_balance_first_order_in_resolution():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    v0 = lambda y: np.sin(np.pi * y)
    v1 = lambda y: 0.0 * np.asarray(y)
    r = []
    for n, dt in ((200, 2e-3), (400, 1e-3)):
        traj = solve_fd(pb, 1.0, n, v0, v1, dt=dt, T=1.0)
        r.append(float(ledger_transformed(traj, fam).residual_moving.max()))
    assert 1.3 <= r[0] / r[1] <= 3.0


def test_boundary_dissipation_monotone():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    traj = solve_fd(pb, 1.0, 200, lambda y: np.sin(np.pi * y),
                    lambda y: 0.0 * np.asarray(y), dt=2e-3, T=1.0)
    led = ledger_transformed(traj, fam)
    assert np.min(np.diff(led.boundary_dissipation)) >= -1e-13


_LEDGER_FIELDS = ("times", "kinetic", "potential", "work", "boundary_dissipation",
                  "debond_dissipation", "residual_moving", "residual_fixed", "G_total")


def _streamed_ledger_keeps_the_stored_ledger_bits(solve, forced, **run):
    """solve(..., reader=Ledger) against ledger_transformed of the run
    solve(...) stores, in every field."""
    v0 = lambda y: np.sin(np.pi * y)
    v1 = lambda y: 0.0 * np.asarray(y)
    if forced:
        # lam'' != 0, so a grid run steps with the a term, and the fixed balance
        fam = one_d_scaling(Poly(1.0, 0.2, 0.3), 1.0)
        forcing = SpaceTimeField(SineMode(1.0, 2).bound(1.0), Poly(0.5, 1.0, -0.3))
        pb = PulledBackProblem(fam, forcing=forcing)
        kw = dict(forcing=forcing, kappa=Const(1.0), problem=pb)
    else:
        fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
        pb = PulledBackProblem(fam)
        kw = {}
    traj = solve(pb, 1.0, v0=v0, v1=v1, T=1.0, **run)
    want = ledger_transformed(traj, fam, **kw)
    got = solve(pb, 1.0, v0=v0, v1=v1, T=1.0, reader=Ledger(fam, **kw), **run)
    assert len(got.times) == len(traj.times)
    for name in _LEDGER_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert np.array_equal(a, b, equal_nan=name == "G_total"), name
    assert (got.residual_fixed is None) == (not forced)


# n = 64 steps in solver blocks of 504: at 2000 steps the 192-row ledger
# blocks straddle the solver blocks' seam, and a stride of 5 ends the first
# solver block between two stored steps; 193 and 385 stored rows leave a
# one-row tail that joins the last block
@pytest.mark.parametrize("dt, store_every", [(1 / 2000, 1), (1 / 2000, 5), (1 / 192, 1),
                                            (1 / 1920, 5), (1e-3, 1000)])
@pytest.mark.parametrize("forced", [False, True])
def test_streamed_grid_ledger_keeps_the_stored_ledger_bits(dt, store_every, forced):
    _streamed_ledger_keeps_the_stored_ledger_bits(solve_fd, forced, n=64, dt=dt,
                                                  store_every=store_every)


@pytest.mark.parametrize("store_every", [1, 10])
@pytest.mark.parametrize("forced", [False, True])
def test_streamed_modal_ledger_keeps_the_stored_ledger_bits(store_every, forced):
    # the modal run feeds its reader the whole stored run, the one feed
    # ledger_transformed makes on the kept trajectory
    _streamed_ledger_keeps_the_stored_ledger_bits(solve_transformed_modal, forced, m=16,
                                                  dt=1e-3, store_every=store_every)


def test_a_zero_horizon_grid_ledger_is_row_0_of_a_longer_run():
    # a zero-step run feeds its first row, so the ledger reads its energy.
    # It is the stored one-row run's ledger bit for bit; row 0 of a longer
    # run rounds its quadrature sums in a matrix-vector product over more
    # rows (OpenBLAS sums a lone row another way), so it agrees to rounding
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    v0 = lambda y: np.sin(np.pi * y)
    v1 = lambda y: 0.0 * np.asarray(y)
    kw = dict(kappa=Const(1.0), problem=pb)
    got, longer = (solve_fd(pb, 1.0, 64, v0, v1, dt=1e-3, T=T, reader=Ledger(fam, **kw))
                   for T in (0.0, 1.0))
    stored = ledger_transformed(solve_fd(pb, 1.0, 64, v0, v1, dt=1e-3, T=0.0), fam, **kw)
    assert got.kinetic[0] + got.potential[0] > 1.0
    for name in _LEDGER_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(stored, name)), name
        np.testing.assert_allclose(getattr(got, name), getattr(longer, name)[:1],
                                   rtol=1e-15, atol=0.0, err_msg=name)


def test_energy_suite_stores_no_grid_trajectory():
    # the suite's n = 800 grid trajectory alone is 25.6 MB (31.1 MiB traced
    # with its ledger when it was stored); streamed, the cylinder runs and
    # the modal ledger set the peak
    from debondwave.verify import run_suite

    tracemalloc.start()
    try:
        run_suite("energy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


# --- release rate -----------------------------------------------------------


def _G(p, alpha):
    """The release-rate density G_alpha that griffith_check writes, one point."""
    return float(griffith_check([0.0], [alpha], [p], [1.0]).G[0])


def test_release_rate_values():
    assert abs(_G(2.0, 0.0) - 2.0) < 1e-14
    assert abs(_G(2.0, 0.6) - 1.28) < 1e-14
    assert _G(0.0, 0.3) == 0.0
    # at the wave speed G = 0 = kappa, so only the subsonic condition can fail
    report = griffith_check([0.0], [1.0], [1.0], [0.0])
    assert report.G[0] == 0.0 and report.complementarity[0] == 0.0
    assert not report.ok()


def test_release_rate_equivalent_form_on_consistent_pairs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.uniform(0.5, 5.0) * (1 if rng.uniform() < 0.5 else -1)
        k = rng.uniform(0.1, 5.0)
        om = flow_rule(p, k)
        # consistent kinematic pair u_dot = -omega p: (1 - om)/(1 + om) (p - u_dot)^2 / 2
        alt = 0.5 * (1.0 - om) / (1.0 + om) * (p + om * p) ** 2
        G = _G(p, om)
        assert abs(alt - G) <= 1e-10 * max(1.0, abs(G))


def test_measure_identity_all_families(monkeypatch):
    fams = [
        identity_motion(Interval(1.0), 1.0),
        one_d_scaling(Affine(1.0, 0.5), 1.0),
        homothetic(Poly(1.0, 0.2, 0.05), Ball(1.0, 2), 1.0),
        homothetic(Affine(1.0, 0.3), Box((1.0, 0.5)), 1.0),
        homothetic(Affine(1.0, 0.2), Tetrahedron((0.6, 0.8)), 1.0),
        radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0),
        interval_flow(4.0, Affine(1.0, 0.5), 1.0),
    ]
    # the reference faces are built once per family, not once per time
    built = []
    for cls in {type(fam.reference) for fam in fams}:
        def counting(self, resolution=64, _real=cls.boundary_faces):
            built.append(resolution)
            return _real(self, resolution)
        monkeypatch.setattr(cls, "boundary_faces", counting)
    for fam in fams:
        built.clear()
        assert measure_identity_residual(fam) < 1e-6
        assert built == [128]


def test_measure_identity_memory_is_bounded():
    # the 201 times reach boundary_kinematics in blocks of a few thousand face
    # points; one call for every time holds about 10 MB for this box
    fam = homothetic(Affine(1.0, 0.3), Box((1.0, 0.5)), 1.0)
    measure_identity_residual(fam)
    tracemalloc.start()
    try:
        measure_identity_residual(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20
