import tracemalloc

import numpy as np
import pytest

from debondwave import galerkin, kernels
from debondwave.cylinder import INNER_CFL, solve_cylinder
from debondwave.domains import Interval
from debondwave.errors import BlowUp, CflViolation, NotMonotone, QuadratureFailure
from debondwave.expressions import Affine, Const, Poly, SineMode, SpaceTimeField
from debondwave.fd import solve_fd
from debondwave.galerkin import (
    GalerkinSystem,
    Rows,
    SineBasis,
    Trajectory,
    gauss_legendre_panels,
    integrate,
    solve_transformed_modal,
)
from debondwave.motion import identity_motion, one_d_scaling
from debondwave.residuals import weak_residual
from debondwave.transform import PulledBackProblem


def _identity_problem(L=1.0):
    return PulledBackProblem(identity_motion(Interval(L), 1.0))


def _zero(y):
    return np.zeros_like(np.asarray(y, dtype=float))


# --- basis and assembly -----------------------------------------------------


def test_basis_orthonormal():
    basis = SineBasis(1.0, 6)
    y, w = gauss_legendre_panels(1.0, 12)
    W = basis.values(y)
    gram = W.T @ (w[:, None] * W)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12
    assert np.max(np.abs(W[0])) < 1e-12 or abs(y[0]) > 0  # vanishes at the ends
    assert np.max(np.abs(basis.values(np.array([0.0, 1.0])))) < 1e-12


def test_eigenfunction_projection_identity():
    # <phi, w_k> = <phi', w_k'> / ||w_k'||^2 for phi in H^1_0
    basis = SineBasis(1.0, 5)
    y, w = gauss_legendre_panels(1.0, 16)
    phi = Poly(0.0, 1.0, -1.0)  # y (1 - y)
    W = basis.values(y)
    Wp = basis.derivs(y)
    lhs = W.T @ (w * phi(y))
    rhs = (Wp.T @ (w * phi.deriv(y))) / basis.eigenvalues
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _stage_accel(system, t, d, dd):
    """The integrator's stage acceleration at one time t."""
    w = system.stage_weights([t])[0]
    G = system.projected_forcing([t])
    out = np.empty(system.basis.m)
    return system.accel(np.stack((d, dd)), w, None if G is None else G[0], out)


def _direct_accel(system, t, d, dd):
    """2 b d' - (B + a) d + g with each matrix by direct quadrature of line()."""
    W, Wp, wq = system.W, system.Wp, system.wq
    B, a, b, g = system.problem.line(t, system.yq)
    Bmat = Wp.T @ ((wq * B)[:, None] * Wp)
    amat = W.T @ ((wq * a)[:, None] * Wp)
    bmat = W.T @ ((wq * b)[:, None] * Wp)
    return 2.0 * (bmat @ dd) - (Bmat + amat) @ d + W.T @ (wq * g)


def _random_state(m, seed=0):
    d, dd = np.random.default_rng(seed).standard_normal((2, m))
    return d, dd


def test_assemble_identity_matrices():
    # identity family: d'' = -diag(eigenvalues) d, no drift, no forcing
    basis = SineBasis(1.0, 3)
    system = GalerkinSystem(basis, _identity_problem())
    d, dd = _random_state(3)
    assert np.max(np.abs(_stage_accel(system, 0.3, d, dd) + basis.eigenvalues * d)) < 1e-12
    assert np.max(np.abs(_stage_accel(system, 0.3, np.zeros(3), dd))) < 1e-9


def test_assembly_against_brute_force_quadrature():
    # B_11(0) for the scaling family, oracle: 10^6-node trapezoid rule;
    # at t = 0 with d = e_1, d' = 0 and lam'' = 0, d''_1 = -B_11
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    basis = SineBasis(1.0, 4)
    system = GalerkinSystem(basis, PulledBackProblem(fam))
    B11 = -_stage_accel(system, 0.0, np.eye(4)[0], np.zeros(4))[0]
    y = np.linspace(0.0, 1.0, 1_000_001)
    Bvals = 1.0 - (0.5 * y) ** 2
    w1p = np.sqrt(2.0) * np.pi * np.cos(np.pi * y)
    oracle = np.trapezoid(Bvals * w1p * w1p, y)
    assert abs(B11 - oracle) < 1e-8


def test_quadrature_literals_are_the_gauss_legendre_rule():
    # written out so that importing the package makes no LAPACK call
    for got, want in zip(galerkin.QUAD_NODES, np.polynomial.legendre.leggauss(10)):
        assert np.array_equal(got, want)


def test_quadrature_insensitive_to_node_doubling(monkeypatch):
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    basis = SineBasis(1.0, 8)
    assert len(galerkin.QUAD_NODES[0]) == 10
    coarse = GalerkinSystem(basis, PulledBackProblem(fam))
    monkeypatch.setattr(galerkin, "QUAD_NODES", np.polynomial.legendre.leggauss(20))
    fine = GalerkinSystem(basis, PulledBackProblem(fam))
    assert len(fine.yq) == 2 * len(coarse.yq)
    d, dd = _random_state(8)
    for t in (0.0, 0.6):
        a, b = _stage_accel(coarse, t, d, dd), _stage_accel(fine, t, d, dd)
        assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("forcing", [None, SpaceTimeField(SineMode(1.0, 2).bound(1.0),
                                                            Poly(0.5, 1.0, -0.3))])
def test_affine_matrices_match_direct_quadrature(forcing):
    pb = PulledBackProblem(one_d_scaling(Poly(1.0, 0.3, 0.1), 1.0), forcing=forcing)
    system = GalerkinSystem(SineBasis(1.0, 8), pb)
    d, dd = _random_state(8)
    for t in (0.0, 0.45, 1.0):
        got, want = _stage_accel(system, t, d, dd), _direct_accel(system, t, d, dd)
        assert np.max(np.abs(got - want)) < 1e-12


# --- trajectories -------------------------------------------------------------


def _grid_and_modal_trajectories():
    times = np.linspace(0.0, 1.0, 11)
    x = np.linspace(0.0, 1.0, 41)
    vals = np.sin(np.pi * x)[None, :] * np.cos(np.pi * times)[:, None] + x * (1 - x) ** 2
    vels = np.sin(2 * np.pi * x)[None, :] * np.sin(times)[:, None]
    grid = Trajectory(kind="grid", times=times, values=vals, velocities=vels, L=1.0, x=x)
    basis = SineBasis(1.0, 5)
    coeffs = np.cos(np.outer(times, np.arange(1, 6)))
    modal = Trajectory(kind="modal", times=times, values=coeffs, velocities=coeffs ** 2,
                       L=1.0, basis=basis)
    return grid, modal


def test_sampler_matches_eval_row_by_row():
    # the sampler over every stored row, as the ledger and weak_residual read
    # rows, against eval at each stored time (one row through the sampler)
    ys = np.concatenate([np.linspace(0.0, 1.0, 23), [0.0125, 0.9999]])
    for traj in _grid_and_modal_trajectories():
        order, sample = galerkin.sampler(ys, traj.x, traj.basis)
        batch = [np.empty((len(traj.times), len(ys)), order=order) for _ in range(2)]
        sample(traj.values, traj.velocities, *batch)
        for i, t in enumerate(traj.times):
            for got, want in zip(batch, traj.eval(t, ys)[1:]):
                assert np.max(np.abs(got[i] - want)) < 1e-13


_GAUSS_16 = gauss_legendre_panels(1.0, 16)[0]


def _nodes_and_clipped(x):
    # both end cells, every interior cell, nodes, and points clipped past both ends
    return np.concatenate([[-1.0, 0.0], x, 0.5 * (x[:-1] + x[1:]), [x[-1], 2 * x[-1]]])


@pytest.mark.parametrize("x, y, rows, uniform", [
    # the ledger's sizes, Gauss points, rows across two sampler block seams
    pytest.param(np.linspace(0.0, 1.0, 401), _GAUSS_16, 2 * ((1 << 16) // 401) + 3, False,
                 id="400-False"),
    pytest.param(np.linspace(0.0, 1.0, 1025), _GAUSS_16, 2 * ((1 << 16) // 1025) + 3, True,
                 id="1024-True"),
    # equal diffs (numpy's uniform branch) and unequal ones in the last bit
    # (the nonuniform branch), every node and midpoint, 4000 rows
    pytest.param(np.arange(41) * 0.25, _nodes_and_clipped(np.arange(41) * 0.25), 4000, True,
                 id="40-True-clipped"),
    pytest.param(np.linspace(0.0, 1.0, 41), _nodes_and_clipped(np.linspace(0.0, 1.0, 41)),
                 4000, False, id="40-False-clipped"),
])
def test_sampler_keeps_the_bits_of_np_gradient(x, y, rows, uniform):
    # the grid sampler evaluates np.gradient's stencil only at the nodes next
    # to the sample points; v_dot and v_y must keep the bits of the whole
    # np.gradient row interpolated
    d = np.diff(x)
    assert (d == d[0]).all() == uniform
    j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, len(x) - 2)
    assert j[0] == 0 and j[-1] == len(x) - 2  # the end formulas are read
    rng = np.random.default_rng(len(x) - 1)
    V, Vd = rng.standard_normal((2, rows, len(x)))
    order, sample = galerkin.sampler(y, x)
    assert rows > (1 << 16) // max(len(x), len(y))  # block seams are hit
    vd, vy = (np.empty((rows, len(y)), order=order) for _ in range(2))
    sample(V, Vd, vd, vy)
    w = np.clip((y - x[j]) / (x[j + 1] - x[j]), 0.0, 1.0)
    G = np.gradient(V, x, axis=1, edge_order=2)
    want = G[:, j] + w * (G[:, j + 1] - G[:, j])
    assert np.array_equal(vy, want)
    assert np.array_equal(vd, Vd[:, j] + w * (Vd[:, j + 1] - Vd[:, j]))
    # the memory order too: a matmul on v_y sums in an order set by it
    assert vy.flags.f_contiguous == want.flags.f_contiguous


def test_weak_residual_transient_stays_small():
    # weak_residual samples only the rows its stencil reads, a block at a
    # time: no v_dot or v_y table of every stored time
    nt, n = 2000, 800
    x = np.linspace(0.0, 1.0, n + 1)
    values = np.random.default_rng(6).standard_normal((nt, n + 1))
    traj = Trajectory(kind="grid", times=np.arange(nt) * 0.01, values=values,
                      velocities=values, L=1.0, x=x)
    problem = _identity_problem()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        weak_residual(traj, problem)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes


def test_rows_keeps_a_whole_feed_and_copies_chunks():
    times = np.arange(4) * 0.25
    x = np.linspace(0.0, 1.0, 9)
    V, Vd = np.random.default_rng(7).standard_normal((2, 4, 9))
    rows = Rows()
    rows.start(times, "grid", 1.0, x=x)
    rows.feed(V, Vd)
    kept = rows.finish()
    assert kept.values is V and kept.velocities is Vd
    # chunks come through one buffer that the next chunk overwrites
    rows = Rows()
    rows.start(times, "grid", 1.0, x=x)
    buf = np.empty((2, 2, 9))
    for i in (0, 2):
        buf[:] = V[i:i + 2], Vd[i:i + 2]
        rows.feed(*buf)
    buf[:] = np.nan
    copied = rows.finish()
    assert np.array_equal(copied.values, V) and np.array_equal(copied.velocities, Vd)
    # modal rows are sized by the basis, not by grid nodes
    rows = Rows()
    rows.start(times, "modal", 1.0, basis=SineBasis(1.0, 5))
    rows.feed(V[:1, :5], Vd[:1, :5])
    rows.feed(V[1:, :5], Vd[1:, :5])
    modal = rows.finish()
    assert np.array_equal(modal.values, V[:, :5]) and np.array_equal(modal.velocities, Vd[:, :5])
    assert modal.x is None and modal.basis.m == 5


def _value_at_trajectories():
    grid, modal = _grid_and_modal_trajectories()
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    cyl = solve_cylinder(fam, lambda x: np.sin(np.pi * np.clip(x, 0.0, 1.0)), _zero,
                         partitions=10, inner_n=60)
    return {"grid": grid, "modal": modal, "cylinder": cyl.traj}


@pytest.mark.parametrize("kind", ["grid", "modal", "cylinder"])
def test_value_at_is_eval_v_bit_for_bit_and_refuses_the_same_times(kind):
    traj = _value_at_trajectories()[kind]
    ys = np.concatenate([np.linspace(0.0, traj.L, 37), [0.0125, 0.9999]])
    for t in (0.0, 0.3, 0.34, 0.96, 1.0, 1.04):  # stored or within half a step
        assert np.array_equal(traj.value_at(t, ys), traj.eval(t, ys)[0])
    for t in (1.06, -0.06, 3.0):
        for evaluate in (traj.eval, traj.value_at):
            with pytest.raises(ValueError, match="more than half a step"):
                evaluate(t, ys)


def test_sine_tables_keep_the_two_temporary_bits_in_one_table():
    basis = SineBasis(1.0, 64)
    y = np.linspace(0.0, 1.0, 3001)
    table = 8 * len(y) * basis.m
    for build, formula in (
            (basis.values, lambda: basis.scale * np.sin(np.outer(y, basis.freqs))),
            (basis.derivs, lambda: (basis.scale * basis.freqs[None, :]
                                    * np.cos(np.outer(y, basis.freqs))))):
        tracemalloc.start()
        try:
            got = build(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, formula())
        assert peak < 1.25 * table  # the formulas peak at two tables


def test_cross_solver_distances_stay_small_at_the_fine_level():
    # 2.45 MiB traced (5.39 MiB when the modal eval also formed v_dot and
    # v_y, the basis held two temporaries and a grid block 2^16 node-steps)
    import gc

    from debondwave import verify

    args = verify._criterion4_scenario()
    gc.collect()
    tracemalloc.start()
    try:
        verify._cross_solver_distances(*args, 64, 800, 64, 5e-4, 768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_a_zero_horizon_grid_run_keeps_its_first_row():
    # no step: the first row, v0 and v1 at the nodes with zero ends, is fed alone
    problem = PulledBackProblem(one_d_scaling(Affine(1.0, 0.5), 1.0))
    v0 = lambda y: 1.0 + np.sin(np.pi * y)
    v1 = lambda y: 2.0 - np.asarray(y)
    traj = solve_fd(problem, 1.0, 64, v0, v1, dt=1e-3, T=0.0)
    assert np.array_equal(traj.times, [0.0])
    for got, data in ((traj.values, v0), (traj.velocities, v1)):
        want = data(traj.x)
        want[[0, -1]] = 0.0
        assert got.shape == (1, 65) and np.array_equal(got[0], want)


def test_trajectory_eval_refuses_times_between_samples():
    grid, _ = _grid_and_modal_trajectories()
    ys = np.linspace(0.0, 1.0, 5)
    at = lambda i: grid.eval(grid.times[i], ys)[0]
    assert np.array_equal(grid.eval(0.3, ys)[0], at(3))
    assert np.array_equal(grid.eval(0.34, ys)[0], at(3))  # within half a step
    assert np.array_equal(grid.eval(1.04, ys)[0], at(10))
    for t in (1.06, -0.06, 3.0):
        with pytest.raises(ValueError):
            grid.eval(t, ys)


# --- modal integration --------------------------------------------------------


def test_oscillator_position_start():
    traj = solve_transformed_modal(
        _identity_problem(), 1.0,
        lambda y: np.sqrt(2.0) * np.sin(np.pi * y), _zero, m=3, dt=1e-3, T=1.0)
    assert abs(traj.values[-1][0] + 1.0) < 1e-8  # cos(pi) = -1
    assert np.max(np.abs(traj.values[:, 1:])) < 1e-12


def test_oscillator_velocity_start():
    traj = solve_transformed_modal(
        _identity_problem(), 1.0, _zero,
        lambda y: np.sqrt(2.0) * np.sin(np.pi * y), m=3, dt=1e-3, T=0.5)
    assert abs(traj.values[-1][0] - 1.0 / np.pi) < 1e-8


def test_zero_data_stays_zero():
    traj = solve_transformed_modal(_identity_problem(), 1.0, _zero, _zero,
                                   m=4, dt=1e-2, T=0.5)
    assert np.max(np.abs(traj.values)) == 0.0
    g = solve_fd(_identity_problem(), 1.0, 32, _zero, _zero, dt=1e-2, T=0.5)
    assert np.max(np.abs(g.values)) == 0.0


def test_modal_blowup_guard():
    with pytest.raises(BlowUp):
        integrate(GalerkinSystem(SineBasis(1.0, 3), _identity_problem()),
                  np.array([1.0, 0.0, 0.0]), np.zeros(3), dt=1.0, T=60.0)


def test_modal_blowup_guard_reads_the_velocity_row():
    # d stays near 2e9 after one step while d' is still 2e12
    system = GalerkinSystem(SineBasis(1.0, 3), _identity_problem())
    with pytest.raises(BlowUp, match="at t = 0.001;"):
        integrate(system, np.zeros(3), np.array([2e12, 0.0, 0.0]), dt=1e-3, T=0.01)


def test_modal_nan_initial_state_blows_up_at_the_first_step():
    system = GalerkinSystem(SineBasis(1.0, 3), _identity_problem())
    with pytest.raises(BlowUp, match=r"modal state norm nan at t = 0\.01;"):
        integrate(system, np.array([1.0, np.nan, 0.0]), np.zeros(3), dt=0.01, T=0.1)


def test_solvers_end_at_the_horizon_for_a_non_dividing_dt():
    # dt = 0.03 does not divide T = 1: 34 steps of 1/34, not 34 of 0.03
    u0 = SineMode(1.0, 1).bound(1.0)
    runs = [solve_transformed_modal(_identity_problem(), 1.0, u0, _zero, m=4, dt=0.03, T=1.0),
            solve_fd(_identity_problem(), 1.0, 16, u0, _zero, dt=0.03, T=1.0)]
    for traj in runs:
        assert len(traj.times) == 35
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)
        assert traj.meta["dt"] == 1.0 / 34


class _NanWindow(Poly):
    """A profile that is NaN on (0.22, 0.28) only."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.22) & (x < 0.28), np.nan, super().__call__(x))


@pytest.mark.parametrize("where", ["stretch", "forcing"])
def test_modal_non_finite_stage_time_raises(where):
    # dt = 0.1: the window holds one stage time, 0.2 + 0.05 (mid-step of step 2)
    if where == "stretch":
        pb = PulledBackProblem(one_d_scaling(_NanWindow(1.0, 0.3), 1.0))
        what = "coefficients"
    else:
        pb = PulledBackProblem(one_d_scaling(Poly(1.0, 0.3), 1.0),
                               SpaceTimeField(Const(1.0), _NanWindow(1.0)))
        what = "forcing"
    system = GalerkinSystem(SineBasis(1.0, 4), pb)
    with pytest.raises(QuadratureFailure, match=f"non-finite {what} at t = 0.25$"):
        integrate(system, np.ones(4), np.zeros(4), dt=0.1, T=0.5)


def _ref_accel(system, t, d, dd):
    """The per-stage matrices of the stage-by-stage integrator."""
    lam, dlam, ddlam = system.problem.fam.stretch(t)
    rate = dlam / lam
    Bmat = system.K0 / (lam * lam) - (rate * rate) * system.K2
    amat = (-ddlam / lam) * system.A1
    bmat = rate * system.A1
    gvec = 0.0
    if system.problem.forcing is not None:
        g = system.problem.line(t, system.yq)[3]
        gvec = system.W.T @ (system.wq * g)
    return 2.0 * (bmat @ dd) - (Bmat + amat) @ d + gvec


def _ref_integrate(system, d, dd, dt, T, store_every):
    """Reference: RK4 with the matrices formed at every stage."""
    nsteps = int(round(T / dt))
    vals, vels, times = [d], [dd], [0.0]
    t = 0.0
    for k in range(nsteps):
        k1d, k1v = dd, _ref_accel(system, t, d, dd)
        d2 = d + 0.5 * dt * k1d
        v2 = dd + 0.5 * dt * k1v
        k2d, k2v = v2, _ref_accel(system, t + 0.5 * dt, d2, v2)
        d3 = d + 0.5 * dt * k2d
        v3 = dd + 0.5 * dt * k2v
        k3d, k3v = v3, _ref_accel(system, t + 0.5 * dt, d3, v3)
        d4 = d + dt * k3d
        v4 = dd + dt * k3v
        k4d, k4v = v4, _ref_accel(system, t + dt, d4, v4)
        d = d + (dt / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        dd = dd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t = (k + 1) * dt
        if (k + 1) % store_every == 0:
            vals.append(d)
            vels.append(dd)
            times.append(t)
    return np.array(times), np.array(vals), np.array(vels)


@pytest.mark.parametrize("problem", [
    PulledBackProblem(one_d_scaling(Poly(1.0, 0.3, 0.1), 1.0)),
    PulledBackProblem(identity_motion(Interval(1.0), 1.0)),
    PulledBackProblem(one_d_scaling(Poly(1.0, 0.3, 0.1), 1.0),
                      SpaceTimeField(SineMode(1.0, 2).bound(1.0), Poly(0.5, 1.0, -0.3))),
], ids=["scaling", "identity", "forced"])
def test_integrate_matches_per_stage_matrix_loop(problem):
    system = GalerkinSystem(SineBasis(1.0, 8), problem)
    d0, dd0 = _random_state(8, seed=1)
    traj = integrate(system, d0, dd0, dt=2e-3, T=0.4, store_every=4)
    times, vals, vels = _ref_integrate(system, d0, dd0, 2e-3, 0.4, 4)
    assert np.array_equal(traj.times, times)
    for got, want in ((traj.values, vals), (traj.velocities, vels)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_integrate_samples_the_times_solve_fd_fills(monkeypatch):
    # one RK4 slot rule: the modal weights are taken at the 2 nsteps + 1
    # half-step times at which the grid solver fills its coefficients
    problem = PulledBackProblem(one_d_scaling(Poly(1.0, 0.3, 0.1), 1.0))
    weighted, filled = [], []
    stage_weights, line = GalerkinSystem.stage_weights, problem.line

    def weights_at(self, ts):
        weighted.append(np.array(ts))
        return stage_weights(self, ts)

    def line_into(t, y, out=None):
        if out is not None and out[2] is not None:  # the b fill of a block
            filled.append(np.array(t))
        return line(t, y, out=out)

    monkeypatch.setattr(GalerkinSystem, "stage_weights", weights_at)
    monkeypatch.setattr(problem, "line", line_into)
    v0 = lambda y: np.sin(np.pi * np.asarray(y))
    solve_transformed_modal(problem, 1.0, v0, _zero, m=8, dt=3e-3, T=0.3)
    solve_fd(problem, 1.0, 64, v0, _zero, dt=3e-3, T=0.3)
    assert len(weighted) == len(filled) == 1  # 100 steps: one block of the grid fill
    assert len(filled[0]) == 201
    assert np.array_equal(weighted[0], filled[0])


# --- grid solver ---------------------------------------------------------------


def test_fd_standing_wave():
    traj = solve_fd(_identity_problem(), 1.0, 200,
                    lambda y: np.sin(np.pi * y), _zero, dt=2e-3, T=0.5)
    i = np.argmin(np.abs(traj.times - 0.5))
    got = np.interp(0.5, traj.x, traj.values[i])
    assert abs(got) < 5e-3  # exact: cos(pi/2) sin(pi/2) = 0


def test_fd_cfl_guard():
    with pytest.raises(CflViolation):
        solve_fd(_identity_problem(), 1.0, 64, _zero, _zero, dt=0.1, T=0.5)


def _criterion4_grid_run(store_every=1):
    pb = PulledBackProblem(one_d_scaling(Affine(1.0, 0.5), 1.0))
    return solve_fd(pb, 1.0, 800, lambda y: np.sin(np.pi * y), _zero, dt=5e-4, T=1.0,
                    store_every=store_every)


@pytest.fixture(scope="module")
def every_step_grid_run():
    return _criterion4_grid_run()


@pytest.mark.parametrize("store_every", [1, 100, 2000])
def test_solve_fd_coefficients_stay_small_beside_the_trajectory(store_every, every_step_grid_run):
    import tracemalloc

    # 2000 steps at n = 800: all 4001 half-step slices of the four
    # coefficients at once would take about 100 MB, and so would a block of
    # 2000 steps that a block size tied to store_every asks for
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = _criterion4_grid_run(store_every)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (traj.times, traj.values, traj.velocities, traj.x))
    assert peak - held < 8e6
    # a stored step may fall anywhere in a coefficient block
    assert np.array_equal(traj.values, every_step_grid_run.values[::store_every])
    assert np.array_equal(traj.velocities, every_step_grid_run.velocities[::store_every])


def test_modal_grid_agreement_moving():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    v0 = lambda y: np.sin(np.pi * y)
    modal = solve_transformed_modal(pb, 1.0, v0, _zero, m=32, dt=1e-3, T=1.0,
                                    store_every=10)
    grid = solve_fd(pb, 1.0, 400, v0, _zero, dt=1e-3, T=1.0, store_every=10)
    ys = np.linspace(0.0, 1.0, 801)[1:-1]
    w = ys[1] - ys[0]
    worst = 0.0
    for i in range(0, len(modal.times), 10):
        vm = modal.value_at(modal.times[i], ys)
        vg = grid.value_at(grid.times[i], ys)
        worst = max(worst, np.sqrt(np.sum((vm - vg) ** 2) * w))
    assert worst < 1e-2


# --- cylinder scheme ------------------------------------------------------------


def test_cylinder_constant_domain_matches_plain_solve():
    fam = identity_motion(Interval(1.0), 1.0)
    u0 = lambda x: np.sin(np.pi * np.asarray(x, dtype=float))
    run = solve_cylinder(fam, u0, _zero, partitions=4, inner_n=64)
    # same stepper, same grid, same dt sequence: partitioning is vacuous;
    # each partition of 0.25 takes the fewest steps of at most 0.8 h
    dt = 0.25 / np.ceil(0.25 / (INNER_CFL * (1.0 / 64)))
    ref = solve_fd(_identity_problem(), 1.0, 64, u0, _zero, dt=dt, T=1.0)
    assert np.max(np.abs(run.traj.values[-1] - ref.values[-1])) < 1e-10


def test_cylinder_single_partition_is_fixed_solve():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    u0 = lambda x: np.sin(np.pi * np.clip(x, 0.0, 1.0))
    run = solve_cylinder(fam, u0, _zero, partitions=1, inner_n=96)
    # frozen at l(0) = 1 for the whole horizon
    assert np.allclose(run.traj.front, run.traj.front[0])


def test_cylinder_rejects_shrinking_domain():
    fam = one_d_scaling(Affine(1.0, 0.0), 1.0)
    fam.domain_measure = lambda t: 1.0 - 0.3 * t
    with pytest.raises(NotMonotone):
        solve_cylinder(fam, _zero, _zero, partitions=4, inner_n=64)


def test_cylinder_convergence_to_transformed_solution():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    v0 = lambda y: np.sin(np.pi * y)
    ref = solve_transformed_modal(pb, 1.0, v0, _zero, m=32, dt=1e-3, T=1.0,
                                  store_every=1000)
    u0 = lambda x: np.sin(np.pi * np.clip(x, 0.0, 1.0))

    def u1(x):
        x = np.asarray(x, dtype=float)
        return -(x / 2.0) * np.pi * np.cos(np.pi * x)

    xs = np.linspace(0.0, 1.5, 1501)[1:-1]
    w = xs[1] - xs[0]
    uref = ref.eval(1.0, xs / 1.5)[0]
    errs = []
    for parts in (8, 16, 32):
        run = solve_cylinder(fam, u0, u1, partitions=parts, inner_n=192)
        i = np.argmin(np.abs(run.traj.times - 1.0))
        uc = np.interp(xs, run.traj.x, run.traj.values[i])
        errs.append(np.sqrt(np.sum((uc - uref) ** 2) * w))
    assert errs[0] > errs[1] > errs[2]


def test_cylinder_keeps_the_partition_ends_of_a_chained_run():
    # the parent scheme by hand: one UnitStepper per partition, every inner
    # step stored; the solver keeps only the rows at the partition ends
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    u0 = lambda x: np.sin(np.pi * np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def u1(x):
        x = np.asarray(x, dtype=float)
        return -(x / 2.0) * np.pi * np.cos(np.pi * x)

    K, inner_n = 64, 768
    tracemalloc.start()
    try:
        run = solve_cylinder(fam, u0, u1, partitions=K, inner_n=inner_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # every inner step of 768 cells would take 8.1 MB

    tgrid = np.linspace(0.0, 1.0, K + 1)
    h = 1.5 / inner_n
    marks = np.maximum.accumulate(np.clip(np.round(fam.domain_measure(tgrid) / h).astype(int),
                                          8, inner_n))
    steps = np.ceil(np.diff(tgrid) / (INNER_CFL * h)).astype(int)
    x = np.linspace(0.0, 1.5, inner_n + 1)
    V, Vd = np.zeros((2, steps.sum() + 1, inner_n + 1))
    V[0, :marks[0]] = u0(x[:marks[0]])
    Vd[0, :marks[0]] = u1(x[:marks[0]])
    ends = np.concatenate([[0], np.cumsum(steps)])
    for k in range(K):
        r, n, m = ends[k], steps[k], marks[k] + 1
        stepper = kernels.UnitStepper(h, (tgrid[k + 1] - tgrid[k]) / n, m)
        stepper.state[:] = V[r, :m], Vd[r, :m]
        assert stepper.run(n, 1, V[r:r + n + 1, :m], Vd[r:r + n + 1, :m]) == n + 1
    tr = run.traj
    assert np.array_equal(tr.values, V[ends]) and np.array_equal(tr.velocities, Vd[ends])
    assert np.array_equal(tr.times, tgrid)
    assert np.array_equal(tr.front, np.concatenate([marks[:1], marks[:-1]]) * h)


def test_cylinder_energy_never_increases():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    u0 = lambda x: np.sin(np.pi * np.clip(x, 0.0, 1.0))

    def u1(x):
        x = np.asarray(x, dtype=float)
        return -(x / 2.0) * np.pi * np.cos(np.pi * x)

    run = solve_cylinder(fam, u0, u1, partitions=16, inner_n=192)
    assert run.energy_margin() <= 1e-8 * run.energies[0]


# --- weak residuals --------------------------------------------------------------


def _harmonic_trajectory(dt, m=3):
    basis = SineBasis(1.0, m)
    ts = np.arange(0.0, 1.0 + 1e-12, dt)
    vals = np.zeros((len(ts), m))
    vels = np.zeros((len(ts), m))
    vals[:, 0] = np.cos(np.pi * ts)
    vels[:, 0] = -np.pi * np.sin(np.pi * ts)
    return Trajectory(kind="modal", times=ts, values=vals, velocities=vels,
                      L=1.0, basis=basis)


def test_weak_residual_exact_harmonic():
    traj = _harmonic_trajectory(1e-3)
    assert weak_residual(traj, _identity_problem(), n_probes=3) < 1e-6


def test_weak_residual_zero_trajectory():
    basis = SineBasis(1.0, 2)
    ts = np.linspace(0.0, 1.0, 101)
    z = np.zeros((101, 2))
    traj = Trajectory(kind="modal", times=ts, values=z, velocities=z.copy(),
                      L=1.0, basis=basis)
    assert weak_residual(traj, _identity_problem(), n_probes=2) == 0.0


def test_weak_residual_flags_corruption():
    traj = _harmonic_trajectory(1e-3)
    traj.values[:, 0] *= 1.1  # positions only: no longer a solution
    assert weak_residual(traj, _identity_problem(), n_probes=3) > 0.01


def test_weak_residual_decreases_with_dt():
    coarse = weak_residual(_harmonic_trajectory(4e-3), _identity_problem(), n_probes=1)
    fine = weak_residual(_harmonic_trajectory(2e-3), _identity_problem(), n_probes=1)
    assert coarse / fine >= 2.0


def test_integrated_trajectory_passes_weak_residual():
    pb = _identity_problem()
    traj = solve_transformed_modal(pb, 1.0, lambda y: np.sin(np.pi * y), _zero,
                                   m=8, dt=1e-3, T=1.0)
    assert weak_residual(traj, pb, n_probes=8) < 1e-5


def _weak_residual_loop(traj, problem, n_probes):
    """Reference: one stored time and one probe at a time."""
    basis = SineBasis(traj.L, n_probes)
    yq, wq = gauss_legendre_panels(traj.L, max(8, 2 * n_probes))
    nt = len(traj.times)
    dt = traj.times[1] - traj.times[0]
    worst = 0.0
    for i in range(2, nt - 2, max(1, (nt - 4) // 200)):
        t = traj.times[i]
        _, vd, vy = traj.eval(t, yq)
        vdd = sum(c * traj.eval(traj.times[i + k], yq)[1]
                  for k, c in ((2, -1), (1, 8), (-1, -8), (-2, 1)))
        vdd = vdd / (12.0 * dt)
        B, a, b, g = problem.line(t, yq)
        _, divb = problem.line_rates(t, yq)
        for phi, phip in zip(basis.values(yq).T, basis.derivs(yq).T):
            r = np.sum(wq * ((vdd + a * vy - g) * phi + B * vy * phip
                             + 2.0 * vd * (divb * phi + b * phip)))
            worst = max(worst, abs(float(r)))
    return worst


def test_weak_residual_matches_time_by_time_loop():
    forced = PulledBackProblem(one_d_scaling(Affine(1.0, 0.5), 1.0),
                               lambda t, x: np.sin(3.0 * x) * np.cos(t))
    v0 = lambda y: np.sin(np.pi * np.asarray(y))
    cases = [
        (_harmonic_trajectory(1e-3), _identity_problem(), 3),
        (solve_transformed_modal(forced, 1.0, v0, _zero, m=8, dt=2e-3, T=1.0), forced, 4),
        (solve_fd(forced, 1.0, 128, v0, _zero, dt=2e-3, T=1.0), forced, 5),
    ]
    for traj, pb, n_probes in cases:
        want = _weak_residual_loop(traj, pb, n_probes)
        assert want > 0.0
        assert abs(weak_residual(traj, pb, n_probes=n_probes) - want) <= 1e-13 * max(1.0, want)


def test_galerkin_reprojection_reproduces_coefficients():
    pb = _identity_problem()
    basis = SineBasis(1.0, 8)
    traj = solve_transformed_modal(pb, 1.0, lambda y: np.sin(np.pi * y) + 0.2 * np.sin(3 * np.pi * y),
                                   _zero, m=8, dt=2e-3, T=0.2)
    i = len(traj.times) // 2
    coeffs = basis.project(lambda y: traj.value_at(traj.times[i], y))
    assert np.max(np.abs(coeffs - traj.values[i])) < 1e-12


def test_refinement_reduces_cross_solver_gap():
    # halving dt and doubling m and n shrinks the modal/grid discrepancy
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    pb = PulledBackProblem(fam)
    v0 = lambda y: np.sin(np.pi * y)
    ys = np.linspace(0.0, 1.0, 401)[1:-1]
    w = ys[1] - ys[0]
    gaps = []
    for m, n, dt in ((16, 100, 4e-3), (32, 200, 2e-3)):
        modal = solve_transformed_modal(pb, 1.0, v0, _zero, m=m, dt=dt, T=1.0)
        grid = solve_fd(pb, 1.0, n, v0, _zero, dt=dt, T=1.0)
        vm = modal.eval(1.0, ys)[0]
        vg = grid.eval(1.0, ys)[0]
        gaps.append(np.sqrt(np.sum((vm - vg) ** 2) * w))
    assert gaps[0] / gaps[1] >= 1.3


def test_cylinder_run_is_bit_for_bit():
    # exact values of the criterion-4 scenario on 8 partitions, so any
    # change to the store, the step rule or the restarts shows here
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    u0 = lambda x: np.sin(np.pi * np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def u1(x):
        x = np.asarray(x, dtype=float)
        return -(x / 2.0) * np.pi * np.cos(np.pi * x)

    run = solve_cylinder(fam, u0, u1, partitions=8, inner_n=64)
    tr = run.traj
    assert tr.values.shape == tr.velocities.shape == (9, 65)
    assert [repr(float(tr.times[i])) for i in (4, 8)] == ["0.5", "1.0"]
    assert [repr(float(tr.values[i, 20])) for i in (4, 8)] == [
        "0.1351719026341693", "-0.746173078113004"]
    assert [repr(float(tr.velocities[i, 40])) for i in (4, 8)] == [
        "-0.5094859908521155", "-1.1816876835907015"]
    assert [repr(float(tr.front[i])) for i in (4, 8)] == ["1.1953125", "1.4296875"]
    assert repr(float(np.sum(tr.values))) == "28.94024223927611"
    assert repr(float(np.sum(tr.velocities))) == "-485.48367272942835"
    assert [repr(float(e)) for e in run.energies] == [
        "2.672613287276652", "2.6709564305417914", "2.6542751171690773",
        "2.6401570150129743", "2.6148206059049777", "2.591387245834728",
        "2.5757267506480757", "2.563200853236169", "2.553759520839059"]
    assert run.energy_margin() == 0.0
