import numpy as np
import pytest

from debondwave.domains import Annulus, Ball, Box, Interval, Tetrahedron
from debondwave.errors import BoundaryMismatch, NotElliptic
from debondwave.expressions import Affine, Const, Poly, SineMode, SpaceTimeField
from debondwave.galerkin import Trajectory
from debondwave.motion import (
    homothetic,
    identity_motion,
    interval_flow,
    one_d_scaling,
    radial_annulus_flow,
)
from debondwave.transform import (
    PulledBackProblem,
    ellipticity_constant,
    lift_dirichlet,
    pullback_initial,
    pushforward,
)
from debondwave.verify import _builtin_families


def _scaling():
    return one_d_scaling(Affine(1.0, 0.5), 1.0)


def test_identity_coefficients():
    fam = identity_motion(Interval(1.0), 1.0)
    f = SpaceTimeField(Poly(0.0, 1.0), Poly(1.0, 1.0))  # (1 + t) x
    pb = PulledBackProblem(fam, forcing=f)
    ys = np.linspace(0.0, 1.0, 9)
    B, a, b, g = pb.line(0.5, ys)
    assert np.allclose(B, 1.0)
    assert np.max(np.abs(a)) < 1e-10
    assert np.allclose(b, 0.0)
    assert np.allclose(g, 1.5 * ys)


def test_scaling_sample_hand_values():
    pb = PulledBackProblem(_scaling())
    B, _, b, _ = pb.line(1.0, np.array([0.5]))
    assert abs(B[0] - 5.0 / 12.0) < 1e-12
    assert abs(b[0] - 1.0 / 6.0) < 1e-12


def test_scaling_closed_form_coefficients():
    pb = PulledBackProblem(_scaling())
    ys = np.linspace(0.0, 1.0, 33)
    for t in (0.0, 0.37, 1.0):
        B, a, b, _ = pb.line(t, ys)
        l = 1.0 + 0.5 * t
        assert np.max(np.abs(B - (1.0 - (0.5 * ys) ** 2) / l ** 2)) < 1e-10
        assert np.max(np.abs(b - 0.5 * ys / l)) < 1e-10
        assert np.max(np.abs(a)) < 1e-10  # l'' = 0


def test_a_matches_analytic_value_for_curved_profile():
    prof = Poly(1.0, 0.3, 0.1)  # l'' = 0.2
    pb = PulledBackProblem(one_d_scaling(prof, 1.0))
    ys = np.linspace(0.0, 1.0, 17)
    for t in (0.0, 0.5, 1.0):
        _, a, _, _ = pb.line(t, ys)
        assert np.max(np.abs(a + 0.2 * ys / prof(t))) < 1e-6


ONE_D_FAMILIES = {
    "identity": lambda: identity_motion(Interval(1.0), 1.0),
    "scaling-affine": lambda: one_d_scaling(Affine(1.0, 0.5), 1.0),
    "scaling-poly": lambda: one_d_scaling(Poly(1.0, 0.3, 0.1), 1.0),
    "interval-flow": lambda: interval_flow(4.0, Affine(1.0, 0.5), 1.0),
}


@pytest.mark.parametrize("name", sorted(ONE_D_FAMILIES))
def test_closed_form_line_matches_generic_path(name, paper_formula):
    fam = ONE_D_FAMILIES[name]()
    pb = PulledBackProblem(fam)
    ys = np.linspace(0.0, fam.reference.length, 17)
    for t in (0.0, 0.25, 0.6, 1.0):
        B, a, b, _ = pb.line(t, ys)
        Bg, ag, bg = paper_formula(fam, t, ys.reshape(-1, 1))
        assert np.max(np.abs(B - Bg[:, 0, 0])) < 1e-12
        assert np.max(np.abs(b - bg[:, 0])) < 1e-12
        assert np.max(np.abs(a - ag[:, 0])) < 1e-6  # finite-differenced on the formula side


@pytest.mark.parametrize("name", sorted(ONE_D_FAMILIES))
def test_array_time_line_stacks_scalar_calls(name):
    fam = ONE_D_FAMILIES[name]()
    pb = PulledBackProblem(fam, forcing=SpaceTimeField(Poly(0.0, 1.0, 2.0), Affine(1.0, -0.5)))
    ys = np.linspace(0.0, fam.reference.length, 13)
    ts = np.linspace(0.0, 1.0, 7)
    batch = pb.line(ts, ys)
    for k, arr in enumerate(batch):
        assert arr.shape == (7, 13)
        stacked = np.array([pb.line(t, ys)[k] for t in ts])
        assert np.max(np.abs(arr - stacked)) <= 1e-15
    rates = pb.line_rates(ts, ys)
    for k, arr in enumerate(rates):
        assert arr.shape == (7, 13)
        stacked = np.array([pb.line_rates(t, ys)[k] for t in ts])
        assert np.max(np.abs(arr - stacked)) <= 1e-15


def test_line_fills_given_arrays_in_place():
    pb = PulledBackProblem(_scaling())
    ts = np.linspace(0.0, 1.0, 5)
    ys = np.linspace(0.0, 1.0, 9)
    B = np.full((5, 9), np.nan)
    b = np.full((5, 9), np.nan)
    out = pb.line(ts, ys, out=(B, None, b, None))
    assert out[0] is B and out[2] is b and out[1] is None and out[3] is None
    want = pb.line(ts, ys)
    assert np.array_equal(B, want[0]) and np.array_equal(b, want[2])


def test_B_is_exactly_symmetric():
    fam = radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)
    pb = PulledBackProblem(fam)
    Y = fam.reference.interior_grid(9)
    B = pb.diffusion(0.6, Y)
    assert np.array_equal(B, np.swapaxes(B, 1, 2))


def test_pullback_initial():
    fam = _scaling()
    u0 = SineMode(1.0, 1).bound(1.0)

    class U1:
        def __call__(self, y):
            y = np.asarray(y, dtype=float)
            return -(y / 2.0) * np.pi * np.cos(np.pi * y)

    data = pullback_initial(fam, u0, U1())
    ys = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(data.v1(ys))) < 1e-12  # built to cancel

    ident = identity_motion(Interval(1.0), 1.0)
    data2 = pullback_initial(ident, u0, U1())
    assert np.allclose(data2.v1(ys), U1()(ys))

    data3 = pullback_initial(fam, Const(0.0), U1())
    assert np.allclose(data3.v1(ys), U1()(ys))


def test_ellipticity_constant():
    assert abs(ellipticity_constant(identity_motion(Interval(1.0), 1.0)) - 1.0) < 1e-12
    cb = ellipticity_constant(_scaling(), nt=21, npts=41)
    assert abs(cb - 1.0 / 3.0) < 1e-10
    with pytest.raises(NotElliptic):
        ellipticity_constant(one_d_scaling(Affine(1.0, 1.2), 1.0))


@pytest.mark.parametrize("profile, reference", [
    (Poly(1.0, 0.2, 0.05), Ball(1.0, 2)),
    (Affine(1.0, 0.3), Box((1.0, 0.5))),
    (Affine(1.0, 0.2), Tetrahedron((0.6, 0.8))),
], ids=["ball", "box", "tetra"])
def test_ellipticity_constant_of_homotheties(profile, reference):
    # B = I/lam^2 - (lam'/lam)^2 y y^T has smallest eigenvalue
    # 1/lam^2 - (lam'/lam)^2 |y|^2, minimised over the same sample grid
    fam = homothetic(profile, reference, 1.0)
    ts = np.linspace(0.0, 1.0, 21)
    r2 = np.sum(reference.interior_grid(41) ** 2, axis=1)
    lam, rate = profile(ts), profile.deriv(ts) / profile(ts)
    want = float(np.min(1.0 / lam[:, None] ** 2 - rate[:, None] ** 2 * r2[None, :]))
    assert abs(ellipticity_constant(fam) - want) < 1e-12


def test_ellipticity_constant_of_sublevel_annulus():
    assert ellipticity_constant(radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)) > 0.0


def test_pushforward_round_trip_identity():
    fam = identity_motion(Interval(1.0), 1.0)
    times = np.linspace(0.0, 1.0, 5)
    x = np.linspace(0.0, 1.0, 33)
    vals = np.sin(np.pi * x)[None, :] * np.cos(times)[:, None]
    vels = np.zeros_like(vals)
    traj = Trajectory(kind="grid", times=times, values=vals, velocities=vels, L=1.0, x=x)

    def traj_eval(t, y):
        v, vd, vy = traj.eval(t, y[:, 0])
        return v, vd, vy.reshape(-1, 1)

    u, ud, gu, outside = pushforward(fam, traj_eval, 0.5, x[5:12])
    assert np.max(np.abs(u - vals[2][5:12])) < 1e-12
    assert not outside.any()


def test_pushforward_linear_field_and_zero_extension():
    fam = _scaling()
    x = np.linspace(0.0, 1.0, 65)
    times = np.array([0.0, 0.5, 1.0])
    vals = np.tile(x, (3, 1))  # v(t, y) = y
    traj = Trajectory(kind="grid", times=times, values=vals,
                      velocities=np.zeros_like(vals), L=1.0, x=x)

    def traj_eval(t, y):
        v, vd, vy = traj.eval(t, y[:, 0])
        return v, vd, vy.reshape(-1, 1)

    t = 1.0  # l = 1.5; u(t, x) = x / 1.5, grad u = 1/1.5
    pts = np.array([0.3, 0.9, 1.2])
    u, ud, gu, outside = pushforward(fam, traj_eval, t, pts)
    assert np.max(np.abs(u - pts / 1.5)) < 1e-10
    assert np.max(np.abs(gu[:, 0] - 1.0 / 1.5)) < 1e-8
    assert not outside.any()

    u2, _, _, outside2 = pushforward(fam, traj_eval, t, np.array([1.7]))
    assert outside2.all() and u2[0] == 0.0


def test_lift_dirichlet():
    U0 = Poly(0.0, 1.0, -1.0)  # x (1 - x); vanishes on the fixed end like W(0,.)
    U1 = Const(0.0)
    W0 = SpaceTimeField(Const(0.0))
    f, u0, u1 = lift_dirichlet(W0, U0, U1, fixed_points=[0.0])
    xs = np.linspace(0.0, 1.0, 5)
    assert np.allclose(f(0.3, xs), 0.0)
    assert np.allclose(u0(xs), U0(xs))
    assert np.allclose(u1(xs), U1(xs))

    # W(t,x) = t^2 q(x) with q = (1-x)^2 x^0 ... taper q(1) = 0
    q = Poly(1.0, -2.0, 1.0)
    W = SpaceTimeField(q, Poly(0.0, 0.0, 1.0))
    f, u0, u1 = lift_dirichlet(W, U0, U1, fixed_points=[0.0],
                               moving_points=([0.2, 0.8], [1.0, 1.0]))
    t, x = 0.7, 0.25
    assert abs(f(t, x) - (t ** 2 * 2.0 - 2.0 * q(x))) < 1e-13
    assert abs(u1(0.3) - (U1(0.3) - 0.0)) < 1e-13

    with pytest.raises(BoundaryMismatch):
        lift_dirichlet(SpaceTimeField(Const(0.5)), U0, U1, fixed_points=[0.0])


def test_lifted_load_solution_matches_dalembert():
    # U solves the loaded problem with U(t,0) = t^2 q(0); u = U - W is
    # homogeneous with forcing f = Lap W - W_tt, checked against the exact
    # cone formula applied to each separable piece of f
    from debondwave.characteristics import dalembert_fixed
    from debondwave.fd import solve_fd

    q = Poly(1.0, -2.0, 1.0)  # (1 - x)^2, vanishes at the moving end x = 1
    W = SpaceTimeField(q, Poly(0.0, 0.0, 1.0))
    f, u0, u1 = lift_dirichlet(W, Const(0.0), Const(0.0), fixed_points=[0.0])
    pb = PulledBackProblem(identity_motion(Interval(1.0), 0.5), forcing=f)
    traj = solve_fd(pb, 1.0, 256, u0, u1, dt=1.25e-3, T=0.5)

    # f = Lap W - W_tt = 2 t^2 - 2 q(x); apply the cone formula per piece
    f_a = SpaceTimeField(Const(1.0), Poly(0.0, 0.0, 2.0))
    f_b = SpaceTimeField(q, Const(-2.0))
    for (t, x) in [(0.25, 0.4), (0.5, 0.7)]:
        exact = (dalembert_fixed(1.0, Const(0.0), Const(0.0), f_a, t, x)
                 + dalembert_fixed(1.0, Const(0.0), Const(0.0), f_b, t, x))
        i = np.argmin(np.abs(traj.times - t))
        got = np.interp(x, traj.x, traj.values[i])
        assert abs(got - exact) < 5e-4


def test_matched_families_give_matching_coefficients(paper_formula):
    # the scaling family and the sublevel realization of the same tube must
    # produce the same transformed coefficients, not just the same omega:
    # the scaling's closed form against the formula on the flow's map fields
    prof = Affine(1.0, 0.5)
    pa = PulledBackProblem(one_d_scaling(prof, 1.0))
    flow = interval_flow(4.0, prof, 1.0)
    ys = np.linspace(0.05, 0.95, 19)
    for t in (0.0, 0.4, 1.0):
        Ba, aa, ba, _ = pa.line(t, ys)
        Bb, ab, bb = paper_formula(flow, t, ys.reshape(-1, 1))
        assert np.max(np.abs(Ba - Bb[:, 0, 0])) < 1e-12
        assert np.max(np.abs(ba - bb[:, 0])) < 1e-12
        assert np.max(np.abs(aa - ab[:, 0])) < 1e-6  # finite-differenced on the formula side


@pytest.mark.parametrize("name", ["homothetic_box", "homothetic_tetra"])
def test_pushforward_zero_extends_outside_boxes_and_simplices(name):
    fam = _builtin_families()[name]

    def traj_eval(t, y):  # v = 1 on the reference domain
        return np.ones(len(y)), np.zeros(len(y)), np.zeros_like(y)

    x = np.array([[5.0, 5.0], [0.1, 0.1]])
    u, ud, gu, outside = pushforward(fam, traj_eval, 0.5, x)
    assert outside.tolist() == [True, False]
    assert u.tolist() == [0.0, 1.0]
    assert not ud.any() and not gu.any()


@pytest.mark.parametrize("reference, inside, outside", [
    (Interval(1.0), [[0.0], [1.0]], [[-1e-9], [1.0 + 1e-9]]),
    (Ball(1.0, 2), [[0.0, 0.0], [0.6, 0.8]], [[0.8, 0.7]]),
    (Annulus(0.5, 1.0), [[0.5, 0.0], [0.0, -1.0]], [[0.1, 0.1], [1.0, 0.1]]),
    (Box((1.0, 0.5)), [[0.0, 0.0], [1.0, 0.5]], [[0.5, 0.6], [-0.1, 0.2], [5.0, 5.0]]),
    (Tetrahedron((0.6, 0.8)), [[0.0, 0.0], [0.6, 0.8]], [[1.0, 0.8], [-0.1, 0.1], [5.0, 5.0]]),
])
def test_reference_domains_contain_their_closure_only(reference, inside, outside):
    assert reference.contains(np.array(inside)).all()
    assert not reference.contains(np.array(outside)).any()
    # any leading axes, as per-time points have
    assert reference.contains(np.array(inside)[None]).shape == (1, len(inside))
