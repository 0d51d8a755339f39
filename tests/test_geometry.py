import warnings

import numpy as np
import pytest

from debondwave import verify
from debondwave.domains import Ball, BoundaryFace, Box, Interval, Tetrahedron
from debondwave.errors import (
    DegenerateNormal,
    FlowEscape,
    LevelOutOfRange,
    NonPositiveScale,
    ProfileStart,
)
from debondwave.expressions import Affine, Const, Poly
from debondwave.motion import (
    boundary_kinematics,
    homothetic,
    identity_motion,
    interval_flow,
    one_d_scaling,
    radial_annulus_flow,
    validate,
)
from debondwave.transform import PulledBackProblem
from debondwave.verify import _builtin_families

SQ2 = np.sqrt(2.0)


# --- stretch maps -----------------------------------------------------------


def test_identity_maps_are_trivial():
    fam = identity_motion(Interval(1.0), 1.0)
    Y = np.array([[0.3]])
    assert np.allclose(fam.dphi(0.7, Y), np.eye(1))
    assert np.allclose(fam.phi_dot(0.7, Y), 0.0)
    assert fam.det_dphi(0.7, Y)[0] == 1.0
    assert np.allclose(fam.psi_dot_at_phi(0.7, Y), 0.0)


def test_scaling_maps_hand_values():
    # l(t) = 1 + t/2 at (t, y) = (1, 0.5): all fields known in closed form
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    Y = np.array([[0.5]])
    assert abs(fam.phi(1.0, Y)[0, 0] - 0.75) < 1e-14
    assert abs(fam.dphi(1.0, Y)[0, 0, 0] - 1.5) < 1e-14
    assert abs(fam.det_dphi(1.0, Y)[0] - 1.5) < 1e-14
    assert abs(fam.phi_dot(1.0, Y)[0, 0] - 0.25) < 1e-14
    assert abs(fam.dpsi_at_phi(1.0, Y)[0, 0, 0] - 2.0 / 3.0) < 1e-14
    assert abs(fam.psi_dot_at_phi(1.0, Y)[0, 0] + 1.0 / 6.0) < 1e-14


@pytest.mark.parametrize("profile", [Affine(1.0, 0.5), Poly(1.0, 0.3, 0.1), Affine(2.0, 0.5)])
def test_scaling_keeps_the_closed_form_rounding(profile):
    # the interval scaling's own closed forms, written out: lam = l(t)/l(0)
    fam = one_d_scaling(profile, 1.0)
    l0 = float(profile(0.0))
    ts = np.linspace(0.0, 1.0, 7)
    Y = np.linspace(0.0, l0, 9).reshape(-1, 1)
    lam, dlam, ddlam = fam.stretch(ts)
    assert np.array_equal(lam, profile(ts) / l0)
    assert np.array_equal(dlam, profile.deriv(ts) / l0)
    assert np.array_equal(ddlam, profile.deriv2(ts) / l0)
    for t in ts:
        assert fam.stretch(t) == (profile(t) / l0, profile.deriv(t) / l0,
                                  profile.deriv2(t) / l0)
        assert np.array_equal(fam.phi_dot(t, Y), Y * (float(profile.deriv(t)) / l0))
        assert fam.domain_measure(t) == float(profile(t))


def test_identity_and_homothety_keep_the_closed_form_rounding():
    ts = np.linspace(0.0, 1.0, 7)
    lam, dlam, ddlam = identity_motion(Interval(1.0), 1.0).stretch(ts)
    assert np.array_equal(lam, np.ones(7))
    assert np.array_equal(dlam, np.zeros(7)) and np.array_equal(ddlam, np.zeros(7))
    profile = Poly(1.0, 0.2, 0.05)
    fam = homothetic(profile, Ball(1.0, 2), 1.0)
    measure = Ball(1.0, 2).measure()
    for t in ts:
        assert fam.domain_measure(t) == float(profile(t)) ** 2 * measure


def test_homothetic_det_is_lambda_power():
    for dim in (2, 3):
        fam = homothetic(Affine(1.0, 0.25), Ball(1.0, dim), 1.0)
        Y = fam.reference.interior_grid(20)
        lam = 1.0 + 0.25 * 0.8
        assert np.allclose(fam.det_dphi(0.8, Y), lam ** dim, rtol=1e-14)


# --- hypothesis validation ---------------------------------------------------


def test_validate_identity_zero_residuals():
    rep = validate(identity_motion(Interval(1.0), 1.0), nt=6, npts=8)
    assert rep.max_residual() < 1e-12
    assert rep.max_phi_dot == 0.0
    assert rep.h1_ok and rep.h2_ok


def test_validate_scaling_analytic_tolerance():
    rep = validate(one_d_scaling(Affine(1.0, 0.5), 1.0), nt=12, npts=12)
    assert rep.max_residual() < 1e-9
    assert abs(rep.max_phi_dot - 0.5) < 1e-12
    assert rep.h2_ok


def test_validate_judges_h1_by_the_class_tolerance():
    # the identities hold to about 2e-11 here: within 10 ANALYTIC_TOL = 1e-8,
    # not within 10 x 1e-14; no floor of 1e-6 decides instead
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    assert validate(fam, nt=12, npts=12).h1_ok
    fam.tol = 1e-14
    assert not validate(fam, nt=12, npts=12).h1_ok


def test_validate_checks_the_inverse_map():
    # Psi(t, Phi(t, y)) = y holds to round-off on every built-in family, and
    # a psi off by one part in a million fails H1: no other residual reads psi
    for name, fam in _builtin_families().items():
        assert validate(fam).residuals["inverse"] <= 1.2e-16, name
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    psi = fam.psi
    fam.psi = lambda t, X: (1.0 + 1e-6) * psi(t, X)
    rep = validate(fam)
    assert rep.residuals["inverse"] > 1e-7
    assert not rep.h1_ok


def test_validate_fails_h1_on_a_nan_residual():
    # psi_dot is not the first residual, where max() would drop a NaN
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    fam.psi_dot = lambda t, X: np.full(np.shape(X), np.nan)
    rep = validate(fam)
    assert np.isnan(rep.residuals["psi_dot"]) and np.isnan(rep.max_residual())
    assert not rep.h1_ok


def test_validate_detects_supersonic_growth():
    rep = validate(one_d_scaling(Affine(1.0, 1.2), 1.0), nt=6, npts=6)
    assert abs(rep.max_phi_dot - 1.2) < 1e-12
    assert not rep.h2_ok


def test_validate_sublevel_within_flow_tolerance():
    fam = radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)
    rep = validate(fam, nt=10, npts=12)
    assert rep.max_residual() < 1e-6
    assert rep.min_det_dphi > 0
    assert rep.h2_ok


def test_validate_sublevel_interval_uses_the_stretch_steps():
    # the same motion as one_d_scaling passes at round-off; the validation
    # differences must not add truncation error of their own on top
    fam = interval_flow(4.0, Poly(2.0, 0.0, -0.5, -0.75), 1.0)
    rep = validate(fam)
    assert rep.max_residual() < 1e-7
    assert rep.h1_ok


# --- boundary kinematics -----------------------------------------------------


def test_omega_endpoints_1d():
    fam = one_d_scaling(Affine(1.0, 0.5), 1.0)
    left, right = boundary_kinematics(fam, 0.7)
    assert abs(left.omega[0]) < 1e-14
    assert abs(right.omega[0] - 0.5) < 1e-14
    assert left.nu[0, 0] == -1.0 and right.nu[0, 0] == 1.0


def test_omega_homothetic_ball_and_tetrahedron():
    lam = Poly(1.0, 0.2, 0.05)
    ball = homothetic(lam, Ball(1.0, 2), 1.0)
    t = 0.5
    expect = 0.2 + 0.1 * t
    for fk in boundary_kinematics(ball, t, resolution=16):
        assert np.allclose(fk.omega, expect, atol=1e-12)
    tetra = homothetic(Affine(1.0, 0.2), Tetrahedron((0.6, 0.8)), 1.0)
    faces = {fk.name: fk for fk in boundary_kinematics(tetra, t, resolution=12)}
    assert np.allclose(faces["y1=0"].omega, 0.0, atol=1e-13)
    assert np.allclose(faces["y2=0"].omega, 0.0, atol=1e-13)
    assert np.allclose(faces["slant"].omega, 0.2, atol=1e-12)


def test_omega_nonnegative_and_subsonic_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(10):
        prof = Poly(1.0, rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.1))
        fam = one_d_scaling(prof, 1.0)
        # the profile never decreases at 200 samples of [0, horizon]
        assert np.all(prof.deriv(np.linspace(0.0, fam.horizon, 200)) >= -1e-12)
        for t in np.linspace(0.0, 1.0, 5):
            for fk in boundary_kinematics(fam, t):
                assert np.all(fk.omega >= -1e-13)
                assert np.all(np.abs(fk.omega) < 1.0)


@pytest.mark.parametrize("wrong", [lambda w: 1.5 * w, lambda w: np.full_like(w, np.nan)],
                         ids=["scaled", "nan"])
def test_criterion_2_fails_a_wrong_omega(monkeypatch, wrong):
    # omega is checked against each tube's closed-form normal speed, so a
    # scaled omega and a NaN one both read red
    kinematics = verify.boundary_kinematics

    def broken(fam, t, **kw):
        faces = kinematics(fam, t, **kw)
        for fk in faces:
            fk.omega = wrong(fk.omega)
        return faces

    monkeypatch.setattr(verify, "boundary_kinematics", broken)
    (check,) = [c for c in verify.suite_identities() if c.name == "omega-well-defined"]
    assert not check.passed


@pytest.mark.parametrize("profile", [Affine(1.0, 0.5), Poly(1.0, 0.3, 0.1)], ids=["affine", "poly"])
def test_interval_flow_is_the_interval_scaling(profile):
    # for g = R - x the level-set field is (rho'/rho) x and R cancels: the
    # interval flow is the scaling of its profile, map for map, bit for bit
    flow, scaling = interval_flow(4.0, profile, 1.0), one_d_scaling(profile, 1.0)
    Y = scaling.reference.interior_grid(20)
    nu0 = np.where(Y < 0.5, -1.0, 1.0)
    for t in (0.45, np.linspace(0.0, 1.0, 6)):
        X = scaling.phi(t, Y)
        for method in _FORWARD:
            assert np.array_equal(getattr(flow, method)(t, Y), getattr(scaling, method)(t, Y)), method
        for method in _INVERSE:
            assert np.array_equal(getattr(flow, method)(t, X), getattr(scaling, method)(t, X)), method
        assert np.array_equal(flow.normal_pushforward(t, Y, nu0),
                              scaling.normal_pushforward(t, Y, nu0))
        assert np.array_equal(flow.domain_measure(t), scaling.domain_measure(t))
        for a, b in zip(flow.stretch(t), scaling.stretch(t)):
            assert np.array_equal(a, b)
    assert flow.tol == scaling.tol


def _stacking_families():
    fams = dict(_builtin_families())
    fams["homothetic_box_3d"] = homothetic(Affine(1.0, 0.3), Box((1.0, 0.5, 0.7)), 1.0)
    fams["homothetic_ball_3d"] = homothetic(Poly(1.0, 0.2, 0.05), Ball(1.0, 3), 1.0)
    return fams


@pytest.mark.parametrize("name", sorted(_stacking_families()))
def test_stacked_faces_equal_one_call_per_face(name):
    # every face of one call is a slice of maps evaluated on all faces at
    # once; each must carry the bits of a call on that face alone
    fam = _stacking_families()[name]
    faces = fam.reference.boundary_faces(16)
    for t in (np.linspace(0.0, 1.0, 7) * fam.horizon, 0.45 * fam.horizon):
        stacked = boundary_kinematics(fam, t, faces=faces)
        assert [fk.name for fk in stacked] == [face.name for face in faces]
        for face, got in zip(faces, stacked):
            (alone,) = boundary_kinematics(fam, t, faces=[face])
            assert got.y is face.points and alone.y is face.points
            for field in ("x", "nu", "omega", "weights"):
                assert np.array_equal(getattr(got, field), getattr(alone, field)), field


def _without_normals(faces, *which):
    return [BoundaryFace(f.name, f.points, f.weights, np.zeros_like(f.normals)) if i in which
            else f for i, f in enumerate(faces)]


@pytest.mark.parametrize("which", [(1,), (1, 3), (0, 2)])
def test_a_degenerate_face_is_named_before_any_division(which):
    fam = homothetic(Affine(1.0, 0.3), Box((1.0, 0.5)), 1.0)
    faces = _without_normals(fam.reference.boundary_faces(8), *which)
    for t in (np.linspace(0.0, 1.0, 5), 0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateNormal, match=f"on face {faces[which[0]].name}$"):
                boundary_kinematics(fam, t, faces=faces)


def test_a_face_before_a_degenerate_one_fails_first():
    # face by face, the first face's transport escapes before the second
    # face's pushforward is looked at
    fam = radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)
    first, second = fam.reference.boundary_faces(8)
    near_origin = BoundaryFace(first.name, 1e-6 * first.points, first.weights, first.normals)
    faces = [near_origin] + _without_normals([second], 0)
    for t in (np.zeros(3), 0.0):
        with pytest.raises(FlowEscape):
            boundary_kinematics(fam, t, faces=faces)
    with pytest.raises(DegenerateNormal, match=f"on face {second.name}$"):
        boundary_kinematics(fam, 0.0, faces=[first] + faces[1:])


# --- sublevel specifics -------------------------------------------------------


def _level_identity_residual(fam, t, y):
    """| g(Phi(t,y)) - R - (rho(t)/rho(0)) (g(y) - R) | for g = |x|."""
    q = fam.profile(t) / fam.profile(0.0)
    lhs = np.linalg.norm(fam.phi(t, y), axis=-1) - fam.R
    return float(np.max(np.abs(lhs - q * (np.linalg.norm(y, axis=-1) - fam.R))))


@pytest.mark.parametrize("domain", [Box((1.0, 0.5)), Tetrahedron((0.6, 0.8)), Ball(1.0, 3)],
                         ids=["box", "tetrahedron", "ball-3d"])
def test_boundary_faces_form_each_gauss_rule_once(monkeypatch, domain):
    first = domain.boundary_faces(128)

    def formed_again(n):
        raise AssertionError(f"leggauss({n}) formed a second time")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", formed_again)
    second = domain.boundary_faces(128)
    assert [f.name for f in second] == [f.name for f in first]
    for a, b in zip(first, second):
        for field in ("points", "weights", "normals"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (a.name, field)


def test_the_cached_gauss_rule_is_leggauss_and_read_only():
    from debondwave.domains import _gauss_rule

    for n in (128, 5):
        rule = _gauss_rule(n)
        assert rule is _gauss_rule(n)
        for got, want in zip(rule, np.polynomial.legendre.leggauss(n)):
            assert np.array_equal(got, want) and not got.flags.writeable


def test_level_identity_example():
    fam = radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)
    y = np.array([[0.9, 0.0]])
    x = fam.phi(1.0, y)
    assert abs(np.linalg.norm(x[0]) - 0.85) < 1e-8
    assert _level_identity_residual(fam, 1.0, y) < 1e-8
    assert _level_identity_residual(fam, 0.0, y) < 1e-13


def test_level_identity_stationary_profile():
    fam = radial_annulus_flow(1.0, Const(0.2), 1.0)
    Y = fam.reference.interior_grid(12)
    assert np.max(np.abs(fam.phi(0.7, Y) - Y)) < 1e-12
    assert _level_identity_residual(fam, 0.7, Y) < 1e-12


def test_speed_condition_margins():
    # the sample grid reaches the inner circle, which moves at rho' (|grad g| = 1)
    report = validate(radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0))
    assert abs(report.max_phi_dot - 0.1) < 1e-9 and report.h2_ok
    report = validate(radial_annulus_flow(1.0, Const(0.2), 1.0))
    assert abs(report.max_phi_dot) < 1e-9 and report.h2_ok
    report = validate(radial_annulus_flow(4.0, Affine(0.2, 1.5), 1.0))
    assert abs(report.max_phi_dot - 1.5) < 1e-9 and not report.h2_ok


def test_radial_psi_dot_is_exact():
    # the time derivative of the backward transport, not a difference of it
    assert validate(radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)).residuals["psi_dot"] < 1e-14


def test_builder_guards():
    with pytest.raises(NonPositiveScale):
        one_d_scaling(Affine(1.0, -2.0), 1.0)
    with pytest.raises(LevelOutOfRange):
        radial_annulus_flow(1.0, Affine(0.5, 0.6), 1.0)
    with pytest.raises(LevelOutOfRange):
        interval_flow(1.0, Affine(0.5, 0.6), 1.0)  # rho(1) = 1.1 >= R
    with pytest.raises(NonPositiveScale):
        interval_flow(4.0, Affine(1.0, -2.0), 1.0)
    with pytest.raises(ProfileStart, match="^profile"):
        homothetic(Affine(1.1, 0.1), Ball(1.0, 2), 1.0)  # lam(0) != 1


def test_sublevel_flow_matches_closed_form_map():
    # radial flow has the closed form r -> R + (rho/rho0)(r0 - R)
    fam = radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0)
    Y = fam.reference.interior_grid(24)
    t = 0.8
    got = fam.phi(t, Y)
    r0 = np.linalg.norm(Y, axis=1)
    scale = (0.2 + 0.1 * t) / 0.2
    expect = (1.0 + scale * (r0 - 1.0))[:, None] * Y / r0[:, None]
    assert np.max(np.abs(got - expect)) < 1e-9


def _level_set_rates(fam, R, t, x):
    """The paper's field X = (rho'/rho)(g - R) grad g/|grad g|^2 and its Jacobian."""
    s = float(fam.profile.deriv(t)) / float(fam.profile(t))
    if fam.dim == 1:  # g = R - x
        g, G, H = R - x[:, 0], -np.ones_like(x), np.zeros((len(x), 1, 1))
    else:  # g = |x|
        g = np.linalg.norm(x, axis=1)
        G = x / g[:, None]
        H = (np.eye(fam.dim) - G[:, :, None] * G[:, None, :]) / g[:, None, None]
    G2 = np.sum(G * G, axis=1)
    base = G / G2[:, None]
    HG = np.einsum("pij,pj->pi", H, G)
    Dbase = H / G2[:, None, None] - 2.0 * base[:, :, None] * HG[:, None, :] / G2[:, None, None]
    X = s * (g - R)[:, None] * base
    DX = s * (base[:, :, None] * G[:, None, :] + (g - R)[:, None, None] * Dbase)
    return X, DX


def test_sublevel_map_solves_the_level_set_flow():
    # the closed-form Phi must solve the level-set flow: dPhi/dt = X(t, Phi)
    # and, for the variational equation, d(DPhi)/dt = DX(t, Phi) DPhi; the
    # exact rates must read Phi_dot = X(t, Phi) and d/dt det DPhi = det DPhi tr DX;
    # on the line the map is the stretch interval_flow builds, which solves
    # the flow of g = R - x
    fams = (
        (1.0, radial_annulus_flow(1.0, Poly(0.2, 0.1, 0.05), 1.0)),
        (2.0, radial_annulus_flow(2.0, Poly(0.5, 0.3, -0.1), 1.0, dim=3)),
        (4.0, interval_flow(4.0, Poly(1.0, 0.5, 0.2), 1.0)),
    )
    h = 1e-5
    for R, fam in fams:
        Y = fam.reference.interior_grid(8)
        for t in (0.1, 0.45, 0.9):
            x = fam.phi(t, Y)
            X, DX = _level_set_rates(fam, R, t, x)
            phi_t = (fam.phi(t + h, Y) - fam.phi(t - h, Y)) / (2.0 * h)
            dphi_t = (fam.dphi(t + h, Y) - fam.dphi(t - h, Y)) / (2.0 * h)
            assert np.max(np.abs(X)) > 1e-2
            assert np.max(np.abs(phi_t - X)) < 1e-8
            assert np.max(np.abs(dphi_t - DX @ fam.dphi(t, Y))) < 1e-8
            assert np.max(np.abs(fam.phi_dot(t, Y) - X)) < 1e-12
            det_t = fam.det_dphi(t, Y) * np.einsum("pii->p", DX)
            assert np.max(np.abs(fam.det_dphi_dt(t, Y) - det_t)) < 1e-12


def _jacobian_forming_flow(fam, Y, t0, t1):
    """The points and DPhi of the transport in one formula: the reference
    that the transport-only maps and the Jacobian maps must match bit for bit."""
    q = (np.asarray(fam.profile(t1), dtype=float)
         / np.asarray(fam.profile(t0), dtype=float))[..., None]
    r0 = np.linalg.norm(Y, axis=-1)
    yh = Y / r0[..., None]
    r = fam.R + q * (r0 - fam.R)
    radial = yh[..., :, None] * yh[..., None, :]
    J = q[..., None, None] * radial + (r / r0)[..., None, None] * (np.eye(fam.dim) - radial)
    return r[..., None] * yh, J


_SUBLEVEL = {
    "radial": radial_annulus_flow(1.0, Affine(0.2, 0.1), 1.0),
    "radial_3d": radial_annulus_flow(2.0, Poly(0.5, 0.3, -0.1), 1.0, dim=3),
}


@pytest.mark.parametrize("name", sorted(_SUBLEVEL))
def test_sublevel_transport_keeps_the_points_of_the_jacobian_path(name):
    # phi and psi transport the points only; dphi and dpsi form DPhi from
    # the same transport, and both keep the bits of the one formula
    fam = _SUBLEVEL[name]
    Y = fam.reference.interior_grid(20)
    for t in (np.linspace(0.0, 1.0, 6) * fam.horizon, 0.7 * fam.horizon):
        x, J = _jacobian_forming_flow(fam, Y, 0.0, t)
        assert np.array_equal(fam.phi(t, Y), x)
        assert np.array_equal(fam.dphi(t, Y), J)
        y, K = _jacobian_forming_flow(fam, x, t, 0.0)
        assert np.array_equal(fam.psi(t, x), y)
        assert np.array_equal(fam.dpsi(t, x), K)


@pytest.mark.parametrize("name", sorted(_SUBLEVEL))
def test_sublevel_transport_still_refuses_escaping_points(name):
    fam = _SUBLEVEL[name]
    inner = np.zeros((1, fam.dim))
    inner[0, 0] = 1e-6 * fam.R  # g = |x| is 0 at the origin
    nonfinite = np.full((1, fam.dim), np.nan)
    for method in (fam.phi, fam.psi):
        with pytest.raises(FlowEscape, match="non-finite"):
            method(0.5, nonfinite)
        with pytest.raises(FlowEscape, match="region where g is usable"):
            method(0.0, inner)


# --- time as an array axis ------------------------------------------------------

_FORWARD = ("phi", "dphi", "det_dphi", "phi_dot", "det_dphi_dt", "grad_det_dphi",
            "dpsi_at_phi", "psi_dot_at_phi")
_INVERSE = ("psi", "dpsi", "det_dpsi", "psi_dot")


@pytest.mark.parametrize("name", sorted(_builtin_families()))
def test_batched_times_equal_stacked_scalar_calls(name):
    # an (S,) array of times adds a leading axis, and each slice is the
    # scalar call's result bit for bit; the later times are what a map that
    # mixed up its rows would get wrong
    fam = _builtin_families()[name]
    ts = np.array([0.0, 0.15, 0.4, 0.55, 0.9, 1.0]) * fam.horizon
    Y = fam.reference.interior_grid(20)
    per_time = np.stack([np.roll(Y, i, axis=0) for i in range(len(ts))])
    for method in _FORWARD:
        f = getattr(fam, method)
        shared, given = f(ts, Y), f(ts, per_time)
        for i, t in enumerate(ts):
            assert np.array_equal(shared[i], f(t, Y)), (method, t)
            assert np.array_equal(given[i], f(t, per_time[i])), (method, t)
    X = fam.phi(ts, Y)
    for method in _INVERSE:
        f = getattr(fam, method)
        batch = f(ts, X)
        for i, t in enumerate(ts):
            assert np.array_equal(batch[i], f(t, fam.phi(t, Y))), (method, t)
    measures = fam.domain_measure(ts)
    B = PulledBackProblem(fam).diffusion(ts, Y)
    faces = boundary_kinematics(fam, ts, resolution=16)
    for i, t in enumerate(ts):
        assert measures[i] == fam.domain_measure(t)
        assert np.array_equal(B[i], PulledBackProblem(fam).diffusion(t, Y))
        for batch, single in zip(faces, boundary_kinematics(fam, t, resolution=16)):
            assert batch.name == single.name and np.array_equal(batch.y, single.y)
            for field in ("x", "nu", "omega", "weights"):
                assert np.array_equal(getattr(batch, field)[i], getattr(single, field)), field
