"""Property tests over random cubic profiles: the closed-form 1d pullback,
the exact rates of the sublevel maps, and the map identities and normal
pushforward of the stretch, reflected and radial kinds at random points;
and the flow-rule forms against the maximum-dissipation oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from debondwave.domains import Ball  # noqa: E402
from debondwave.errors import LevelOutOfRange, NonPositiveScale  # noqa: E402
from debondwave.expressions import Poly  # noqa: E402
from debondwave.griffith import flow_rule, flow_rule_fixed_point, mdp_oracle  # noqa: E402
from debondwave.motion import (  # noqa: E402
    homothetic,
    interval_flow,
    one_d_scaling,
    radial_annulus_flow,
    validate,
)
from debondwave.transform import PulledBackProblem  # noqa: E402

FIXED = settings(derandomize=True, max_examples=60, deadline=None)

coefficient = st.floats(-0.4, 0.4, allow_nan=False, allow_infinity=False)
small = st.floats(-0.2, 0.2, allow_nan=False, allow_infinity=False)


def _family(c0, c1, c2, c3, kind):
    """one_d_scaling or interval_flow of a cubic profile kept above 0.2."""
    prof = Poly(c0, c1, c2, c3)
    assume(np.min(prof(np.linspace(-0.01, 1.01, 103))) > 0.2)
    try:
        return one_d_scaling(prof, 1.0) if kind == "scaling" else interval_flow(4.0, prof, 1.0)
    except (NonPositiveScale, LevelOutOfRange):
        assume(False)


@FIXED
@given(c0=st.floats(0.8, 2.0), c1=coefficient, c2=coefficient, c3=coefficient,
       kind=st.sampled_from(["scaling", "flow"]), t=st.floats(0.01, 0.99))
def test_closed_form_rates_match_central_differences(c0, c1, c2, c3, kind, t):
    fam = _family(c0, c1, c2, c3, kind)
    pb = PulledBackProblem(fam)
    ys = np.linspace(0.0, fam.reference.length, 11)
    rates = pb.rates(t)
    dB, divb = pb._fill_dB(ys, rates, np.empty(ys.shape)), rates[1]

    h = 1e-5
    Bp, _, _, _ = pb.line(t + h, ys)
    Bm, _, _, _ = pb.line(t - h, ys)
    assert np.max(np.abs(dB - (Bp - Bm) / (2 * h))) <= 1e-6 * (1.0 + np.max(np.abs(dB)))

    _, _, bp, _ = pb.line(t, ys + h)
    _, _, bm, _ = pb.line(t, ys - h)
    assert np.max(np.abs(divb - (bp - bm) / (2 * h))) <= 1e-8 * (1.0 + np.max(np.abs(divb)))


@FIXED
@given(c0=st.floats(0.8, 2.0), c1=coefficient, c2=coefficient, c3=coefficient,
       kind=st.sampled_from(["scaling", "flow"]), t=st.floats(0.0, 1.0))
def test_line_matches_the_paper_formula(paper_formula, c0, c1, c2, c3, kind, t):
    fam = _family(c0, c1, c2, c3, kind)
    ys = np.linspace(0.0, fam.reference.length, 11)
    B, a, b, _ = PulledBackProblem(fam).line(t, ys)
    Bp, ap, bp = paper_formula(fam, t, ys.reshape(-1, 1))
    assert np.max(np.abs(B - Bp[:, 0, 0])) <= 1e-12 * (1.0 + np.max(np.abs(B)))
    assert np.max(np.abs(b - bp[:, 0])) <= 1e-12 * (1.0 + np.max(np.abs(b)))
    assert np.max(np.abs(a - ap[:, 0])) <= 1e-6 * (1.0 + np.max(np.abs(a)))


def _sublevel_family(c0, c1, c2, c3, kind):
    """A radial (dim 2 or 3) or interval flow of a cubic rho in (0.1, 0.8), R = 1."""
    prof = Poly(c0, c1, c2, c3)
    vals = prof(np.linspace(-0.01, 1.01, 103))
    assume(np.min(vals) > 0.1 and np.max(vals) < 0.8)
    if kind == "interval":
        return interval_flow(1.0, prof, 1.0)
    return radial_annulus_flow(1.0, prof, 1.0, dim=int(kind[-1]))


@FIXED
@given(c0=st.floats(0.3, 0.6), c1=small, c2=small, c3=small,
       kind=st.sampled_from(["radial2", "radial3", "interval"]), t=st.floats(0.01, 0.99))
def test_sublevel_rates_match_central_differences(c0, c1, c2, c3, kind, t):
    fam = _sublevel_family(c0, c1, c2, c3, kind)
    Y = fam.reference.interior_grid(8)
    h = 1e-6

    def det(t, Y):
        return np.linalg.det(fam.dphi(t, Y))

    phi_t = (fam.phi(t + h, Y) - fam.phi(t - h, Y)) / (2 * h)
    assert np.max(np.abs(fam.phi_dot(t, Y) - phi_t)) <= 1e-7
    det_t = (det(t + h, Y) - det(t - h, Y)) / (2 * h)
    assert np.max(np.abs(fam.det_dphi_dt(t, Y) - det_t)) <= 1e-7
    assert np.max(np.abs(fam.det_dphi(t, Y) - det(t, Y))) <= 1e-12
    grad = np.empty_like(Y)
    for k in range(fam.dim):
        e = np.zeros(fam.dim)
        e[k] = h
        grad[:, k] = (det(t, Y + e) - det(t, Y - e)) / (2 * h)
    assert np.max(np.abs(fam.grad_det_dphi(t, Y) - grad)) <= 1e-7
    assert validate(fam).h1_ok


def _direction(dim, azimuth, height):
    """A unit vector of the line, the plane or space from an angle and a height in [-1, 1]."""
    if dim == 1:
        return np.array([1.0 if height >= 0.0 else -1.0])
    if dim == 2:
        return np.array([np.cos(azimuth), np.sin(azimuth)])
    side = np.sqrt(1.0 - height * height)
    return np.array([side * np.cos(azimuth), side * np.sin(azimuth), height])


def _kind_family(kind, c0, c1, c2, c3):
    """A homothety of the unit disk or ball (lam(0) = 1), or a reflected or
    radial sublevel flow of a cubic rho in (0.1, 0.8), R = 1."""
    if kind.startswith("stretch"):
        prof = Poly(1.0, c1, c2, c3)
        assume(np.min(prof(np.linspace(-0.01, 1.01, 103))) > 0.2)
        return homothetic(prof, Ball(1.0, int(kind[-1])), 1.0)
    return _sublevel_family(c0, c1, c2, c3, kind)


# reference points as (radius share, azimuth, height) and normals as
# (azimuth, height); the radius share runs over the reference domain
point = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi), st.floats(-1.0, 1.0))
normal = st.tuples(st.floats(0.0, 2 * np.pi), st.floats(-1.0, 1.0))
# the pushforward's closed forms against DPsi(t, Phi)^T nu0 through the
# matrix inverse: the two round differently, by at most about 8 ulps of
# |DPsi^T nu0| radially over 30000 random draws, and 1 for a stretch
PUSHFORWARD_ULPS = 16


@FIXED
@given(c0=st.floats(0.3, 0.6), c1=small, c2=small, c3=small,
       kind=st.sampled_from(["stretch2", "stretch3", "interval", "radial2", "radial3"]),
       t=st.floats(0.0, 1.0), points=st.lists(st.tuples(point, normal), min_size=1, max_size=6))
def test_maps_invert_and_push_normals_forward_at_random_points(c0, c1, c2, c3, kind, t, points):
    # mutations of motion.py that each assertion catches: psi of a
    # stretch X * lam (Phi o Psi); det_dphi of a stretch lam^(n-1) or of the
    # radial flow q s^(n-2) (det product); phi_dot with (R - |y|) radially
    # or -q' y on the line (Psi_dot); nu0 * lam for a stretch, nu0 * q on
    # the line, or 1/q and 1/s swapped radially (pushforward)
    fam = _kind_family(kind, c0, c1, c2, c3)
    ref = fam.reference
    if kind == "interval":
        inner, outer = 0.0, ref.length
    elif kind.startswith("radial"):
        inner, outer = ref.inner, ref.outer
    else:
        inner, outer = 0.0, ref.radius
    Y = np.array([(inner + u * (outer - inner)) * _direction(fam.dim, a, z)
                  for (u, a, z), _ in points])
    nu0 = np.array([_direction(fam.dim, a, z) for _, (a, z) in points])
    X = fam.phi(t, Y)

    scale = 1.0 + np.max(np.abs(X))
    assert np.max(np.abs(fam.phi(t, fam.psi(t, X)) - X)) <= 1e-13 * scale
    assert np.max(np.abs(fam.det_dphi(t, Y) * fam.det_dpsi(t, X) - 1.0)) <= 1e-13
    K = fam.dpsi(t, X)
    composed = -np.einsum("pij,pj->pi", K, fam.phi_dot(t, Y))
    assert np.max(np.abs(fam.psi_dot(t, X) - composed)) <= fam.tol * (1.0 + np.max(np.abs(composed)))

    expect = np.einsum("pji,pj->pi", fam.dpsi_at_phi(t, Y), nu0)
    size = np.sqrt(np.sum(expect * expect, axis=1))
    gap = np.max(np.abs(fam.normal_pushforward(t, Y, nu0) - expect), axis=1)
    assert np.all(gap <= PUSHFORWARD_ULPS * np.spacing(size))


@FIXED
@given(p=st.floats(0.0, 5.0), kappa=st.floats(0.1, 5.0))
def test_flow_rule_forms_agree_with_the_oracle(p, kappa):
    # the griffith suite's equivalence check, over (p, kappa) beyond its fixed draw
    a = flow_rule(p, kappa)
    b = flow_rule_fixed_point(p, kappa)
    m = mdp_oracle(p, kappa)
    assert max(abs(a - b), abs(a - m), abs(b - m)) <= 2e-4
