import numpy as np
import pytest

from debondwave.characteristics import (
    CharScenario,
    adaptive_simpson,
    dalembert_fixed,
    front_ode_exact,
    one_sided_derivative,
)
from debondwave.errors import CompatibilityViolated, NonPositiveToughness, TooFewSamples
from debondwave.expressions import Const, Poly, SineMode, SpaceTimeField

SQ2 = np.sqrt(2.0)


def test_adaptive_simpson():
    assert abs(adaptive_simpson(np.sin, 0.0, np.pi) - 2.0) < 1e-9
    assert abs(adaptive_simpson(lambda x: x ** 5, 0.0, 1.0) - 1.0 / 6.0) < 1e-12


# --- d'Alembert ------------------------------------------------------------


def test_dalembert_standing_wave():
    u0 = SineMode(1.0, 1).bound(1.0)
    u1 = Const(0.0)
    for t, x in [(0.5, 0.5), (0.3, 0.7), (2.3, 0.2), (1.7, 0.9)]:
        got = dalembert_fixed(1.0, u0, u1, None, t, x)
        assert abs(got - np.cos(np.pi * t) * np.sin(np.pi * x)) < 1e-9


def test_dalembert_velocity_start():
    u1 = SineMode(1.0, 1).bound(1.0)
    for t, x in [(0.5, 0.5), (1.3, 0.25)]:
        got = dalembert_fixed(1.0, Const(0.0), u1, None, t, x)
        assert abs(got - np.sin(np.pi * t) * np.sin(np.pi * x) / np.pi) < 1e-9


def test_dalembert_zero_data():
    assert dalembert_fixed(1.0, Const(0.0), Const(0.0), None, 3.7, 0.4) == 0.0


def test_dalembert_before_first_reflection():
    # for t < dist(x, {0, L}) the solution reads the data directly
    u0 = Poly(0.0, 1.0, -1.0)
    u1 = Poly(0.5, 1.0)
    L, t, x = 1.0, 0.2, 0.5
    direct = 0.5 * (u0(x + t) + u0(x - t)) + 0.5 * u1.integral(x - t, x + t)
    assert abs(dalembert_fixed(L, u0, u1, None, t, x) - direct) < 1e-12


def test_dalembert_forcing_cone():
    # f(t,x) = x with zero data: u = x t^2 / 2 before boundary influence
    f = SpaceTimeField(Poly(0.0, 1.0), Poly(1.0))
    got = dalembert_fixed(1.0, Const(0.0), Const(0.0), f, 0.2, 0.5)
    assert abs(got - 0.5 * 0.04 / 2.0) < 1e-9


@pytest.mark.parametrize("u1", [Poly(0.0, 1.0, -1.0), lambda y: float(Poly(0.0, 1.0, -1.0)(y))],
                         ids=["catalog", "callable"])
def test_dalembert_at_large_times_is_its_twin_a_period_earlier(u1):
    # the oracle reads the data at one folded point, exactly for catalog data
    # and by adaptive Simpson for a callable, so t and t mod 2L give the same
    # bits however far apart they are
    u0 = SineMode(1.0, 2).bound(1.0)
    near = dalembert_fixed(1.0, u0, u1, None, 0.25, 0.25)
    assert dalembert_fixed(1.0, u0, u1, None, 20000.25, 0.25) == near
    assert abs(near - 1.0 / 24.0) < 1e-9  # half of int_0^0.5 (x - x^2); u0 = sin(2 pi x)


def test_dalembert_interior_stencil_residual():
    u0 = SineMode(1.0, 1).bound(1.0)
    u1 = Poly(0.0, 0.5, -0.5)
    h = 1e-3

    def u(t, x):
        return dalembert_fixed(1.0, u0, u1, None, t, x)

    t0, x0 = 0.4, 0.55
    utt = (u(t0 + h, x0) - 2 * u(t0, x0) + u(t0 - h, x0)) / h ** 2
    uxx = (u(t0, x0 + h) - 2 * u(t0, x0) + u(t0, x0 - h)) / h ** 2
    assert abs(utt - uxx) < 1e-4


# --- front ODE ---------------------------------------------------------------


def constant_scenario(horizon=5.0):
    return CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2),
                        kappa=Const(1.0), horizon=horizon)


def test_front_ode_constant_data():
    fc = front_ode_exact(constant_scenario(), dt=1e-3)
    assert np.max(np.abs(fc.speed - SQ2 / 2.0)) < 1e-12
    assert abs(fc.tstar - (2.0 + SQ2)) < 1e-8
    assert abs(float(np.interp(1.7, fc.times, fc.position)) - (1.0 + 1.7 * SQ2 / 2.0)) < 1e-10


def test_front_ode_horizon_hits_characteristic():
    fc = front_ode_exact(constant_scenario(), dt=1e-3)
    # at T* the backward characteristic foot l(t) - t reaches zero
    assert abs(fc.position[-1] - fc.times[-1]) < 1e-3


def test_front_ode_subcritical_rest():
    sc = CharScenario(l0=1.0, u0=Poly(1.0, -1.0), u1=Const(0.0),
                      kappa=Const(1.0), horizon=2.0)
    fc = front_ode_exact(sc, dt=1e-2)
    assert np.max(fc.speed) == 0.0
    assert np.max(fc.position) == 1.0


def test_front_ode_critical_equality_is_stationary():
    # front data F = u0' - u1 = -sqrt(2) at rest, so F^2 = 2 kappa
    sc = CharScenario(l0=1.0, u0=Poly(SQ2, -SQ2), u1=Const(0.0),
                      kappa=Const(1.0), horizon=2.0)
    fc = front_ode_exact(sc, dt=1e-2)
    assert np.max(fc.speed) < 1e-12


def test_front_ode_forcing_consistency():
    # with constant forcing the ODE right-hand side uses the line integral c t
    sc = CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2),
                      kappa=Const(1.0), horizon=1.5,
                      forcing=SpaceTimeField(Const(0.5)))
    fc = front_ode_exact(sc, dt=2e-3)
    for i in range(0, len(fc.times), 150):
        t = fc.times[i]
        F = -2.0 - SQ2 - 0.5 * t
        expect = max((F * F - 2.0) / (F * F + 2.0), 0.0)
        assert abs(fc.speed[i] - expect) < 1e-9


def test_front_compatibility_guard():
    bad = CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(1.0),
                       kappa=Const(1.0), horizon=1.0)
    with pytest.raises(CompatibilityViolated):
        front_ode_exact(bad)
    # activated-start data, but u0(l0) = 0.5 instead of 0
    lifted = CharScenario(l0=1.0, u0=Poly(2.5, -2.0), u1=Const(SQ2),
                          kappa=Const(1.0), horizon=1.0)
    with pytest.raises(CompatibilityViolated):
        front_ode_exact(lifted)
    soft = CharScenario(l0=1.0, u0=Poly(2.0, -2.0), u1=Const(SQ2),
                        kappa=Const(0.0), horizon=1.0)
    with pytest.raises(NonPositiveToughness):
        front_ode_exact(soft)


# --- boundary traces -----------------------------------------------------------


def test_one_sided_derivative_exact_on_quadratics():
    h = 0.05
    xs = np.array([1.0 - 2 * h, 1.0 - h, 1.0])
    f = 3.0 * xs ** 2 - xs
    assert abs(one_sided_derivative(f, h, "right") - (6.0 - 1.0)) < 1e-12
    xs = np.array([0.0, h, 2 * h])
    f = 3.0 * xs ** 2 - xs
    assert abs(one_sided_derivative(f, h, "left") + 1.0) < 1e-12
    with pytest.raises(TooFewSamples):
        one_sided_derivative(f[:2], h, "right")

