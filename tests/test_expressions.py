import numpy as np
import pytest

from debondwave.errors import TypeMismatch
from debondwave.expressions import (
    Affine,
    Const,
    Poly,
    SineMode,
    SpaceTimeField,
    parse_expression,
)


def test_parse_round_trip():
    for text, cls in [("Const(2.5)", Const), ("Affine(1.0, 0.5)", Affine),
                      ("SineMode(1.0, 2)", SineMode), ("Poly(1, -2, 3)", Poly)]:
        expr = parse_expression(text)
        assert isinstance(expr, cls)
        assert isinstance(parse_expression(expr.spec()), cls)


def test_parse_rejects_garbage():
    for text in ["Gaussian(1.0)", "Const(abc)", "Const 1.0", "Poly(1,2", "Const(inf)"]:
        with pytest.raises(TypeMismatch):
            parse_expression(text)


def test_poly_calculus():
    p = Poly(1.0, -2.0, 3.0)  # 1 - 2x + 3x^2
    x = np.linspace(-1, 2, 7)
    assert np.allclose(p(x), 1 - 2 * x + 3 * x ** 2)
    assert np.allclose(p.deriv(x), -2 + 6 * x)
    assert np.allclose(p.deriv2(x), 6.0)
    assert abs(p.integral(0.0, 2.0) - (2 - 4 + 8)) < 1e-14


@pytest.mark.parametrize("coeffs", [(), (2.5,), (2.0, -2.0), (-48.0, 80.0, -44.0, 8.0),
                                    (0.1, -0.0, 1e-300, 3.7, -1e5)])
def test_poly_forms_keep_the_per_call_bits(coeffs):
    # the derivative and antiderivative coefficients are formed once; every
    # evaluation keeps the bits of forming them again at each call
    P = np.polynomial.polynomial
    p = Poly(*coeffs)
    c = np.asarray(coeffs or (0.0,), dtype=float)
    for x in (0.7, np.float64(-1.3), np.linspace(-2.0, 3.0, 41), np.array([[0.5, -0.0]])):
        xs = np.asarray(x, dtype=float)
        assert np.array_equal(p(x), P.polyval(xs, c))
        assert np.array_equal(p.deriv(x), P.polyval(xs, P.polyder(c)))
        assert np.array_equal(p.deriv2(x), P.polyval(xs, P.polyder(c, 2)))
        assert np.array_equal(p.antiderivative(x), P.polyval(xs, P.polyint(c)))


def test_sine_mode_needs_binding():
    s = SineMode(2.0, 1)
    with pytest.raises(ValueError):
        s(0.5)
    b = s.bound(2.0)
    assert abs(b(1.0) - 2.0) < 1e-14
    assert abs(b.integral(0.0, 2.0) - 2.0 * 4.0 / np.pi) < 1e-14


def test_space_time_field_derivatives():
    F = SpaceTimeField(Poly(0.0, 0.0, 1.0), Poly(0.0, 1.0))  # t * x^2
    assert abs(F(2.0, 3.0) - 18.0) < 1e-14
    assert abs(F.dt(2.0, 3.0) - 9.0) < 1e-14
    assert abs(F.dtt(2.0, 3.0)) < 1e-14
    assert abs(F.dxx(2.0, 3.0) - 4.0) < 1e-14
    assert SpaceTimeField(Const(0.0)).is_zero()


@pytest.mark.parametrize("c", [1.0, -2.5, -0.0, 1e300, np.nan])
def test_const_scalar_path_keeps_the_array_path_bits(c):
    k = Const(c)
    for x in (0.7, np.float64(-3.0)):
        want = k.c * np.ones_like(np.asarray(x, dtype=float))
        got = k(x)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    for x in (np.linspace(0.0, 1.0, 5), np.ones((2, 3)), [1, 2], 3, np.array(0.5)):
        want = k.c * np.ones_like(np.asarray(x, dtype=float))
        got = np.asarray(k(x))
        assert got.shape == np.shape(want) and got.dtype == want.dtype
        assert got.tobytes() == np.asarray(want).tobytes()
