import os
import subprocess
import sys

import numpy as np
import pytest

import debondwave
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


def _poly_cases():
    """Coefficients of 1 to 7 terms, with positive, zero and negative
    leading and constant terms."""
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        for lead in (2.5, 0.0, -0.0, -1.75):
            for const in (0.3, 0.0, -0.0, -4.0):
                c = rng.uniform(-3.0, 3.0, n)
                c[-1], c[0] = lead, const
                yield pytest.param(c, id=f"{n}-{lead}-{const}")


def _xs():
    rng = np.random.default_rng(12)
    line = np.concatenate([[-0.0, 0.0, -1.0, 1.0, 2.0], rng.uniform(-2.5, 2.5, 27)])
    return {"()": np.asarray(-0.7), "(n,)": line, "(S, 1)": line[:9, None],
            "(S, n)": line.reshape(4, 8)}


@pytest.mark.parametrize("coeffs", list(_poly_cases()))
def test_poly_keeps_the_bits_of_numpy_polynomial(coeffs):
    # the module's Horner loop, derivative and antiderivative forms copy
    # numpy's operations: same values, signed zeros and shapes
    P = np.polynomial.polynomial
    p = Poly(*coeffs)
    for shape, x in _xs().items():
        for got, want in ((p(x), P.polyval(x, coeffs)),
                          (p.deriv(x), P.polyval(x, P.polyder(coeffs))),
                          (p.deriv2(x), P.polyval(x, P.polyder(coeffs, 2))),
                          (p.antiderivative(x), P.polyval(x, P.polyint(coeffs)))):
            assert type(got) is type(want) and np.shape(got) == np.shape(want), shape
            assert np.array_equal(got, want), shape
            assert np.array_equal(np.signbit(got), np.signbit(want)), shape


def test_scenario_runs_leave_numpy_polynomial_unloaded(tmp_path):
    # importing numpy.polynomial costs a process about 0.7 MiB; only the
    # n-d Gauss rules of domains load it, lazily
    scenarios = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                             "scenarios")
    src = os.path.dirname(os.path.dirname(os.path.abspath(debondwave.__file__)))
    runs = [["run", os.path.join(scenarios, name), "--out", str(tmp_path)]
            for name in ("moving_interval.scn", "debonding_radial.scn")]
    code = ("import sys\n"
            "import debondwave.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert debondwave.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert os.path.exists(tmp_path / "debonding-radial" / "front.csv")
