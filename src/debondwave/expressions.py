"""Fixed expression catalog for scenario data.

Every scalar field a scenario can carry (initial data, forcing, boundary
load, toughness, motion profiles) is one of four closed forms:

    Const(c)                 c
    Affine(a, b)             a + b*x
    SineMode(A, k)           A * sin(k*pi*x / L)   (L bound to the domain)
    Poly(c0, c1, ...)        c0 + c1*x + c2*x^2 + ...

Keeping data inside this catalog makes scenarios reproducible and lets
integrals along characteristics be evaluated from exact antiderivatives
instead of quadrature.  All evaluations accept scalars or numpy arrays.
"""

import math
import re

import numpy as np

from .errors import TypeMismatch


def _float_text(c):
    """The shortest text that parses back to the float c, without a
    trailing '.0': specs echo the data that parsing them rebuilds."""
    text = repr(float(c))
    return text[:-2] if text.endswith(".0") else text


class Expression:
    """Scalar function of one variable with two derivatives and an antiderivative."""

    def __call__(self, x):
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def deriv2(self, x):
        raise NotImplementedError

    def antiderivative(self, x):
        """An antiderivative F; integrals are taken as F(b) - F(a)."""
        raise NotImplementedError

    def integral(self, a, b):
        return self.antiderivative(b) - self.antiderivative(a)

    def bound(self, length):
        """Bind a domain length (only SineMode needs one)."""
        return self

    def spec(self):
        raise NotImplementedError

    def __repr__(self):
        return self.spec()


class Const(Expression):
    def __init__(self, c):
        self.c = float(c)

    def __call__(self, x):
        if isinstance(x, float):
            # the scalar c * 1.0 of the array path, without np.ones_like
            return np.float64(self.c)
        return self.c * np.ones_like(np.asarray(x, dtype=float))

    def deriv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    deriv2 = deriv

    def antiderivative(self, x):
        return self.c * np.asarray(x, dtype=float)

    def spec(self):
        return f"Const({_float_text(self.c)})"


class Affine(Expression):
    """a + b*x."""

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, x):
        return self.a + self.b * np.asarray(x, dtype=float)

    def deriv(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.b)

    def deriv2(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * x + 0.5 * self.b * x * x

    def spec(self):
        return f"Affine({_float_text(self.a)}, {_float_text(self.b)})"


# numpy.polynomial.polynomial's polyval, polyder and polyint on a 1-d float
# array, operation for operation: every bit is numpy's, signed zeros and
# non-finite values included
def _polyval(x, c):
    """c[0] + c[1] x + ... by numpy's Horner loop."""
    c0 = c[-1] + x * 0
    for ci in c[-2::-1]:
        c0 = ci + c0 * x
    return c0


def _polyder(c, m):
    """The m-th derivative's coefficients (numpy's scl = 1 multiply is exact
    and left out)."""
    if m >= len(c):
        return c[:1] * 0
    for _ in range(m):
        c = np.arange(1, len(c)) * c[1:]
    return c


def _polyint(c):
    """The antiderivative's coefficients, zero at x = 0 (k = [], lbnd = 0)."""
    if len(c) == 1 and c[0] == 0:
        return c + 0
    out = np.empty(len(c) + 1)
    out[0] = c[0] * 0
    out[1:] = c / np.arange(1, len(c) + 1)
    out[0] += 0 - _polyval(0, out)
    return out


class Poly(Expression):
    """c0 + c1*x + c2*x^2 + ...  (coefficients in ascending order).

    Evaluated by a local copy of numpy's Horner loop, with numpy's
    rounding: importing numpy.polynomial for it would cost every process
    about 0.7 MiB of resident memory and a few milliseconds."""

    def __init__(self, *coeffs):
        if not coeffs:
            coeffs = (0.0,)
        self.coeffs = np.asarray(coeffs, dtype=float)
        # the derivative and antiderivative coefficients, formed once
        self._forms = (_polyder(self.coeffs, 1), _polyder(self.coeffs, 2),
                       _polyint(self.coeffs))

    def __call__(self, x):
        return _polyval(np.asarray(x, dtype=float), self.coeffs)

    def deriv(self, x):
        return _polyval(np.asarray(x, dtype=float), self._forms[0])

    def deriv2(self, x):
        return _polyval(np.asarray(x, dtype=float), self._forms[1])

    def antiderivative(self, x):
        return _polyval(np.asarray(x, dtype=float), self._forms[2])

    def spec(self):
        return "Poly(" + ", ".join(_float_text(c) for c in self.coeffs) + ")"


class SineMode(Expression):
    """A * sin(k*pi*x / L); the length L is bound when the domain is known."""

    def __init__(self, amplitude, k, length=None):
        self.amplitude = float(amplitude)
        self.k = int(k)
        self.length = None if length is None else float(length)

    def bound(self, length):
        return SineMode(self.amplitude, self.k, length)

    def _omega(self):
        if self.length is None:
            raise ValueError("SineMode used before a domain length was bound")
        return self.k * math.pi / self.length

    def __call__(self, x):
        w = self._omega()
        return self.amplitude * np.sin(w * np.asarray(x, dtype=float))

    def deriv(self, x):
        w = self._omega()
        return self.amplitude * w * np.cos(w * np.asarray(x, dtype=float))

    def deriv2(self, x):
        w = self._omega()
        return -self.amplitude * w * w * np.sin(w * np.asarray(x, dtype=float))

    def antiderivative(self, x):
        w = self._omega()
        return -self.amplitude / w * np.cos(w * np.asarray(x, dtype=float))

    def spec(self):
        return f"SineMode({_float_text(self.amplitude)}, {self.k})"


_EXPR_RE = re.compile(r"^\s*([A-Za-z]\w*)\s*\(([^)]*)\)\s*$")
_KINDS = {"const": Const, "affine": Affine, "sinemode": SineMode, "poly": Poly}


def parse_expression(text, line=None):
    """Parse a catalog expression like ``SineMode(1.0, 1)``.

    Raises TypeMismatch (with the scenario line number when given) on
    anything outside the catalog.
    """
    m = _EXPR_RE.match(text)
    if not m:
        raise TypeMismatch(f"not a catalog expression: {text!r}", line)
    name, argstr = m.group(1), m.group(2)
    cls = _KINDS.get(name.lower())
    if cls is None:
        raise TypeMismatch(f"unknown expression kind {name!r}", line)
    args = []
    for piece in argstr.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            args.append(float(piece))
        except ValueError:
            raise TypeMismatch(f"bad numeric argument {piece!r} in {text!r}", line) from None
    if not all(np.isfinite(args)):
        raise TypeMismatch(f"non-finite argument in {text!r}", line)
    try:
        return cls(*args)
    except TypeError:
        raise TypeMismatch(f"wrong argument count in {text!r}", line) from None


class SpaceTimeField:
    """Separable space-time field  F(t, x) = time(t) * space(x).

    Covers every forcing / boundary-load shape the scenarios need while
    keeping exact time and space derivatives available.
    """

    def __init__(self, space, time=None):
        self.space = space
        self.time = time if time is not None else Const(1.0)

    def __call__(self, t, x):
        return self.time(t) * self.space(x)

    def dt(self, t, x):
        return self.time.deriv(t) * self.space(x)

    def dtt(self, t, x):
        return self.time.deriv2(t) * self.space(x)

    def dx(self, t, x):
        return self.time(t) * self.space.deriv(x)

    def dxx(self, t, x):
        return self.time(t) * self.space.deriv2(x)

    def is_zero(self):
        sp, tm = self.space, self.time
        if isinstance(sp, Const) and sp.c == 0.0:
            return True
        if isinstance(tm, Const) and tm.c == 0.0:
            return True
        return False

    def spec(self):
        return f"{self.space.spec()} * {self.time.spec()}"


def forcing_or_none(f):
    """f, or None when f is None or a field whose ``is_zero()`` holds: a zero
    forcing is no forcing, so no solver or oracle evaluates it."""
    if f is None or (hasattr(f, "is_zero") and f.is_zero()):
        return None
    return f
