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
from numpy.polynomial import polynomial as P

from .errors import TypeMismatch


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
        return f"Const({self.c:g})"


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
        return f"Affine({self.a:g}, {self.b:g})"


class Poly(Expression):
    """c0 + c1*x + c2*x^2 + ...  (coefficients in ascending order)."""

    def __init__(self, *coeffs):
        if not coeffs:
            coeffs = (0.0,)
        self.coeffs = np.asarray(coeffs, dtype=float)
        # the derivative and antiderivative coefficients, formed once
        self._forms = (P.polyder(self.coeffs), P.polyder(self.coeffs, 2), P.polyint(self.coeffs))

    def __call__(self, x):
        return P.polyval(np.asarray(x, dtype=float), self.coeffs)

    def deriv(self, x):
        return P.polyval(np.asarray(x, dtype=float), self._forms[0])

    def deriv2(self, x):
        return P.polyval(np.asarray(x, dtype=float), self._forms[1])

    def antiderivative(self, x):
        return P.polyval(np.asarray(x, dtype=float), self._forms[2])

    def spec(self):
        return "Poly(" + ", ".join(f"{c:g}" for c in self.coeffs) + ")"


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
        return f"SineMode({self.amplitude:g}, {self.k})"


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

