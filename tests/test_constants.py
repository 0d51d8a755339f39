"""Tolerances, oracle grids and sample counts are module constants: no
library call takes one or a switch that skips a check, and each check
holds its value at the boundary."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import debondwave
from debondwave.characteristics import Verdict, adaptive_simpson, compatibility_check
from debondwave.domains import Interval
from debondwave.errors import BoundaryMismatch
from debondwave.expressions import Const, SpaceTimeField
from debondwave.griffith import griffith_check
from debondwave.motion import identity_motion, interval_flow
from debondwave.transform import lift_dirichlet

# A verify check's record prints the bound it was judged against; `passed`
# is decided before the record is built, so that field loosens nothing.
REPORTED_BOUND = {"debondwave.verify.CheckResult.__init__"}


def _public_callables():
    """Every public function of every module, and the __init__ and public
    methods of every public class, under its qualified name."""
    for info in pkgutil.iter_modules(debondwave.__path__):
        mod = importlib.import_module(f"debondwave.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_no_library_call_takes_a_tolerance():
    seen = dict(_public_callables())
    assert "debondwave.griffith.griffith_check" in seen
    assert "debondwave.motion.StretchMotion.__init__" in seen
    taking = sorted(q for q, fn in seen.items()
                    if "tol" in inspect.signature(fn).parameters and q not in REPORTED_BOUND)
    assert taking == []


def test_no_library_call_can_skip_a_check():
    seen = dict(_public_callables())
    assert "debondwave.characteristics.front_ode_exact" in seen
    assert sorted(q for q, fn in seen.items() if "check" in inspect.signature(fn).parameters) == []


def test_every_1d_solver_takes_a_reader():
    # one reader contract: each 1d solver entry point hands its stored rows
    # to reader.start / feed / finish, so no solver builds its own trajectory
    seen = dict(_public_callables())
    solvers = ["debondwave.fd.solve_fd", "debondwave.galerkin.integrate",
               "debondwave.galerkin.solve_transformed_modal",
               "debondwave.griffith.evolve_coupled_1d", "debondwave.griffith.evolve_coupled_radial"]
    assert [q for q in solvers if "reader" not in inspect.signature(seen[q]).parameters] == []


def test_compatibility_tolerance_is_1e_9():
    # |u1| <= 1e-9 is a front at rest
    assert compatibility_check(1.0, 1e-9, 1.0) is Verdict.SUBCRITICAL_REST
    assert compatibility_check(1.0, 2e-9, 1.0) is Verdict.INCOMPATIBLE
    # (u0')^2 <= 2 kappa + 1e-9 at rest
    assert compatibility_check(math.sqrt(1.0 + 5e-10), 0.0, 0.5) is Verdict.SUBCRITICAL_REST
    assert compatibility_check(math.sqrt(1.0 + 2e-9), 0.0, 0.5) is Verdict.INCOMPATIBLE
    # (u0')^2 - u1^2 = 2 kappa to 1e-9 (1 + kappa) = 2e-9 for kappa = 1
    assert compatibility_check(-math.sqrt(3.0 + 1e-9), 1.0, 1.0) is Verdict.ACTIVATED_START
    assert compatibility_check(-math.sqrt(3.0 + 4e-9), 1.0, 1.0) is Verdict.INCOMPATIBLE


def test_griffith_tolerance_is_1e_3():
    ts, p = np.zeros(1), np.full(1, 2.0)  # G = p^2 / 2 = 2 at rest
    assert griffith_check(ts, np.zeros(1), p, np.full(1, 2.0 - 5e-4)).ok()
    assert not griffith_check(ts, np.zeros(1), p, np.full(1, 2.0 - 2e-3)).ok()
    # complementarity alpha (G - kappa) at speed 1/2, G = 1.5 below kappa
    assert griffith_check(ts, np.full(1, 0.5), p, np.full(1, 1.5 + 1.5e-3)).ok()
    assert not griffith_check(ts, np.full(1, 0.5), p, np.full(1, 1.5 + 3e-3)).ok()


def test_lift_tolerance_is_1e_9():
    W = SpaceTimeField(Const(0.5))
    lift_dirichlet(W, Const(0.5 + 5e-10), Const(0.0), fixed_points=[0.0])
    with pytest.raises(BoundaryMismatch):
        lift_dirichlet(W, Const(0.5 + 2e-9), Const(0.0), fixed_points=[0.0])


def test_quadrature_tolerance_is_1e_9():
    # sqrt has an unbounded slope at 0; a 1e-8 target leaves 2.6e-11
    assert abs(adaptive_simpson(math.sqrt, 0.0, 1.0) - 2.0 / 3.0) < 5e-12


def test_motion_tolerances_are_class_attributes():
    assert identity_motion(Interval(1.0), 1.0).tol == 1e-9
    assert interval_flow(4.0, Const(1.0), 1.0).tol == 1e-9
