"""Acceptance criteria, one test per criterion, one printed line per check.

Each criterion runs at its stated tolerance through the package's own
verification suites (the same checks `debondwave verify` exposes), so the
CLI and this module can never drift apart.  Expensive suites are shared
through session fixtures.

Known red check: criterion 4's two cylinder pairs.  The frozen-domain
scheme is pinned to freezing at each partition's left endpoint (a single
partition must solve on the initial domain).  With zero-extension
restarts it carries a first-order domain-lag error measured at
0.96 * (T / partitions) for this scenario: 3.0e-2 at 32 partitions
against the 2e-2 target, 1.5e-2 at 64, grid-independent.  The solvers
themselves are cross-checked against exact characteristic values to
4e-6.  The error is reducible: a restart that remaps the state as the
moving wall reflects it, with the same left-end freeze, measured 1.17e-3
at 32 partitions in a scratch prototype (ROADMAP item 14).  Until such a
restart lands the check is kept failing rather than loosened.
"""

import pytest

from debondwave.verify import (
    suite_coupled_1d,
    suite_coupled_radial,
    suite_energy,
    suite_griffith,
    suite_identities,
    suite_transform_equivalence,
)


@pytest.fixture(scope="session")
def identities_results():
    return {r.name: r for r in suite_identities()}


@pytest.fixture(scope="session")
def transform_results():
    return {r.name: r for r in suite_transform_equivalence()}


@pytest.fixture(scope="session")
def energy_results():
    return {r.name: r for r in suite_energy()}


@pytest.fixture(scope="session")
def griffith_results():
    return {r.name: r for r in suite_griffith()}


@pytest.fixture(scope="session")
def coupled_results():
    return {r.name: r for r in suite_coupled_1d()}


@pytest.fixture(scope="session")
def radial_results():
    return {r.name: r for r in suite_coupled_radial()}


def _assert_all(results, names):
    ok = True
    for name in names:
        res = results[name]
        print(res.line())
        ok = ok and res.passed
    assert ok, "see printed check lines above"


def test_criterion_01_jacobian_identities(identities_results):
    """Seven map identities on a 20 x 20 grid, 1e-9 analytic / 1e-6 flow, < 2 s."""
    _assert_all(identities_results,
                ["jacobian-analytic", "jacobian-sublevel", "jacobian-runtime"])


def test_criterion_02_omega_well_defined(identities_results):
    """Matched interval tubes give the same normal speed within 1e-6."""
    _assert_all(identities_results, ["omega-well-defined"])


def test_criterion_03_ellipticity(transform_results):
    """c_B > 0 for every 1d built-in family; 1/3 for the 0.5-slope scaling."""
    _assert_all(transform_results, ["ellipticity-value", "ellipticity-positive"])


def test_criterion_04_cross_solver_equivalence(transform_results):
    """Three solvers agree pairwise within 2e-2 and refine by >= 1.3, < 30 s."""
    _assert_all(transform_results, [
        "cross-modal-grid", "cross-modal-grid-ratio",
        "cross-modal-cylinder", "cross-modal-cylinder-ratio",
        "cross-grid-cylinder", "cross-grid-cylinder-ratio",
        "cross-runtime",
    ])


def test_criterion_05_moving_energy_balance(energy_results):
    """residual_moving <= 5e-3 at baseline, halving within [1.3, 3]."""
    _assert_all(energy_results, ["moving-balance", "moving-balance-ratio"])


def test_criterion_06_fixed_energy_balance(energy_results):
    """residual_fixed <= 1e-3 at all stored times of the transformed run."""
    _assert_all(energy_results, ["fixed-balance"])


def test_criterion_07_energy_inequality(energy_results):
    """Cylinder runs never exceed initial energy + work by 1e-8 relative."""
    _assert_all(energy_results, ["cylinder-inequality"])


def test_criterion_08_griffith_equivalence(griffith_results):
    """Closed form, fixed point and brute-force oracle within 2e-4, < 5 s."""
    _assert_all(griffith_results, ["equivalence", "equivalence-runtime"])


def test_criterion_09_exact_coupled_oracle(coupled_results):
    """Constant-data front speed sqrt(2)/2: ODE to 1e-8, solver to 1e-3, < 30 s."""
    _assert_all(coupled_results, [
        "exact-ode-speed", "exact-ode-horizon", "staggered-speed", "runtime"])


def test_criterion_10_coupled_energy_balance(coupled_results):
    """|E(t) + dissipated - E(0)| <= 1e-2, decreasing under refinement."""
    _assert_all(coupled_results, ["coupled-balance", "coupled-balance-refines"])


def test_criterion_11_radial_run(radial_results):
    """Supercritical radial run: monotone subsonic front, Griffith at 1e-3, < 60 s."""
    _assert_all(radial_results, [
        "front-nondecreasing", "front-subsonic", "griffith-bound",
        "griffith-complementarity", "runtime"])


def test_criterion_12_measure_identity(identities_results):
    """Geometric and flux-integrated measures within 1e-6 for every family."""
    _assert_all(identities_results, ["measure-identity"])
