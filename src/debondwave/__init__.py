"""debondwave: the linear wave equation on moving domains.

Simulation and verification of the pulled-back (fixed-domain) hyperbolic
problem, energy accounting on the moving domain, the dynamic energy
release rate and the coupled Griffith-type debonding evolution, with 1d
characteristic solutions as ground truth.
"""

__version__ = "0.1.0"

from .kernels import backend_name
from .characteristics import CharScenario, dalembert_fixed, front_ode_exact
from .domains import Annulus, Ball, Box, Interval, Tetrahedron
from .energy import (
    Ledger,
    ledger_transformed,
    measure_identity_residual,
)
from .expressions import Affine, Const, Poly, SineMode, SpaceTimeField, parse_expression
from .fd import solve_fd
from .cylinder import solve_cylinder
from .galerkin import SineBasis, GalerkinSystem, Trajectory, integrate, solve_transformed_modal
from .griffith import (
    CoupledNumerics,
    Verdict,
    compatibility_check,
    evolve_coupled_1d,
    evolve_coupled_radial,
    flow_rule,
    flow_rule_fixed_point,
    griffith_check,
    mdp_oracle,
)
from .motion import (
    boundary_kinematics,
    homothetic,
    identity_motion,
    interval_flow,
    one_d_scaling,
    radial_annulus_flow,
    validate,
)
from .residuals import weak_residual
from .scenarios import parse_scenario
from .runner import run_scenario
from .transform import (
    PulledBackProblem,
    ellipticity_constant,
    lift_dirichlet,
    pullback_initial,
)
