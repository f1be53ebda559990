"""Numerical laboratory for convective reaction fronts in a 2D strip.

Computes planar and convective traveling fronts of the coupled
temperature-flow system in vorticity form, evolves the Cauchy problem,
and verifies the associated integral identities, a priori bounds and
scaling laws at desk scale.
"""

from .diagnostics import (
    TimeSeries,
    burning_rate,
    check_steady_identity,
    check_winn_inequality,
    front_position,
    nusselt,
    nz_norm,
    u_sup,
    winn_functional,
)
from .elliptic import EllipticPlan, helmholtz_solve, poincare_mode_constant, poisson_dirichlet
from .evolve import OmegaInit, SimConfig, SimState, cfl_dt, init_front_like, run, step
from .flow import FlowState, GravityDir, velocity_from_vorticity, vorticity_rhs
from .front import (
    Continuation,
    FrontProblem,
    FrontSolution,
    find_front,
    front_residual,
    linear_profile,
    solve_steady_pinned,
    tau0_profile,
    tau0_speed,
)
from .grid import (
    BoundaryKind,
    ScalarField,
    StripGrid,
    edge_grad_sq,
    integrate,
    make_grid,
    temperature_bc,
    vorticity_bc,
)
from .inequalities import DecayExperiment, FlowSpec, decay_experiment, nash_ratio
from .laminar import LaminarProfile, ReactionModel, laminar_speed, profile_eval

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
