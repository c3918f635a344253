"""Stationarity-preserving global-flux spectral element solver for the 2D
linear acoustic system with Coriolis, friction, forcing and mass sources."""

from .basis import (GaussLobattoRule, OperatorSet1D, build_operator_set, gauss_lobatto_rule,
                    lagrange_deriv, lagrange_eval, neumann_closure)
from .dec import BlowUpError, DeCConfig, Stepper
from .gf import GFVars, SourceArrays, compute_gf_vars, gf_divergence
from .grid import Field, Grid2D, State, dump_field, l2_norm, load_field, make_grid, quad_weights
from .problems import (Problem, SourceEval, coriolis_vortex, exact_state,
                       make_problem, mass_source_steady, mass_source_translating,
                       pressure_perturbation, stommel_coefficients, stommel_gyre)
from .schemes import (ResidualTable, SchemeConfig, default_alpha, energy, galerkin_gf,
                      galerkin_standard, spatial_residual, stab_oss, stab_su_space,
                      stab_su_time)
from .wellprep import (ProjectionReport, line_by_line_projection,
                       optimization_projection, projection_residual)

__all__ = [
    "GaussLobattoRule", "OperatorSet1D", "build_operator_set", "gauss_lobatto_rule",
    "lagrange_deriv", "lagrange_eval", "neumann_closure", "BlowUpError", "DeCConfig",
    "Stepper", "GFVars", "SourceArrays", "compute_gf_vars", "gf_divergence", "Field",
    "Grid2D", "State", "dump_field", "l2_norm", "load_field", "make_grid",
    "quad_weights", "Problem", "SourceEval", "coriolis_vortex",
    "exact_state", "make_problem", "mass_source_steady", "mass_source_translating",
    "pressure_perturbation", "stommel_coefficients", "stommel_gyre", "ResidualTable",
    "SchemeConfig", "default_alpha", "energy", "galerkin_gf",
    "galerkin_standard", "spatial_residual", "stab_oss", "stab_su_space",
    "stab_su_time", "ProjectionReport", "line_by_line_projection",
    "optimization_projection", "projection_residual",
]
__version__ = "0.1.0"
