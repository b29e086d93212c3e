"""Mass-conservative 1-D simulator of gravity-capillarity water flow in soil.

The saturation s(z, t) on the column (-h, 0) obeys

    s_t = d/dz [ kappa * s_z + alpha_g * ((s - s_bar)+)^2 ],

solved by a cell-centered finite-volume scheme with Godunov upwinding of
the gravity term and adaptive implicit Euler time stepping.
"""

from .diagnostics import (
    FRONT_DEPTH,
    MAX_BELOW_SBAR,
    MAXMIN_BELOW_GAP,
    EventReport,
    InstabilityMetrics,
    OracleInvalidError,
    characteristics_oracle,
    detect_event,
    extrema_series,
    instability_metrics,
    mass_balance_audit,
    mass_integral,
    mass_series,
)
from .discretization import (
    BoundarySpec,
    Dirichlet,
    Flux,
    Grid,
    Robin,
    State,
    build_grid,
    no_flux,
    rhs,
)
from .model import (
    Parameters,
    gravity_flux,
    gravity_flux_derivative,
    positive_part,
)
from .scenarios import (
    PiecewiseLinearIC,
    Scenario,
    example1,
    example2,
    example3,
    ic_from_breakpoints,
    sandy_loam_sbar,
)
from .timestepper import (
    Accepted,
    NewtonError,
    SolverSettings,
    Trace,
    accepted_states,
    integrate,
    newton_step,
    record,
)

__version__ = "0.1.0"

__all__ = [
    "Accepted", "BoundarySpec", "Dirichlet", "EventReport", "Flux", "Grid",
    "InstabilityMetrics", "NewtonError", "OracleInvalidError", "Parameters",
    "PiecewiseLinearIC", "Robin", "Scenario", "SolverSettings", "State",
    "Trace", "FRONT_DEPTH", "MAX_BELOW_SBAR", "MAXMIN_BELOW_GAP",
    "accepted_states", "build_grid", "characteristics_oracle", "detect_event",
    "example1", "example2", "example3", "extrema_series", "gravity_flux",
    "gravity_flux_derivative", "ic_from_breakpoints", "instability_metrics",
    "integrate", "mass_balance_audit", "mass_integral", "mass_series",
    "newton_step", "no_flux", "positive_part", "record", "rhs",
    "sandy_loam_sbar",
]
