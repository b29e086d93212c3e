"""Mass-conservative 1-D simulator of gravity-capillarity water flow in soil.

The saturation s(z, t) on the column (-h, 0) obeys

    s_t = d/dz [ kappa * s_z + alpha_g * ((s - s_bar)+)^2 ],

solved by a cell-centered finite-volume scheme with Godunov upwinding of
the gravity term and adaptive TR-BDF2 time stepping.
"""

from .diagnostics import (
    FRONT_DEPTH,
    MAX_ABOVE_ONE,
    MAX_BELOW_SBAR,
    MAXMIN_BELOW_GAP,
    EventReport,
    InstabilityMetrics,
    detect_event,
    instability_metrics,
    mass_balance_audit,
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
)
from .scenarios import (
    SANDY_LOAM_SBAR,
    PiecewiseLinearIC,
    Scenario,
    example1,
    example2,
    example3,
    ic_from_breakpoints,
)
from .timestepper import (
    Accepted,
    NewtonError,
    SolverSettings,
    Trace,
    accepted_states,
    integrate,
    record,
)

__version__ = "0.1.0"

__all__ = [
    "Accepted", "BoundarySpec", "Dirichlet", "EventReport", "Flux", "Grid",
    "InstabilityMetrics", "NewtonError", "Parameters",
    "PiecewiseLinearIC", "Robin", "Scenario", "SolverSettings", "State",
    "Trace", "FRONT_DEPTH", "MAX_ABOVE_ONE", "MAX_BELOW_SBAR", "MAXMIN_BELOW_GAP",
    "SANDY_LOAM_SBAR",
    "accepted_states", "build_grid", "detect_event",
    "example1", "example2", "example3", "gravity_flux",
    "gravity_flux_derivative", "ic_from_breakpoints", "instability_metrics",
    "integrate", "mass_balance_audit", "no_flux", "record", "rhs",
]
