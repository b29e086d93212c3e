"""Cell-centered finite-volume discretisation of the soil column.

The column (-h, 0) is split into equal cells with centers z_i; face i
sits below cell i, so faces 0 and n are the column ends. Every face
carries the total flux

    F = kappa * s_z + alpha_g * ((s - s_bar)+)^2

with the gravity term evaluated at the cell above the face: the
transport part of the equation has non-positive wave speeds, and taking
the upper cell is the exact Godunov choice, which keeps the scheme
monotone. The semi-discrete update of a cell is the flux difference of
its two faces divided by the cell width, so the discrete column mass
dz * sum(s) changes only through the two boundary faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .model import Parameters, gravity_flux, gravity_flux_derivative
from .tridiag import Tridiagonal

TOP = "top"
BOTTOM = "bottom"


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered mesh on (-depth_h, 0), ascending in z."""

    n_cells: int
    dz: float
    centers: np.ndarray

    @property
    def depth_h(self) -> float:
        return self.n_cells * self.dz


def build_grid(depth_h: float, d: float) -> Grid:
    """Mesh with cell width as close to d as an exact partition allows.

    The cell count is round(depth_h / d) and dz = depth_h / n_cells, so
    the cells always tile the column exactly even when d does not
    divide depth_h.
    """
    if not depth_h > 0.0:
        raise ValueError(f"depth_h must be > 0, got {depth_h}")
    if not 0.0 < d <= depth_h:
        raise ValueError(f"d must be in (0, depth_h], got {d}")
    n = int(round(depth_h / d))
    n = max(n, 1)
    dz = depth_h / n
    centers = -depth_h + (np.arange(n) + 0.5) * dz
    return Grid(n_cells=n, dz=dz, centers=centers)


@dataclass(frozen=True, eq=False)
class State:
    """Saturation profile at one time instant; s[i] lives at centers[i]."""

    time: float
    s: np.ndarray


TimeFn = Callable[[float], float]


def _as_time_fn(value: Union[float, TimeFn]) -> TimeFn:
    if callable(value):
        return value
    v = float(value)
    return lambda t: v


def _check_constant(value: Union[float, TimeFn], what: str) -> None:
    if not callable(value) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


@dataclass(frozen=True)
class Dirichlet:
    """Prescribed boundary saturation, a constant or a function of time."""

    value: Union[float, TimeFn]

    def __post_init__(self):
        _check_constant(self.value, "Dirichlet value")

    def value_at(self, t: float) -> float:
        return _as_time_fn(self.value)(t)


@dataclass(frozen=True)
class Flux:
    """Prescribed total mass flux through a column end.

    The value is the flux law kappa*s_z + alpha_g*((s-s_bar)+)^2 itself,
    so a positive value feeds the column at the top and drains it at the
    bottom; zero means an impermeable end.
    """

    value: Union[float, TimeFn]

    def __post_init__(self):
        _check_constant(self.value, "Flux value")

    def value_at(self, t: float) -> float:
        return _as_time_fn(self.value)(t)


@dataclass(frozen=True)
class Robin:
    """Boundary flux proportional to the inner/outer saturation difference."""

    beta: float
    s_out: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"Robin beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.s_out <= 1.0:
            raise ValueError(f"Robin s_out must be in [0, 1], got {self.s_out}")


EndCondition = Union[Dirichlet, Flux, Robin]


@dataclass(frozen=True)
class BoundarySpec:
    """Conditions at the two column ends (top z=0, bottom z=-h)."""

    top: EndCondition
    bottom: EndCondition


def no_flux() -> BoundarySpec:
    """Impermeable column: zero total flux through both ends."""
    return BoundarySpec(top=Flux(0.0), bottom=Flux(0.0))


def interior_face_flux(s_lower: float, s_upper: float, dz: float, p: Parameters):
    """Total flux through a face between two cells.

    Diffusion uses the centered difference across the face; the gravity
    term is upwinded from the cell with larger z. A positive flux enters
    the cell below the face and leaves the cell above it.
    """
    return p.kappa * (s_upper - s_lower) / dz + gravity_flux(s_upper, p)


def ghost_value(dirichlet_value: float, boundary_cell_s: float) -> float:
    """Reflected ghost saturation for a Dirichlet end.

    Linear extrapolation through the boundary: the average of the ghost
    and the boundary cell equals the prescribed value, so the boundary
    face flux can be formed with interior_face_flux against the ghost.
    Ghost values are numerical auxiliaries and may fall outside [0, 1].
    """
    return 2.0 * dirichlet_value - boundary_cell_s


def boundary_flux(end: str, spec: EndCondition, boundary_cell_s: float, t: float,
                  p: Parameters) -> float:
    """Flux through a column end for Flux and Robin conditions.

    Robin evaluates the inner saturation at the boundary cell center
    (first-order, consistent with the scheme). Dirichlet ends are
    handled by the ghost construction, not here.
    """
    if isinstance(spec, Flux):
        return spec.value_at(t)
    if isinstance(spec, Robin):
        if end == TOP:
            return -spec.beta * (boundary_cell_s - spec.s_out)
        if end == BOTTOM:
            return spec.beta * (boundary_cell_s - spec.s_out)
        raise ValueError(f"unknown end {end!r}")
    raise TypeError("Dirichlet ends have no flux form; use ghost_value")


def face_fluxes(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> np.ndarray:
    """All n_cells+1 face fluxes, bottom end first.

    Index i is the face below cell i; entries 0 and n are the boundary
    fluxes that the mass audit integrates in time.
    """
    s = state.s
    t = state.time
    dz = grid.dz
    n = grid.n_cells
    flux = np.empty(n + 1)
    flux[1:n] = p.kappa * (s[1:] - s[:-1]) / dz + gravity_flux(s[1:], p)

    bottom = bc.bottom
    if isinstance(bottom, Dirichlet):
        ghost = ghost_value(bottom.value_at(t), s[0])
        flux[0] = interior_face_flux(ghost, s[0], dz, p)
    else:
        flux[0] = boundary_flux(BOTTOM, bottom, s[0], t, p)

    top = bc.top
    if isinstance(top, Dirichlet):
        ghost = ghost_value(top.value_at(t), s[n - 1])
        flux[n] = interior_face_flux(s[n - 1], ghost, dz, p)
    else:
        flux[n] = boundary_flux(TOP, top, s[n - 1], t, p)
    return flux


def rhs(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> np.ndarray:
    """Semi-discrete time derivative, ds_i/dt = (F_above - F_below) / dz."""
    return np.diff(face_fluxes(state, grid, p, bc)) / grid.dz


def _boundary_face_slope(end: str, spec: EndCondition, s_cell: float, t: float,
                         dz: float, p: Parameters) -> float:
    """d(boundary face flux)/d(boundary cell saturation)."""
    if isinstance(spec, Flux):
        return 0.0
    if isinstance(spec, Robin):
        return -spec.beta if end == TOP else spec.beta
    # Dirichlet: the ghost moves opposite to the cell, d(ghost)/d(s) = -1.
    if end == TOP:
        ghost = ghost_value(spec.value_at(t), s_cell)
        return -2.0 * p.kappa / dz - gravity_flux_derivative(ghost, p)
    return 2.0 * p.kappa / dz + gravity_flux_derivative(s_cell, p)


def jacobian(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> Tridiagonal:
    """Exact tridiagonal Jacobian of rhs with respect to the cell values.

    Interior stencil: kappa/dz^2 couplings for diffusion plus the
    upwinded transport slope on the diagonal and the upper diagonal.
    The transport contribution to the upper diagonal is nonnegative,
    which is the monotonicity of the upwind choice.
    """
    s = state.s
    t = state.time
    dz = grid.dz
    n = grid.n_cells
    k = p.kappa
    gp = gravity_flux_derivative(s, p)

    kdz2 = k / (dz * dz)
    diag = -2.0 * kdz2 - gp / dz
    lower = np.full(n - 1, kdz2)
    upper = kdz2 + gp[1:] / dz

    # Boundary rows: drop the missing outer coupling, add the BC slope.
    diag[0] += kdz2 + gp[0] / dz
    diag[0] -= _boundary_face_slope(BOTTOM, bc.bottom, s[0], t, dz, p) / dz
    diag[n - 1] += kdz2
    diag[n - 1] += _boundary_face_slope(TOP, bc.top, s[n - 1], t, dz, p) / dz
    return Tridiagonal(lower=lower, diag=diag, upper=upper)
