"""Cell-centered finite-volume discretisation of the soil column.

The column (-h, 0) is split into equal cells with centers z_i; face i
sits below cell i, so faces 0 and n are the column ends. Every face
carries the total flux

    F = kappa * s_z + alpha_g * ((s - s_bar)+)^2

with the gravity term evaluated at the cell above the face: the
transport part of the equation has non-positive wave speeds, and taking
the upper cell is the exact Godunov choice, which keeps the scheme
monotone. A positive flux enters the cell below the face and leaves the
cell above it. The semi-discrete update of a cell is the flux difference
of its two faces divided by the cell width, so the discrete column mass
dz * sum(s) changes only through the two boundary faces. The Jacobian is
assembled from the slopes of those same faces, so it has no boundary
special cases and its column sums telescope as the mass does.
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

# Largest cell count build_grid accepts: 200 times the finest grid any
# preset, test or benchmark uses (n=5000). Without a cap a tiny cell
# width reaches NumPy as a request for petabytes (d=1e-15), or is
# allocated for gigabytes before any check could refuse it (d=1e-9).
MAX_CELLS = 10**6


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered mesh on (-depth_h, 0), ascending in z."""

    n_cells: int
    dz: float
    centers: np.ndarray


def build_grid(depth_h: float, d: float) -> Grid:
    """Mesh with cell width as close to d as an exact partition allows.

    The cell count is round(depth_h / d) and dz = depth_h / n_cells, so
    the cells always tile the column exactly even when d does not
    divide depth_h. A count above MAX_CELLS is refused before anything
    is allocated.
    """
    if not depth_h > 0.0:
        raise ValueError(f"depth_h must be > 0, got {depth_h}")
    if not 0.0 < d <= depth_h:
        raise ValueError(f"d must be in (0, depth_h], got {d}")
    cells = depth_h / d
    if not cells < MAX_CELLS + 0.5:
        raise ValueError(
            f"d={d} asks for {cells:.3g} cells on a column of depth {depth_h}; "
            f"at most {MAX_CELLS} are allowed")
    n = max(int(round(cells)), 1)
    dz = depth_h / n
    centers = -depth_h + (np.arange(n) + 0.5) * dz
    return Grid(n_cells=n, dz=dz, centers=centers)


@dataclass(frozen=True, eq=False)
class State:
    """Saturation profile at one time instant; s[i] lives at centers[i]."""

    time: float
    s: np.ndarray


TimeFn = Callable[[float], float]


class _Prescribed:
    """Base of the end conditions whose value is a constant or a function
    of time; a constant must be finite."""

    def __post_init__(self):
        if not callable(self.value) and not math.isfinite(self.value):
            raise ValueError(
                f"{type(self).__name__} value must be finite, got {self.value}")

    def value_at(self, t: float) -> float:
        return self.value(t) if callable(self.value) else float(self.value)


@dataclass(frozen=True)
class Dirichlet(_Prescribed):
    """Prescribed boundary saturation, a constant or a function of time.

    The boundary face sees a reflected ghost cell, 2*value - s_cell, so
    that the face average of ghost and cell is the prescribed value; the
    face flux is then the interior flux law against the ghost. Ghost
    values are numerical auxiliaries and may fall outside [0, 1]; a
    constant value is a saturation and must lie in [0, 1].
    """

    value: Union[float, TimeFn]

    def __post_init__(self):
        super().__post_init__()
        if not callable(self.value) and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"Dirichlet value must be in [0, 1], got {self.value}")

    def flux_and_slope(self, end: str, s_cell: float, t: float, dz: float,
                       p: Parameters) -> tuple[float, float]:
        s_cell = float(s_cell)
        ghost = 2.0 * self.value_at(t) - s_cell
        # The gravity term is upwinded from the ghost at the top and from
        # the cell at the bottom: gravity_flux and its derivative, done
        # once on floats. As in gravity_flux, r <= 0 gives 0.0 and a NaN
        # passes through.
        r = (ghost if end == TOP else s_cell) - p.s_bar
        r = 0.0 if r <= 0.0 else r
        gravity, slope = p.alpha_g * r * r, 2.0 * p.alpha_g * r
        # The ghost moves opposite to the cell, d(ghost)/d(s_cell) = -1.
        if end == TOP:
            return (p.kappa * (ghost - s_cell) / dz + gravity,
                    -2.0 * p.kappa / dz - slope)
        return (p.kappa * (s_cell - ghost) / dz + gravity,
                2.0 * p.kappa / dz + slope)


@dataclass(frozen=True)
class Flux(_Prescribed):
    """Prescribed total mass flux through a column end.

    The value is the flux law kappa*s_z + alpha_g*((s-s_bar)+)^2 itself,
    so a positive value feeds the column at the top and drains it at the
    bottom; zero means an impermeable end.
    """

    value: Union[float, TimeFn]

    def flux_and_slope(self, end: str, s_cell: float, t: float, dz: float,
                       p: Parameters) -> tuple[float, float]:
        return self.value_at(t), 0.0


@dataclass(frozen=True)
class Robin:
    """Boundary flux proportional to the inner/outer saturation difference.

    The inner saturation is the boundary cell's (first-order, consistent
    with the scheme); a wetter inside leaks out through either end.
    """

    beta: float
    s_out: float

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"Robin beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.s_out <= 1.0:
            raise ValueError(f"Robin s_out must be in [0, 1], got {self.s_out}")

    def flux_and_slope(self, end: str, s_cell: float, t: float, dz: float,
                       p: Parameters) -> tuple[float, float]:
        beta = -self.beta if end == TOP else self.beta
        return beta * (s_cell - self.s_out), beta


# Every end condition answers flux_and_slope(end, s_cell, t, dz, p) with
# the total flux through the boundary face of `end` (TOP or BOTTOM) and
# its derivative with respect to the boundary cell saturation s_cell.
EndCondition = Union[Dirichlet, Flux, Robin]


@dataclass(frozen=True)
class BoundarySpec:
    """Conditions at the two column ends (top z=0, bottom z=-h)."""

    top: EndCondition
    bottom: EndCondition


def no_flux() -> BoundarySpec:
    """Impermeable column: zero total flux through both ends."""
    return BoundarySpec(top=Flux(0.0), bottom=Flux(0.0))


def face_fluxes(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> np.ndarray:
    """All n_cells+1 face fluxes, bottom end first.

    Index i is the face below cell i; entries 0 and n are the fluxes
    through the column ends, whose difference net_inflow returns.
    """
    s, t, dz, n = state.s, state.time, grid.dz, grid.n_cells
    flux = np.empty(n + 1)
    # kappa * (s[1:] - s[:-1]) / dz + gravity_flux(s[1:]), built in place.
    inner = np.subtract(s[1:], s[:-1], flux[1:n])
    inner *= p.kappa
    inner /= dz
    inner += gravity_flux(s[1:], p)
    flux[0] = bc.bottom.flux_and_slope(BOTTOM, s[0], t, dz, p)[0]
    flux[n] = bc.top.flux_and_slope(TOP, s[-1], t, dz, p)[0]
    return flux


def net_inflow(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> float:
    """The flux into the column through its ends, F_top - F_bottom: the
    difference of face_fluxes' entries n and 0, from the same calls."""
    s, t, dz = state.s, state.time, grid.dz
    return (bc.top.flux_and_slope(TOP, s[-1], t, dz, p)[0]
            - bc.bottom.flux_and_slope(BOTTOM, s[0], t, dz, p)[0])


def rhs(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> np.ndarray:
    """Semi-discrete time derivative, ds_i/dt = (F_above - F_below) / dz."""
    flux = face_fluxes(state, grid, p, bc)
    ds_dt = flux[1:] - flux[:-1]
    ds_dt /= grid.dz
    return ds_dt


def face_flux_slopes(state: State, grid: Grid, p: Parameters,
                     bc: BoundarySpec) -> tuple[np.ndarray, np.ndarray]:
    """(below, above): each face flux's slope with respect to the cell
    below and the cell above the face, n_cells+1 of each. A boundary face
    takes its one slope from flux_and_slope, and the missing one is 0."""
    s, t, dz, n = state.s, state.time, grid.dz, grid.n_cells
    below = np.full(n + 1, -p.kappa / dz)
    below[0], below[n] = 0.0, bc.top.flux_and_slope(TOP, s[n - 1], t, dz, p)[1]
    above = np.empty(n + 1)
    np.add(gravity_flux_derivative(s[1:], p), p.kappa / dz, out=above[1:n])
    above[0], above[n] = bc.bottom.flux_and_slope(BOTTOM, s[0], t, dz, p)[1], 0.0
    return below, above


def jacobian(state: State, grid: Grid, p: Parameters, bc: BoundarySpec) -> Tridiagonal:
    """Exact tridiagonal Jacobian of rhs with respect to the cell values.
    Cell i sits above face i and below face i+1, so its row is the
    difference of those faces' slopes (face_flux_slopes) over dz."""
    below, above = face_flux_slopes(state, grid, p, bc)
    # Products with 1/dz: dividing by dz makes a call at n=5000 a third dearer.
    n, inv_dz = grid.n_cells, 1.0 / grid.dz
    diag = below[1:] - above[:-1]
    diag *= inv_dz
    return Tridiagonal(lower=below[1:n] * -inv_dz, diag=diag, upper=above[1:n] * inv_dz)
