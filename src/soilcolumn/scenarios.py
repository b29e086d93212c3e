"""Ready-made column experiments and the piecewise-linear IC builder.

All presets run the paper's column: 5 deep in cells of 0.01, with
2*alpha_g = 1, the sandy-loam s_bar and kappa = 0.005; example3 takes
kappa and s_bar as arguments. example1 drains an initially saturated
top layer (redistribution after infiltration), example2 wets the column
from a wet bottom layer, and example3 drives a steep wetting front
against Dirichlet ends for stability and stickiness studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretization import (
    BoundarySpec, Dirichlet, Grid, State, build_grid, no_flux)
from .model import Parameters

# Residual saturation as residual water content over porosity. The
# sandy-loam ratio is 0.111/0.482, reported rounded as 0.2303; the
# full-precision ratio is kept to avoid compounding rounding.
SANDY_LOAM_SBAR = 0.111 / 0.482


@dataclass(frozen=True)
class PiecewiseLinearIC:
    """Piecewise-linear saturation profile with constant extension.

    breakpoints are (z, s) pairs with finite, strictly increasing z and
    s in [0, 1]; between breakpoints the profile interpolates linearly and
    beyond the first/last it continues with their values.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.breakpoints) == 0:
            raise ValueError("need at least one breakpoint")
        zs = [z for z, _ in self.breakpoints]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError(f"breakpoint depths must strictly increase: {zs}")
        for z, s in self.breakpoints:
            if not math.isfinite(z):
                raise ValueError(f"breakpoint depth z={z} is not finite")
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"saturation {s} at z={z} outside [0, 1]")

    def __call__(self, z):
        zs = np.array([p[0] for p in self.breakpoints])
        ss = np.array([p[1] for p in self.breakpoints])
        return np.interp(z, zs, ss)


def ic_from_breakpoints(points: Sequence[tuple[float, float]]) -> PiecewiseLinearIC:
    """Validated piecewise-linear IC from (z, s) pairs."""
    return PiecewiseLinearIC(tuple((float(z), float(s)) for z, s in points))


@dataclass(frozen=True)
class Scenario:
    """A complete column experiment ready to hand to the integrator."""

    params: Parameters
    d: float
    ic: PiecewiseLinearIC
    bc: BoundarySpec
    t_end: float
    output_times: tuple[float, ...]

    def __post_init__(self):
        for z, _ in self.ic.breakpoints:
            if not -self.params.depth_h <= z <= 0.0:
                raise ValueError(
                    f"IC breakpoint z={z} outside [-{self.params.depth_h}, 0]")

    def build_grid(self) -> Grid:
        return build_grid(self.params.depth_h, self.d)

    def initial_state(self, grid: Grid) -> State:
        """The initial saturation at the centers of grid, at t = 0."""
        return State(time=0.0, s=np.asarray(self.ic(grid.centers), dtype=float))


def _preset(breakpoints, bc: BoundarySpec, t_end: float, output_times: tuple,
            kappa: float = 0.005, s_bar: float = SANDY_LOAM_SBAR) -> Scenario:
    """The paper's column (see above) run from the IC breakpoints."""
    params = Parameters(kappa=kappa, alpha_g=0.5, s_bar=s_bar, depth_h=5.0)
    return Scenario(params=params, d=0.01, ic=ic_from_breakpoints(breakpoints),
                    bc=bc, t_end=t_end, output_times=output_times)


def _sealed(breakpoints) -> Scenario:
    """A preset with no-flux ends, run to t = 2500."""
    return _preset(breakpoints, no_flux(), 2500.0, (0.5, 5.0, 250.0, 2500.0))


def example1() -> Scenario:
    """Redistribution of a saturated 0.5-deep surface layer, sealed ends."""
    return _sealed([(-0.51, 0.0), (-0.50, 1.0)])


def example2() -> Scenario:
    """Wetting from a 0.49-thick bottom layer at s=0.3, sealed ends."""
    return _sealed([(-4.51, 0.3), (-4.50, 0.0)])


def example3(kappa: float = 0.005, s_bar: float = SANDY_LOAM_SBAR) -> Scenario:
    """Steep wetting front under Dirichlet-zero ends.

    kappa in [0, 0.01] spans the stability study; s_bar defaults to the
    sandy-loam value and s_bar=0 switches the stickiness off.
    """
    return _preset([(-2.01, 0.0), (-2.00, 1.0), (0.0, 0.0)],
                   BoundarySpec(top=Dirichlet(0.0), bottom=Dirichlet(0.0)),
                   5.0, (0.5, 5.0), kappa, s_bar)


SCENARIOS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
}


def by_name(name: str) -> Scenario:
    """Look up a preset scenario by its stable identifier."""
    try:
        factory = SCENARIOS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}") from None
    return factory()
