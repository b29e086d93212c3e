"""The scheme's space order with diffusion and gravity together, at
Dirichlet, Flux and Robin ends, by the method of manufactured solutions
(Roache 2002, "Code verification by the method of manufactured
solutions", J. Fluids Eng. 124:4-10).

The profile s*(z, t) = 0.55 + 0.35*cos(pi*(z/h + phase))*exp(-t/4)
solves the equation once the source S = s*_t - d/dz F(s*) is added to
it, where F(s) = kappa*s_z + g(s) is the flux law. s* crosses
s_bar = 0.3, so the runs cover the kink of the gravity flux there. At
phase 0 the profile is flat at both ends, where a Dirichlet end's ghost
cell then hardly matters; phase 0.1 tilts it so that both ends carry a
gradient. The runs add the cell average of S to rhs, in closed form:
the time derivative of the cell average of s*, less the difference of
F* = F(s*) at the cell's faces over dz. S does not depend on s, so the
Jacobian needs no term for it. The ends carry the exact saturation or
the exact flux of s*, or a Robin flux whose mismatch with F* the
boundary cells' sources absorb (robin_correction). The runs start from
the cell averages of s* and are compared with them at t = 1. The upwind
flux is first order.
"""

import math

import numpy as np
import pytest

from soilcolumn import (
    BoundarySpec, Dirichlet, Flux, Parameters, Robin, State, build_grid,
    integrate, timestepper)
from soilcolumn.discretization import rhs
from soilcolumn.model import gravity_flux
from soilcolumn.timestepper import COMPLETED, SolverSettings

H, MEAN, AMPLITUDE, DECAY, T_END = 1.0, 0.55, 0.35, 0.25, 1.0
# Tight enough that the time error is a small part of the space error.
SETTINGS = SolverSettings(rel_tol=1e-7, abs_tol=1e-7)


def exact(z, t, phase):
    return MEAN + AMPLITUDE * np.cos(math.pi * (z / H + phase)) * math.exp(-DECAY * t)


def exact_flux(z, t, phase, p):
    """F(s*) = kappa*s*_z + g(s*) at depth z."""
    slope = (-AMPLITUDE * math.pi / H * np.sin(math.pi * (z / H + phase))
             * math.exp(-DECAY * t))
    return p.kappa * slope + gravity_flux(exact(z, t, phase), p)


def faces(g):
    return -H + np.arange(g.n_cells + 1) * g.dz


def cell_averages(g, t, phase):
    """The cell averages of s* at time t, exact."""
    sines = np.sin(math.pi * (faces(g) / H + phase))
    return MEAN + AMPLITUDE * H / math.pi * np.diff(sines) / g.dz * math.exp(-DECAY * t)


def cell_source(g, t, phase, p):
    """The cell averages of S at time t, exact."""
    return (-DECAY * (cell_averages(g, t, phase) - MEAN)
            - np.diff(exact_flux(faces(g), t, phase, p)) / g.dz)


def dirichlet_ends(phase, p):
    return BoundarySpec(top=Dirichlet(lambda t: float(exact(0.0, t, phase))),
                        bottom=Dirichlet(lambda t: float(exact(-H, t, phase))))


def flux_ends(phase, p):
    return BoundarySpec(top=Flux(lambda t: float(exact_flux(0.0, t, phase, p))),
                        bottom=Flux(lambda t: float(exact_flux(-H, t, phase, p))))


def robin_ends(phase, p):
    return BoundarySpec(top=Robin(0.5, 0.2), bottom=Robin(0.5, 0.2))


def robin_correction(g, t, phase, p, robin):
    """The boundary cells' source corrections at Robin ends on both sides.

    A Robin end's flux, beta*(s - s_out) at the bottom and its negative
    at the top, cannot match F* with a constant s_out. So each boundary
    cell's source adds its end's flux, taken at the exact cell average,
    less F* at that end, with the sign the face carries in the cell's
    flux difference. The correction does not depend on s either.
    """
    averages = cell_averages(g, t, phase)
    r_bottom = robin.beta * (averages[0] - robin.s_out)
    r_top = -robin.beta * (averages[-1] - robin.s_out)
    correction = np.zeros(g.n_cells)
    correction[0] = (r_bottom - exact_flux(-H, t, phase, p)) / g.dz
    correction[-1] = (exact_flux(0.0, t, phase, p) - r_top) / g.dz
    return correction


def error_at_t_end(monkeypatch, n, phase, p, ends):
    """Max-norm distance of the run on n cells from the cell averages of
    s* at T_END."""
    g = build_grid(H, H / n)

    def forced_rhs(state, grid, p, bc):
        source = cell_source(grid, state.time, phase, p)
        if isinstance(bc.top, Robin):
            source += robin_correction(grid, state.time, phase, p, bc.top)
        return rhs(state, grid, p, bc) + source

    monkeypatch.setattr(timestepper, "rhs", forced_rhs)
    trace = integrate(State(0.0, cell_averages(g, 0.0, phase)), T_END, [T_END], g, p,
                      ends(phase, p), SETTINGS)
    assert trace.status == COMPLETED
    return float(np.max(np.abs(trace.final.s - cell_averages(g, T_END, phase))))


@pytest.mark.parametrize("ends", [dirichlet_ends, flux_ends, robin_ends])
@pytest.mark.parametrize("kappa", [0.05, 0.005])
@pytest.mark.parametrize("phase", [0.0, 0.1])
def test_first_order_in_space(monkeypatch, ends, kappa, phase):
    # Max-norm errors at phase 0 and n = 25, 50, 100 and 200 measured:
    # 9.4e-3 to 1.25e-3 at kappa = 0.05 (orders 0.95 / 0.98 / 0.99 at
    # Dirichlet ends, 0.95 / 0.97 / 0.99 at Flux ends) and 2.2e-2 to
    # 3.2e-3 at kappa = 0.005 (0.90 / 0.94 / 0.97 at either), the same at
    # tolerances of 1e-9. At Robin ends: 9.3e-3 to 1.2e-3 at kappa = 0.05
    # (orders 0.96 / 0.98 / 0.99 at phase 0, 0.91 / 0.96 / 0.98 at phase
    # 0.1) and 2.2e-2 to 3.2e-3 at kappa = 0.005 (0.90 / 0.94 / 0.97 and
    # 0.88 / 0.94 / 0.97). The test runs the two finest grids.
    p = Parameters(kappa=kappa, alpha_g=0.5, s_bar=0.3, depth_h=H)
    coarse, fine = (error_at_t_end(monkeypatch, n, phase, p, ends) for n in (100, 200))
    order = math.log2(coarse / fine)
    assert 0.85 <= order <= 1.15, (coarse, fine, order)
    assert fine < 4e-3, fine
