"""The viscous-Burgers traveling wave: an exact solution of the full
equation, with diffusion and gravity acting together.

Where s > s_bar the model is viscous Burgers in v = s - s_bar,
v_t = kappa*v_zz + 2*alpha_g*v*v_z, which the wave

    v = m + a*tanh(alpha_g*a*(z + 2*alpha_g*m*t - z0)/kappa)

solves exactly, with m and a the mean and half the difference of its
top and bottom values (Burgers 1948; Whitham 1974). The wave stays above
s_bar, so it does not exercise the kink of the gravity flux there. The
column ends carry the exact values as time-dependent Dirichlet ends, and
every run takes fixed steps: the first step DT_INIT == DT_MAX, and
tolerances no step can fail.
"""

import numpy as np

from soilcolumn import (
    BoundarySpec, Dirichlet, Parameters, State, build_grid, integrate, timestepper)
from soilcolumn.timestepper import COMPLETED, SolverSettings

H, KAPPA, ALPHA_G, S_BAR = 2.0, 0.005, 0.5, 0.2303
V_TOP, V_BOTTOM, Z0, T_END = 0.5, 0.05, -1.0, 0.5
MEAN, HALF_JUMP = (V_TOP + V_BOTTOM) / 2.0, (V_TOP - V_BOTTOM) / 2.0


def exact(z, t):
    """The saturation of the traveling wave at depth z and time t."""
    xi = z + 2.0 * ALPHA_G * MEAN * t - Z0
    return S_BAR + MEAN + HALF_JUMP * np.tanh(ALPHA_G * HALF_JUMP * xi / KAPPA)


def fixed_step_run(monkeypatch, d, dt):
    """(grid, final profile) of the wave from t=0 to T_END in steps of dt."""
    monkeypatch.setattr(timestepper, "DT_INIT", dt)
    monkeypatch.setattr(timestepper, "DT_MAX", dt)
    p = Parameters(kappa=KAPPA, alpha_g=ALPHA_G, s_bar=S_BAR, depth_h=H)
    bc = BoundarySpec(top=Dirichlet(lambda t: float(exact(0.0, t))),
                      bottom=Dirichlet(lambda t: float(exact(-H, t))))
    g = build_grid(H, d)
    settings = SolverSettings(rel_tol=1e6, abs_tol=1e6)
    trace = integrate(State(0.0, exact(g.centers, 0.0)), T_END, [T_END], g, p, bc,
                      settings)
    assert trace.status == COMPLETED
    assert trace.rejected_error == trace.rejected_newton == 0
    assert np.all(trace.step_dt <= dt)
    return g, trace.final.s


def l1(g, a, b):
    return g.dz * float(np.abs(a - b).sum())


def test_second_order_in_time(monkeypatch):
    # Halving dt quarters the difference of successive solutions: 3.57
    # and 4.01 measured, against 1.79 and 1.96 for backward Euler.
    runs = [fixed_step_run(monkeypatch, 0.02, dt) for dt in (0.04, 0.02, 0.01, 0.005)]
    g = runs[0][0]
    diffs = [l1(g, a, b) for (_, a), (_, b) in zip(runs, runs[1:])]
    ratios = [coarse / fine for coarse, fine in zip(diffs, diffs[1:])]
    assert min(ratios) >= 3.3, ratios


def test_first_order_in_space(monkeypatch):
    # The upwind flux and the reflected-ghost Dirichlet end are first
    # order: L1 errors 1.04e-2, 5.59e-3 and 3.00e-3 measured at
    # d = 0.04, 0.02 and 0.01.
    errors = []
    for d in (0.04, 0.02, 0.01):
        g, s = fixed_step_run(monkeypatch, d, 0.0025)
        errors.append(l1(g, s, exact(g.centers, T_END)))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert min(ratios) >= 1.6, (errors, ratios)
    assert errors[-1] < 4e-3, errors
