"""The wet sealed column's steady state: an exact solution where gravity
and capillarity balance, reached by long steps.

A sealed column whose mean saturation is above s_bar settles where the
flux kappa*s_z + alpha_g*(s - s_bar)^2 vanishes everywhere, at
s = s_bar + (kappa/alpha_g)/(z + L) (tests/oracles.py). After the
transient the run is a slow approach to this state, so the error
controller lengthens the step until the cap DT_MAX stops it. The upwind
flux is first order, so the L1 error of the settled profile falls as dz.
"""

import numpy as np
import pytest

from soilcolumn import (
    Parameters, State, build_grid, integrate, mass_balance_audit, no_flux,
    timestepper)
from soilcolumn.timestepper import COMPLETED

from oracles import sealed_steady_state

P = Parameters(kappa=0.1, alpha_g=0.5, s_bar=0.2303, depth_h=5.0)
MEAN, T_END = 0.3, 20000.0
# At the integrator's DT_MAX of 10 the four runs take about 2,040 steps
# each, so the runs lift the cap to reach T_END in under 100.
DT_MAX = 1000.0


@pytest.fixture(scope="module")
def settled():
    """{n: (grid, trace)} of a uniform column at MEAN run to T_END on n cells."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timestepper, "DT_MAX", DT_MAX)
        for n in (50, 100, 200, 400):
            g = build_grid(P.depth_h, P.depth_h / n)
            runs[n] = g, integrate(State(0.0, np.full(n, MEAN)), T_END, [T_END],
                                   g, P, no_flux())
    return runs


def test_oracle_keeps_the_column_mass():
    g = build_grid(P.depth_h, 0.01)
    exact = sealed_steady_state(MEAN, g, P)
    assert exact.mean() == pytest.approx(MEAN, abs=1e-14)
    assert np.all(np.diff(exact) < 0.0)  # wettest at the bottom


def test_first_order_in_space(settled):
    # L1 errors 5.71e-3, 2.96e-3, 1.50e-3 and 7.59e-4 measured, orders
    # 0.95, 0.97 and 0.99.
    errors = []
    for g, trace in settled.values():
        assert trace.status == COMPLETED
        exact = sealed_steady_state(MEAN, g, P)
        errors.append(g.dz * float(np.abs(trace.final.s - exact).sum()))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert orders.min() >= 0.9, (errors, orders)
    assert errors[-1] < 1e-3, errors


def test_long_steps_keep_the_mass(settled):
    # Round-off only: 8e-15 measured at every n.
    for g, trace in settled.values():
        drift = mass_balance_audit(trace, g, P, no_flux())
        assert np.max(np.abs(drift)) <= 1e-12


def test_controller_reaches_dt_max(settled):
    # 78 to 86 accepted steps measured from n=50 to n=400, none rejected.
    for _, trace in settled.values():
        assert trace.step_dt.max() == DT_MAX
        assert len(trace) - 1 <= 100
