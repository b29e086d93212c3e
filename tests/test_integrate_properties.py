"""Property tests of integrate()'s contract on randomly drawn columns.

Hypothesis draws the parameters, a Dirichlet, Flux or Robin condition at
each end (a constant or a function of time), a piecewise-linear initial
profile, 1 to 200 cells, a short end time and up to three output times.
Every draw is a valid input, so integrate must return a Trace without
raising; beyond that the run must hit its output times exactly, be
bitwise deterministic, keep its mass slip within the Newton tolerance,
and keep saturation nonnegative whenever nothing drains the column.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilcolumn.diagnostics import mass_balance_audit
from soilcolumn.discretization import (
    BoundarySpec, Dirichlet, Flux, Robin, State, build_grid)
from soilcolumn.model import Parameters
from soilcolumn.scenarios import ic_from_breakpoints
from soilcolumn.timestepper import COMPLETED, NEWTON_TOL, integrate

# Enough draws to cover every pair of end conditions several times,
# few enough that the whole module runs in a few seconds.
MAX_EXAMPLES = 40


@dataclass(frozen=True)
class Wave:
    """A boundary value mean + amp * sin(2*pi*t/period)."""

    mean: float
    amp: float
    period: float

    def __call__(self, t: float) -> float:
        return self.mean + self.amp * math.sin(2.0 * math.pi * t / self.period)

    @property
    def low(self) -> float:
        return self.mean - abs(self.amp)

    @property
    def high(self) -> float:
        return self.mean + abs(self.amp)


def _unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _values(lo, hi):
    """A constant in [lo, hi], or a Wave that stays inside it."""
    def wave(mean):
        room = min(mean - lo, hi - mean)
        return st.builds(Wave, st.just(mean), _unit(-room, room), _unit(0.01, 1.0))
    return st.one_of(_unit(lo, hi), _unit(lo, hi).flatmap(wave))


def _bounds(value):
    if isinstance(value, Wave):
        return value.low, value.high
    return value, value


end_conditions = st.one_of(
    st.builds(Dirichlet, _values(0.0, 1.0)),
    st.builds(Flux, _values(-0.01, 0.01)),
    st.builds(Robin, _unit(0.01, 2.0), _unit()),
)


@st.composite
def columns(draw):
    """(integrate's arguments, output times) of one random column."""
    p = Parameters(kappa=draw(_unit(0.0, 0.05)), alpha_g=draw(_unit()),
                   s_bar=draw(_unit(0.0, 0.5)), depth_h=draw(_unit(0.5, 5.0)))
    n = draw(st.integers(1, 200))
    grid = build_grid(p.depth_h, p.depth_h / n)
    inner = sorted(draw(st.sets(_unit(-p.depth_h, 0.0), max_size=3)))
    zs = [-p.depth_h, *[z for z in inner if -p.depth_h < z < 0.0], 0.0]
    ic = ic_from_breakpoints([(z, draw(_unit())) for z in zs])
    bc = BoundarySpec(top=draw(end_conditions), bottom=draw(end_conditions))
    t_end = draw(_unit(1e-3, 0.1))
    outputs = sorted(draw(st.sets(_unit(0.0, t_end), max_size=3)))
    initial = State(0.0, np.asarray(ic(grid.centers), dtype=float))
    return (initial, t_end, outputs, grid, p, bc), outputs


def _drains(bc: BoundarySpec) -> bool:
    """True when a Flux end can take water out: a negative value at the
    top, a positive one at the bottom."""
    top = isinstance(bc.top, Flux) and _bounds(bc.top.value)[0] < 0.0
    bottom = isinstance(bc.bottom, Flux) and _bounds(bc.bottom.value)[1] > 0.0
    return top or bottom


@settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(column=columns())
def test_integrate_contract(column):
    args, outputs = column
    initial, _, _, grid, p, bc = args
    trace = integrate(*args)
    again = integrate(*args)

    # bitwise deterministic
    assert np.array_equal(trace.times, again.times)
    assert np.array_equal(trace.profiles, again.profiles)
    assert np.array_equal(trace.step_dt, again.step_dt)
    assert np.array_equal(trace.mass, again.mass)

    # requested output times are hit exactly
    assert trace.status == COMPLETED, trace.failure_reason
    assert set(outputs) <= set(trace.times.tolist())
    assert trace.times[-1] == args[1]

    # mass changes only through the ends, up to the Newton residual
    steps = len(trace) - 1
    drift = mass_balance_audit(trace, grid, p, bc)
    assert np.max(np.abs(drift)) <= steps * grid.n_cells * NEWTON_TOL

    # nonnegative data and no draining end keep the column nonnegative
    if initial.s.min() >= 0.0 and not _drains(bc):
        assert trace.s_min.min() >= -1e-10
