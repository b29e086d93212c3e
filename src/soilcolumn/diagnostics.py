"""Mass audits, event detection and profile metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .discretization import BoundarySpec, Grid, State
# Nothing here calls face_fluxes; the name stays for callers that wrap
# it, such as benchmarks/tracing.py, which counts its calls.
from .discretization import face_fluxes  # noqa: F401
from .model import Parameters

MAX_BELOW_SBAR = "max_below_sbar"
MAX_ABOVE_ONE = "max_above_one"
MAXMIN_BELOW_GAP = "maxmin_below_gap"
FRONT_DEPTH = "front_depth"

# First differences smaller than this are treated as flat when counting
# oscillations; keeps rounding noise out of the zigzag count.
ZIGZAG_TOL = 1e-3


@dataclass(frozen=True)
class EventReport:
    """A detected event: its kind, the (interpolated) time, and a value.

    value is the threshold for the crossing events and the interpolated
    depth for front_depth.
    """

    kind: str
    time: float
    value: float


def mass_balance_audit(trace, grid: Grid, p: Parameters,
                       bc: BoundarySpec) -> np.ndarray:
    """Mass drift against the boundary inflow the solver applied.

    drift(t_k) = mass(t_k) - mass(t_0) - sum_{j<k} step_inflow_j. A
    TR-BDF2 step changes the mass by the inflow it recorded, dt times the
    stage-weighted net inflow at its start, its trapezoid stage and its
    end, plus its Newton residuals, so the drift is residual and
    round-off. Everything is read from the trace, so grid, p and bc are
    not read; they name the run the trace belongs to.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    mass = trace.mass
    return mass - mass[0] - np.concatenate(([0.0], np.cumsum(trace.step_inflow)))


def _cross_time(times: np.ndarray, series: np.ndarray, threshold: float,
                k: int) -> float:
    """Time where series crosses threshold between entries k-1 and k."""
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    y0, y1 = series[k - 1], series[k]
    return float(t0 + (threshold - y0) * (t1 - t0) / (y1 - y0))


def detect_event(trace, kind: str, threshold: float,
                 grid: Optional[Grid] = None,
                 at_time: Optional[float] = None) -> Optional[EventReport]:
    """Locate an event in a trace; None when it does not occur.

    max_below_sbar: first time the column maximum falls below threshold.
    max_above_one: first time the column maximum rises above threshold,
    1 for the top of the physical range, which the model does not cap.
    maxmin_below_gap: first time after which max - min stays below
    threshold for the rest of the trace. All three read the extrema
    recorded for every accepted state and are interpolated linearly
    between the bracketing trace entries. front_depth: the depth where
    the profile at at_time (default: the final time) last exceeds
    threshold, interpolated between cell centers; requires grid, and a
    time whose profile the trace kept.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    if kind in (MAX_BELOW_SBAR, MAX_ABOVE_ONE):
        crossed = np.nonzero(trace.s_max < threshold if kind == MAX_BELOW_SBAR
                             else trace.s_max > threshold)[0]
        if crossed.size == 0:
            return None
        k = int(crossed[0])
        return EventReport(
            kind, _cross_time(trace.times, trace.s_max, threshold, k), threshold)
    if kind == MAXMIN_BELOW_GAP:
        gap = trace.s_max - trace.s_min
        above = np.nonzero(gap >= threshold)[0]
        if above.size == 0:
            return EventReport(kind, float(trace.times[0]), threshold)
        k = int(above[-1]) + 1
        if k >= len(trace):
            return None
        return EventReport(kind, _cross_time(trace.times, gap, threshold, k),
                           threshold)
    if kind == FRONT_DEPTH:
        if grid is None:
            raise ValueError("front_depth needs the grid")
        t = float(trace.times[-1]) if at_time is None else float(at_time)
        state = trace.state_at(t)
        wet = np.nonzero(state.s > threshold)[0]
        if wet.size == 0:
            return None
        i = int(wet[0])
        if i == 0:
            depth = float(grid.centers[0])
        else:
            z0, z1 = grid.centers[i - 1], grid.centers[i]
            y0, y1 = state.s[i - 1], state.s[i]
            depth = float(z0 + (threshold - y0) * (z1 - z0) / (y1 - y0))
        return EventReport(kind, t, depth)
    raise ValueError(f"unknown event kind {kind!r}")


class InstabilityMetrics(NamedTuple):
    undershoot: float
    overshoot: float
    zigzag: int


def instability_metrics(state: State) -> InstabilityMetrics:
    """Range violations and an oscillation count for one profile.

    undershoot is how far the minimum dips below 0, overshoot how far
    the maximum exceeds 1. zigzag counts pairs of consecutive sign
    alternations among first differences larger than ZIGZAG_TOL in
    magnitude: a single hump or dip in the profile is not an
    oscillation, two or more direction reversals in a row are.
    """
    s = state.s
    undershoot = max(0.0, -float(s.min()))
    overshoot = max(0.0, float(s.max()) - 1.0)
    d = np.diff(s)
    flip = (d[:-1] * d[1:] < 0.0) & (np.abs(d[:-1]) > ZIGZAG_TOL) \
        & (np.abs(d[1:]) > ZIGZAG_TOL)
    zigzag = int(np.count_nonzero(flip[:-1] & flip[1:]))
    return InstabilityMetrics(undershoot, overshoot, zigzag)

