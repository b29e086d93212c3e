"""Mass audits, extrema and event detection, and validation oracles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .discretization import BoundarySpec, Grid, State
# Nothing here calls face_fluxes; the name stays for callers that wrap
# it, such as benchmarks/tracing.py, which counts its calls.
from .discretization import face_fluxes  # noqa: F401
from .model import Parameters

MAX_BELOW_SBAR = "max_below_sbar"
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


def mass_integral(state: State, grid: Grid) -> float:
    """Water mass in the column by the trapezoidal rule.

    The integrand is the piecewise-linear interpolant of the cell-center
    values, extended as a constant over the two boundary half-cells.
    The end extension makes the trapezoid sum collapse to dz * sum(s),
    exactly the quantity whose change telescopes to the boundary fluxes
    in the finite-volume update, so the audit measures the solver and
    not a quadrature mismatch.
    """
    if state.s.size != grid.n_cells:
        raise ValueError("state does not match grid")
    return grid.dz * float(np.sum(state.s))


def mass_series(trace, grid: Grid) -> np.ndarray:
    """mass_integral at every trace time, as integrate recorded it."""
    return trace.mass


def mass_balance_audit(trace, grid: Grid, p: Parameters,
                       bc: BoundarySpec) -> np.ndarray:
    """Mass drift against the time-integrated boundary fluxes.

    drift(t_k) = mass(t_k) - mass(t_0) - int_{t_0}^{t_k} (F_top - F_bottom),
    with the flux integral accumulated per accepted step by the
    trapezoidal rule. For impermeable ends this is mass(t) - mass(0).
    The masses and fluxes are the ones integrate recorded for every
    accepted state, so grid, p and bc are not read; they name the run
    the trace belongs to.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    mass = trace.mass
    net = trace.flux_top - trace.flux_bottom
    dt = np.diff(trace.times)
    inflow = np.concatenate(([0.0], np.cumsum(0.5 * dt * (net[1:] + net[:-1]))))
    return mass - mass[0] - inflow


def extrema_series(trace) -> tuple[np.ndarray, np.ndarray]:
    """(s_min, s_max) over the cells at every trace time."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    return trace.s_min, trace.s_max


def _cross_time(times: np.ndarray, series: np.ndarray, threshold: float,
                k: int) -> float:
    """Time where series crosses threshold between entries k-1 and k."""
    if k == 0:
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    y0, y1 = series[k - 1], series[k]
    if y1 == y0:
        return float(t1)
    return float(t0 + (threshold - y0) * (t1 - t0) / (y1 - y0))


def detect_event(trace, kind: str, threshold: float,
                 grid: Optional[Grid] = None,
                 at_time: Optional[float] = None) -> Optional[EventReport]:
    """Locate an event in a trace; None when it does not occur.

    max_below_sbar: first time the column maximum falls below threshold.
    maxmin_below_gap: first time after which max - min stays below
    threshold for the rest of the trace. Both read the extrema recorded
    for every accepted state and are interpolated linearly between the
    bracketing trace entries. front_depth: the depth where the profile
    at at_time (default: the final time) last exceeds threshold,
    interpolated between cell centers; requires grid, and a time whose
    profile the trace kept.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    if kind == MAX_BELOW_SBAR:
        _, s_max = extrema_series(trace)
        below = np.nonzero(s_max < threshold)[0]
        if below.size == 0:
            return None
        k = int(below[0])
        return EventReport(kind, _cross_time(trace.times, s_max, threshold, k),
                           threshold)
    if kind == MAXMIN_BELOW_GAP:
        s_min, s_max = extrema_series(trace)
        gap = s_max - s_min
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


class OracleInvalidError(RuntimeError):
    """The characteristic relation has multiple roots (post-shock)."""


def characteristics_oracle(ic: Callable[[float], float], z: float, t: float,
                           p: Parameters, scan_points: int = 1201) -> float:
    """Exact pre-shock solution of the pure-transport limit.

    Valid for kappa = 0 and s_bar = 0: characteristics of
    s_t - 2*alpha_g*s*s_z = 0 move with dz/dt = -2*alpha_g*s, so the
    saturation solves s = ic(z + 2*alpha_g*s*t). The root is bracketed
    by a sign scan over s in [0, 1.2] and then bisected to 1e-10;
    more than one bracket means the characteristics have crossed and
    the oracle raises OracleInvalidError. ic must evaluate elementwise
    on arrays (np.interp-style callables and PiecewiseLinearIC do).
    """
    if p.kappa != 0.0:
        raise ValueError("oracle requires kappa = 0")
    if p.s_bar != 0.0:
        raise ValueError("oracle requires s_bar = 0")

    def mismatch(s: float) -> float:
        return s - float(ic(z + 2.0 * p.alpha_g * s * t))

    grid_s = np.linspace(0.0, 1.2, scan_points)
    values = grid_s - np.asarray(ic(z + 2.0 * p.alpha_g * grid_s * t), dtype=float)
    exact = np.nonzero(values == 0.0)[0]
    sign_change = np.nonzero(values[:-1] * values[1:] < 0.0)[0]
    n_roots = exact.size + sign_change.size
    if n_roots > 1:
        raise OracleInvalidError(
            f"{n_roots} candidate roots at z={z}, t={t}; past shock formation")
    if exact.size == 1:
        return float(grid_s[exact[0]])
    if sign_change.size == 0:
        raise OracleInvalidError(f"no root in [0, 1.2] at z={z}, t={t}")
    lo = float(grid_s[sign_change[0]])
    hi = float(grid_s[sign_change[0] + 1])
    f_lo = mismatch(lo)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        f_mid = mismatch(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
