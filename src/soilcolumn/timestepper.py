"""Adaptive implicit time integration of the semi-discrete column.

The integrator is backward Euler with step-doubling error control: each
attempted step solves the implicit update once with dt and once as two
half steps, keeps the half-step result, and scales the max-norm of the
difference by (abs_tol + rel_tol*|s|) to decide acceptance and the next
step size. Backward Euler is L-stable, so the fast diffusion scales of
fine grids never limit the step; the first-order accuracy matches the
spatial scheme. Each implicit stage is solved by Newton iteration with
the analytic tridiagonal Jacobian and cyclic-reduction tridiagonal
solves.

Newton starts each stage of integrate() from a predictor rather than
from the old state: the full step from the linear extrapolation of the
last accepted step, s + (dt/dt_prev)*(s - s_prev) (s itself before the
first accepted step); the first half step from the midpoint of s and
the full-step solution; the second half step from the full-step
solution. That saves about one linear solve per stage and leaves the
converged stages, and so the controller's decisions, unchanged to
within the Newton tolerance.

accepted_states() yields every accepted state with its scalars: mass,
extrema and the two boundary fluxes. integrate() records them all in a
Trace but keeps full profiles only at the initial time, the requested
output times and the last state, so the memory of a run does not grow
by a profile per step.

Failures are data, not exceptions: when the controller cannot shrink the
step below dt_min the returned Trace carries status "failed" together
with the last accepted state and time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import tridiag
from .discretization import (
    BoundarySpec, Grid, State, boundary_fluxes, jacobian, rhs)
from .model import Parameters

# Step-size growth is capped so one lucky estimate cannot fling the
# controller against dt_max and trigger rejection cascades.
GROWTH_CAP = 10.0
# On rejection the step shrinks at least this much even for wild error
# estimates.
SHRINK_CAP = 0.1


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and guards of the adaptive integrator."""

    rel_tol: float = 1e-5
    abs_tol: float = 1e-6
    dt_init: float = 1e-4
    dt_min: float = 1e-12
    dt_max: float = 1.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    safety: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.dt_min < self.dt_init <= self.dt_max:
            raise ValueError(
                f"need 0 < dt_min < dt_init <= dt_max, got "
                f"{self.dt_min}, {self.dt_init}, {self.dt_max}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol must be > 0, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError(f"safety must be in (0, 1], got {self.safety}")


class NewtonError(RuntimeError):
    """Newton iteration failed to converge or hit a singular system."""


COMPLETED = "completed"
FAILED = "failed"


class Accepted(NamedTuple):
    """One accepted state of a run and the scalars Trace records for it.

    dt, newton_iters and error describe the accepted step that produced
    the state (0 for the initial state). mass is dz * sum(s), and
    flux_bottom and flux_top are the fluxes through the column ends.
    output is True at the initial time and at each requested output
    time. failure is set on the last state of a run that stopped before
    t_end, to the reason it stopped.
    """

    time: float
    s: np.ndarray
    dt: float
    newton_iters: int
    error: float
    mass: float
    s_min: float
    s_max: float
    flux_bottom: float
    flux_top: float
    output: bool
    failure: Optional[str] = None


@dataclass(eq=False)
class Trace:
    """One integration: every accepted state's scalars, and the full
    profiles of a few of them, in strictly increasing time.

    times holds every accepted time, times[0] being the initial one, and
    mass, s_min, s_max, flux_bottom and flux_top the matching scalars of
    each state (see Accepted). The step_* arrays describe the accepted
    step that produced state k+1. profiles[j] is the saturation at
    times[kept[j]]; integrate keeps the initial state, each requested
    output time and the last state. Output times requested from
    integrate() appear exactly (the controller trims steps to land on
    them). Iterate accepted_states() for the profile of every state.
    """

    times: np.ndarray
    kept: np.ndarray
    profiles: np.ndarray
    mass: np.ndarray
    s_min: np.ndarray
    s_max: np.ndarray
    flux_bottom: np.ndarray
    flux_top: np.ndarray
    step_dt: np.ndarray
    step_newton_iters: np.ndarray
    step_error: np.ndarray
    status: str = COMPLETED
    failure_time: Optional[float] = None
    failure_reason: Optional[str] = None

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> State:
        """State i (0 is the initial state); ValueError when its profile
        was not kept."""
        i = range(len(self))[i]
        row = int(np.searchsorted(self.kept, i))
        if row == self.kept.size or self.kept[row] != i:
            raise ValueError(f"the profile at t={self.times[i]} was not kept")
        return State(time=float(self.times[i]), s=self.profiles[row])

    def state_at(self, t: float, tol: float = 1e-9) -> State:
        """State at a time the trace hit exactly (an output time)."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise ValueError(f"no trace entry at t={t}")
        return self.state(i)

    @property
    def final(self) -> State:
        return self.state(len(self) - 1)


def _newton_solve(s_old: np.ndarray, t_new: float, dt: float, grid: Grid,
                  p: Parameters, bc: BoundarySpec, settings: SolverSettings,
                  start: Optional[np.ndarray] = None) -> tuple[np.ndarray, int]:
    """Solve u - s_old - dt*rhs(u) = 0 from start (default s_old);
    returns (u, iterations used)."""
    u = (s_old if start is None else start).copy()
    for it in range(1, settings.newton_max_iter + 1):
        state = State(time=t_new, s=u)
        residual = u - s_old - dt * rhs(state, grid, p, bc)
        bound = settings.newton_tol * (1.0 + np.abs(u).max())
        if np.abs(residual).max() < bound:
            return u, it
        jac = jacobian(state, grid, p, bc)
        # Newton matrix of the implicit update: I - dt * d(rhs)/ds.
        system = tridiag.Tridiagonal(
            lower=-dt * jac.lower, diag=1.0 - dt * jac.diag, upper=-dt * jac.upper)
        try:
            delta = tridiag.solve(system, -residual)
        except tridiag.SingularMatrixError as exc:
            raise NewtonError(str(exc)) from exc
        u = u + delta
        if not np.isfinite(u).all():
            raise NewtonError(f"non-finite iterate at t={t_new}")
    raise NewtonError(
        f"no convergence in {settings.newton_max_iter} iterations at t={t_new}")


def newton_step(state: State, dt: float, grid: Grid, p: Parameters,
                bc: BoundarySpec, settings: SolverSettings) -> tuple[State, int]:
    """One backward-Euler stage from state over dt.

    Raises NewtonError when the iteration does not converge; the caller
    is expected to retry with a smaller step.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    u, iters = _newton_solve(state.s, state.time + dt, dt, grid, p, bc, settings)
    return State(time=state.time + dt, s=u), iters


def _error_estimate(big: np.ndarray, fine: np.ndarray, s_old: np.ndarray,
                    settings: SolverSettings) -> float:
    scale = settings.abs_tol + settings.rel_tol * np.abs(s_old)
    return float((np.abs(big - fine) / scale).max())


def accepted_states(initial: State, t_end: float, output_times: Sequence[float],
                    grid: Grid, p: Parameters, bc: BoundarySpec,
                    settings: Optional[SolverSettings] = None) -> Iterator[Accepted]:
    """The accepted states of a run from initial.time to t_end, in order.

    The initial state comes first. Each requested output time is hit
    exactly by trimming the step that would cross it. A run that cannot
    go on stops at its last accepted state, which then carries the
    failure reason. The input is checked here, before the first state.
    """
    if settings is None:
        settings = SolverSettings()
    t0 = initial.time
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"times must be finite, got t0={t0}, t_end={t_end}")
    if t_end < t0:
        raise ValueError(f"t_end {t_end} before initial time {t0}")
    if initial.s.size != grid.n_cells:
        raise ValueError(
            f"state has {initial.s.size} cells, grid has {grid.n_cells}")
    if not np.isfinite(initial.s).all():
        raise ValueError("initial saturation has non-finite entries")
    for t in output_times:
        if not t0 <= t <= t_end:
            raise ValueError(f"output time {t} outside [{t0}, {t_end}]")
    return _march(initial, t_end, output_times, grid, p, bc, settings)


def _march(initial: State, t_end: float, output_times: Sequence[float],
           grid: Grid, p: Parameters, bc: BoundarySpec,
           settings: SolverSettings) -> Iterator[Accepted]:
    outputs = {float(t) for t in output_times}
    t0 = initial.time

    def accepted(t, s, dt=0.0, iters=0, err=0.0):
        flux_bottom, flux_top = boundary_fluxes(State(time=t, s=s), grid, p, bc)
        return Accepted(t, s, dt, iters, err, grid.dz * float(np.sum(s)),
                        float(s.min()), float(s.max()), flux_bottom, flux_top,
                        t == t0 or t in outputs)

    targets = sorted({float(t) for t in output_times if t > t0} | {float(t_end)})
    failure = None
    t = t0
    s = np.array(initial.s, dtype=float)
    # A state is yielded once the step after it is accepted, so that the
    # last one can carry the failure reason.
    pending = accepted(t, s)
    # State before the last accepted step, and that step's size.
    s_prev: Optional[np.ndarray] = None
    dt_prev = 0.0
    dt_next = min(max(settings.dt_init, settings.dt_min), settings.dt_max)
    target_idx = 0
    while target_idx < len(targets) and failure is None:
        target = targets[target_idx]
        gap = target - t
        if gap <= 0.0:
            target_idx += 1
            continue
        dt_attempt = min(dt_next, gap)
        # Avoid leaving a sliver shorter than dt_min before the target.
        if gap - dt_attempt < settings.dt_min:
            dt_attempt = gap

        while True:
            hit = dt_attempt >= gap
            dt_try = gap if hit else dt_attempt
            guess = s if s_prev is None else s + (dt_try / dt_prev) * (s - s_prev)
            try:
                big, it_big = _newton_solve(s, t + dt_try, dt_try, grid, p, bc,
                                            settings, guess)
                half = 0.5 * dt_try
                mid, it_mid = _newton_solve(s, t + half, half, grid, p, bc,
                                            settings, 0.5 * (s + big))
                fine, it_fin = _newton_solve(mid, t + dt_try, half, grid, p, bc,
                                             settings, big)
            except NewtonError as exc:
                dt_attempt = 0.5 * dt_try
                if dt_attempt < settings.dt_min:
                    failure = f"step size underflow after Newton failure: {exc}"
                    break
                continue
            err = _error_estimate(big, fine, s, settings)
            if err <= 1.0:
                t = target if hit else t + dt_try
                s_prev, dt_prev, s = s, dt_try, fine
                yield pending
                pending = accepted(t, s, dt_try, it_big + it_mid + it_fin, err)
                if hit:
                    target_idx += 1
                factor = GROWTH_CAP if err == 0.0 else min(
                    settings.safety * err ** -0.5, GROWTH_CAP)
                dt_next = min(max(dt_try * factor, settings.dt_min), settings.dt_max)
                break
            dt_attempt = dt_try * max(settings.safety * err ** -0.5, SHRINK_CAP)
            if dt_attempt < settings.dt_min:
                failure = (
                    f"step size underflow below dt_min={settings.dt_min} "
                    f"(error estimate {err:.3g})")
                break
    yield pending._replace(failure=failure)


def record(states: Iterable[Accepted]) -> Trace:
    """The Trace of a run's accepted states: every state's time, step
    and scalars, and the profiles of its output states and its last."""
    scalars = []
    kept: list[int] = []
    profiles = []
    for state in states:
        if state.output:
            kept.append(len(scalars))
            profiles.append(state.s)
        scalars.append((state.time, state.dt, state.newton_iters, state.error,
                        state.mass, state.s_min, state.s_max, state.flux_bottom,
                        state.flux_top))
    if kept[-1] != len(scalars) - 1:
        kept.append(len(scalars) - 1)
        profiles.append(state.s)
    (times, step_dt, step_iters, step_err, mass, s_min, s_max, flux_bottom,
     flux_top) = np.array(scalars).T
    return Trace(
        times=times,
        kept=np.array(kept),
        profiles=np.array(profiles),
        mass=mass,
        s_min=s_min,
        s_max=s_max,
        flux_bottom=flux_bottom,
        flux_top=flux_top,
        step_dt=step_dt[1:],
        step_newton_iters=step_iters[1:].astype(int),
        step_error=step_err[1:],
        status=COMPLETED if state.failure is None else FAILED,
        failure_time=None if state.failure is None else state.time,
        failure_reason=state.failure,
    )


def integrate(initial: State, t_end: float, output_times: Sequence[float],
              grid: Grid, p: Parameters, bc: BoundarySpec,
              settings: Optional[SolverSettings] = None) -> Trace:
    """Advance the column from initial.time to t_end.

    The returned Trace records every accepted step and the scalars of
    every accepted state, and keeps the full profile at the initial
    time, at each output time and at the last state. Each requested
    output time is hit exactly by trimming the step that would cross
    it. The trace of a failed run ends at the last accepted state, with
    the failure time and reason recorded in the trace. For every
    profile, iterate accepted_states() with the same arguments, and
    pass those states to record() for the Trace of the same run.
    """
    return record(accepted_states(initial, t_end, output_times, grid, p, bc,
                                  settings))
