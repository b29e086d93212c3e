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

Failures are data, not exceptions: when the controller cannot shrink the
step below dt_min the returned Trace carries status "failed" together
with the last accepted state and time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tridiag
from .discretization import BoundarySpec, Grid, State, jacobian, rhs
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


@dataclass(eq=False)
class Trace:
    """Accepted states of one integration, in strictly increasing time.

    profiles[k] is the saturation vector at times[k]; row 0 is the
    initial condition. The step_* arrays describe the accepted step that
    produced row k+1. Output times requested from integrate() appear
    exactly (the controller trims steps to land on them).
    """

    times: np.ndarray
    profiles: np.ndarray
    step_dt: np.ndarray
    step_newton_iters: np.ndarray
    step_error: np.ndarray
    status: str = COMPLETED
    failure_time: Optional[float] = None
    failure_reason: Optional[str] = None

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> State:
        return State(time=float(self.times[i]), s=self.profiles[i])

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


def integrate(initial: State, t_end: float, output_times: Sequence[float],
              grid: Grid, p: Parameters, bc: BoundarySpec,
              settings: Optional[SolverSettings] = None) -> Trace:
    """Advance the column from initial.time to t_end.

    Every accepted step is recorded; each requested output time is hit
    exactly by trimming the step that would cross it. The trace of a
    failed run ends at the last accepted state, with the failure time
    and reason recorded in the trace.
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

    targets = sorted({float(t) for t in output_times if t > t0} | {float(t_end)})
    times = [t0]
    profiles = [np.array(initial.s, dtype=float)]
    step_dt: list[float] = []
    step_iters: list[int] = []
    step_err: list[float] = []
    status = COMPLETED
    failure_reason = None

    t = t0
    s = profiles[0]
    # State before the last accepted step, and that step's size.
    s_prev: Optional[np.ndarray] = None
    dt_prev = 0.0
    dt_next = min(max(settings.dt_init, settings.dt_min), settings.dt_max)
    target_idx = 0
    while target_idx < len(targets):
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
                    status = FAILED
                    failure_reason = f"step size underflow after Newton failure: {exc}"
                    break
                continue
            err = _error_estimate(big, fine, s, settings)
            if err <= 1.0:
                t = target if hit else t + dt_try
                s_prev, dt_prev, s = s, dt_try, fine
                times.append(t)
                profiles.append(s)
                step_dt.append(dt_try)
                step_iters.append(it_big + it_mid + it_fin)
                step_err.append(err)
                if hit:
                    target_idx += 1
                factor = GROWTH_CAP if err == 0.0 else min(
                    settings.safety * err ** -0.5, GROWTH_CAP)
                dt_next = min(max(dt_try * factor, settings.dt_min), settings.dt_max)
                break
            dt_attempt = dt_try * max(settings.safety * err ** -0.5, SHRINK_CAP)
            if dt_attempt < settings.dt_min:
                status = FAILED
                failure_reason = (
                    f"step size underflow below dt_min={settings.dt_min} "
                    f"(error estimate {err:.3g})")
                break
        if status == FAILED:
            break

    return Trace(
        times=np.array(times),
        profiles=np.array(profiles),
        step_dt=np.array(step_dt),
        step_newton_iters=np.array(step_iters, dtype=int),
        step_error=np.array(step_err),
        status=status,
        failure_time=t if status == FAILED else None,
        failure_reason=failure_reason,
    )
