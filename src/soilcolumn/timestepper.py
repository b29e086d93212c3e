"""Adaptive implicit time integration of the semi-discrete column.

The integrator is TR-BDF2 (Bank et al. 1985) with GAMMA = 2 - sqrt(2),
f = rhs: a trapezoid stage from u0 to u_gamma at t + GAMMA*dt, then a
BDF2 stage through u0 and u_gamma to u1 at t + dt. Both are implicit
solves with the same matrix I - (GAMMA/2)*dt*J. The method is second
order, L-stable and stiffly accurate, so fine grids never limit the
step. Its local error, estimated by Hosea & Shampine (1996) from the
second divided difference of f at t, t + GAMMA*dt and t + dt, over
abs_tol + rel_tol*|u0| decides acceptance and the next step size. All
three f values are Newton residual checks: f(u1), at the converged
iterate, is f(u0) of the next step, and the first step's f(u0) comes
from a stage of zero length at the initial state. Newton uses the
analytic tridiagonal Jacobian and cyclic-reduction solves. It starts the
trapezoid stage from the Taylor polynomial u0 + GAMMA*dt*f0 +
(GAMMA*dt)**2/2 * u'', with u'' from the last accepted step's
f1 - f_gamma (zero before the first step), and the BDF2 stage from the
quadratic through u0 with slope f_gamma at u_gamma. From these second
order starts most stages converge after one linear solve.

accepted_states() yields every accepted state with its scalars: mass,
extrema and the step's applied inflow.
integrate() records them all in a Trace but keeps full profiles only at
the initial time, the requested output times and the last state, so the
memory of a run does not grow by a profile per step.

Failures are data, not exceptions: when the rhs at the initial state is
not finite, or the step falls below DT_MIN or no longer moves the clock,
the returned Trace carries status "failed" and the last accepted state.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import tridiag
from .discretization import (
    BoundarySpec, Grid, State, jacobian, net_inflow, rhs)
from .model import Parameters

# Step-size growth is capped so one lucky estimate cannot fling the
# controller against DT_MAX and trigger rejection cascades.
GROWTH_CAP = 10.0
# On rejection the step shrinks at least this much even for wild error
# estimates.
SHRINK_CAP = 0.1
# The next step is this fraction of the one the error estimate predicts.
SAFETY = 0.9
# How Newton stops is part of the integrator, not a setting. Its residual
# bound NEWTON_TOL*(1 + max|u|) lies far below the default error test, and
# no stage with dt > 0 then returns its explicit start unsolved. A stage
# that needs more than NEWTON_MAX_ITER residual checks is rejected and its
# step halved. Read at call time, so a test can patch them.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
# The first step, which the capped factors correct within a few attempts,
# and the smallest: a run whose step would fall below DT_MIN fails there.
DT_INIT = 1e-4
DT_MIN = 1e-12
# The longest step. The method is L-stable, so the cap buys no stability.
# It bounds the error of the accepted states in the slow tail, and so the
# events there: near example1's gap<0.01 the gap falls by about 2e-5 per
# unit time, and an uncapped tail error of 1.6e-5 moves the event by 0.8
# however detect_event interpolates. Against a cap of 1, every event of
# example1 and example2 moves by at most 0.05 at 10 (README). Read at call
# time, so a test can patch it.
DT_MAX = 10.0
# TR-BDF2 with this GAMMA has the stage coefficient GAMMA/2 =
# (1 - GAMMA)/(2 - GAMMA) in both stages, so they share a Newton matrix.
GAMMA = 2.0 - math.sqrt(2.0)
# A step is u1 - u0 = dt*(W_TRAPEZOID*(f0 + f_gamma) + W_BDF2*f1).
W_TRAPEZOID = 1.0 / (2.0 * (2.0 - GAMMA))
W_BDF2 = (1.0 - GAMMA) / (2.0 - GAMMA)
# Hosea & Shampine's local error is this times dt times the divided
# difference f0/GAMMA - f_gamma/(GAMMA*(1-GAMMA)) + f1/(1-GAMMA).
ERROR_CONSTANT = abs((-3.0 * GAMMA**2 + 4.0 * GAMMA - 2.0) / (6.0 * (2.0 - GAMMA)))
# The local error is O(dt^3): the step size scales as err^(-1/3).
CONTROL_EXPONENT = -1.0 / 3.0
# The trapezoid stage starts at u0 + GAMMA*dt*f0 + (GAMMA*dt)**2/2 * u'',
# with u'' = (f1 - f_gamma)/((1 - GAMMA)*dt_prev) from the last accepted
# step, so the last term is TAYLOR*dt*(dt/dt_prev)*(f1 - f_gamma).
TAYLOR = 0.5 * GAMMA**2 / (1.0 - GAMMA)


@dataclass(frozen=True)
class SolverSettings:
    """The error test's tolerances."""

    rel_tol: float = 1e-5
    abs_tol: float = 1e-6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


class NewtonError(RuntimeError):
    """Newton iteration failed to converge or hit a singular system."""


COMPLETED = "completed"
FAILED = "failed"


class Accepted(NamedTuple):
    """One accepted state of a run and the scalars Trace records for it.

    dt, newton_iters (of both stages), error and inflow describe the
    accepted step that produced the state (0 for the initial state).
    inflow is the net boundary inflow the step applied, dt times the
    stage-weighted sum W_TRAPEZOID*(net(u0) + net(u_gamma)) +
    W_BDF2*net(u1) of net = discretization.net_inflow. mass is
    dz * sum(s). output is True at the initial time and at each
    requested output time. rejected_error and rejected_newton count the
    attempts the run rejected so far, by the error test and by a Newton
    failure. failure is set on the last state of a run that stopped
    before t_end, to the reason it stopped; that state's counts include
    the attempts after it.
    """

    time: float
    s: np.ndarray
    dt: float
    newton_iters: int
    error: float
    inflow: float
    mass: float
    s_min: float
    s_max: float
    output: bool
    rejected_error: int
    rejected_newton: int
    failure: Optional[str] = None


@dataclass(eq=False)
class Trace:
    """One integration: every accepted state's scalars, and the full
    profiles of a few of them, in strictly increasing time.

    times holds every accepted time, times[0] being the initial one, and
    mass, s_min and s_max the matching scalars of each state (see
    Accepted). The step_* arrays describe the accepted step that produced
    state k+1; rejected_error and rejected_newton count the attempts the
    run rejected, by the error test and by a Newton failure. profiles[j]
    is the saturation at times[kept[j]]; integrate keeps the initial
    state, each requested output time and the last state. Output times
    requested from integrate() appear exactly (the controller trims steps
    to land on them). Iterate accepted_states() for the profile of every
    state.
    """

    times: np.ndarray
    kept: np.ndarray
    profiles: np.ndarray
    mass: np.ndarray
    s_min: np.ndarray
    s_max: np.ndarray
    step_dt: np.ndarray
    step_newton_iters: np.ndarray
    step_error: np.ndarray
    step_inflow: np.ndarray
    rejected_error: int
    rejected_newton: int
    status: str = COMPLETED
    failure_time: Optional[float] = None
    failure_reason: Optional[str] = None

    def __len__(self) -> int:
        return self.times.size

    def state_at(self, t: float) -> State:
        """The kept state within 1e-9 of t, such as an output time;
        ValueError when there is none, as for a NaN t, or its profile
        was not kept."""
        i = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[i] - t) <= 1e-9:
            raise ValueError(f"no trace entry at t={t}")
        row = int(np.searchsorted(self.kept, i))
        if row == self.kept.size or self.kept[row] != i:
            raise ValueError(f"the profile at t={self.times[i]} was not kept")
        return State(time=float(self.times[i]), s=self.profiles[row])

    @property
    def final(self) -> State:
        """The last accepted state, whose profile record always keeps."""
        return State(time=float(self.times[-1]), s=self.profiles[-1])


def _newton_solve(s_old: np.ndarray, t_new: float, dt: float, grid: Grid,
                  p: Parameters, bc: BoundarySpec, start: np.ndarray) -> tuple:
    """Solve u - s_old - dt*rhs(u) = 0 from start: (u, iterations used,
    rhs at u and t_new); NewtonError when the iteration does not converge."""
    u = start.copy()
    for it in range(1, NEWTON_MAX_ITER + 1):
        state = State(time=t_new, s=u)
        f = rhs(state, grid, p, bc)
        residual = u - s_old
        residual -= dt * f
        bound = NEWTON_TOL * (1.0 + np.abs(u).max())
        if np.abs(residual).max() < bound:
            return u, it, f
        # Newton matrix of the implicit update, I - dt * d(rhs)/ds.
        jac = jacobian(state, grid, p, bc)
        system = tridiag.Tridiagonal(
            -dt * jac.lower, 1.0 - dt * jac.diag, -dt * jac.upper)
        try:
            delta = tridiag.solve(system, np.negative(residual, residual))
        except tridiag.SingularMatrixError as exc:
            raise NewtonError(str(exc)) from exc
        u += delta
        if not np.isfinite(u).all():
            raise NewtonError(f"non-finite iterate at t={t_new}")
    raise NewtonError(
        f"no convergence in {NEWTON_MAX_ITER} iterations at t={t_new}")


def _tr_bdf2(s: np.ndarray, f0: np.ndarray, t: float, dt: float, t_new: float,
             grid: Grid, p: Parameters, bc: BoundarySpec, bend: np.ndarray,
             dt_prev: float) -> tuple:
    """One TR-BDF2 step from s at t, f0 = rhs there, to t_new = t + dt:
    (u1, Newton iterations of both stages, the trapezoid stage's State,
    rhs at it, rhs at u1). bend is f1 - f_gamma of the last accepted
    step, of length dt_prev. Raises NewtonError when a stage fails."""
    half = 0.5 * GAMMA * dt
    t_gamma = t + GAMMA * dt
    # The ratio is capped as the step growth is: after a step trimmed to
    # an output time it can be large, and after a subnormal one inf.
    start = s + GAMMA * dt * f0
    start += TAYLOR * dt * min(dt / dt_prev, GROWTH_CAP) * bend
    u_gamma, iters_gamma, f_gamma = _newton_solve(
        s + half * f0, t_gamma, half, grid, p, bc, start)
    s_bdf2 = (u_gamma - (1.0 - GAMMA) ** 2 * s) / (GAMMA * (2.0 - GAMMA))
    # The BDF2 stage starts at t + dt on the quadratic through s with slope
    # f_gamma at u_gamma: u_gamma + r*dt*f_gamma + r**2*(s - u_gamma), with
    # r = (1 - GAMMA)/GAMMA and so r**2 = 1/2.
    start = 0.5 * (s + u_gamma)
    start += (1.0 - GAMMA) / GAMMA * dt * f_gamma
    u1, iters_1, f1 = _newton_solve(s_bdf2, t_new, half, grid, p, bc, start)
    return u1, iters_gamma + iters_1, State(t_gamma, u_gamma), f_gamma, f1


def _error_estimate(dt: float, f0: np.ndarray, f_gamma: np.ndarray,
                    f1: np.ndarray, s: np.ndarray,
                    settings: SolverSettings) -> float:
    """Local error over tolerance of a step from s with rhs values f0,
    f_gamma and f1 at its start, its trapezoid stage and its end."""
    scale = settings.abs_tol + settings.rel_tol * np.abs(s)
    divided = f0 / GAMMA - f_gamma / (GAMMA * (1.0 - GAMMA)) + f1 / (1.0 - GAMMA)
    return ERROR_CONSTANT * dt * float((np.abs(divided) / scale).max())


def accepted_states(initial: State, t_end: float, output_times: Sequence[float],
                    grid: Grid, p: Parameters, bc: BoundarySpec,
                    settings: SolverSettings = SolverSettings()) -> Iterator[Accepted]:
    """The accepted states of a run from initial.time to t_end, in order.

    The initial state comes first. Each requested output time is hit
    exactly by trimming the step that would cross it. A run that cannot
    go on stops at its last accepted state, which then carries the
    failure reason. The input is checked here, before the first state.
    """
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

    rejected_error = rejected_newton = 0

    def accepted(t, s, dt=0.0, iters=0, err=0.0, inflow=0.0):
        return Accepted(t, s, dt, iters, err, inflow, grid.dz * float(np.sum(s)),
                        float(s.min()), float(s.max()), t == t0 or t in outputs,
                        rejected_error, rejected_newton)

    targets = sorted(outputs | {float(t_end)})
    failure = None
    t = t0
    s = np.array(initial.s, dtype=float)
    # A state is yielded once the step after it is accepted, so that the
    # last one can carry the failure reason.
    pending, net = accepted(t, s), net_inflow(State(time=t, s=s), grid, p, bc)
    # rhs at the initial state from a stage of zero length, so every rhs
    # call is a Newton residual check. It fails only on a non-finite rhs,
    # which no step size mends; a run with no step to take makes none.
    if t < t_end:
        try:
            f0 = _newton_solve(s, t, 0.0, grid, p, bc, s)[2]
        except NewtonError as exc:
            failure = f"non-finite rhs at the initial state: {exc}"
    # f1 - f_gamma of the last accepted step and its length; zero before
    # the first, whose trapezoid stage so starts from u0 + GAMMA*dt*f0.
    bend, dt_prev = np.zeros_like(s), DT_INIT
    dt_next = DT_INIT
    while t < t_end and failure is None:
        # The first target after t: a step that lands on one, trimmed or
        # by rounding, moves on to the next.
        target = targets[bisect_right(targets, t)]
        gap = target - t
        dt = min(dt_next, gap)
        # Avoid leaving a sliver shorter than DT_MIN before the target.
        if gap - dt < DT_MIN:
            dt = gap

        # dt only shrinks from here, so it never exceeds gap.
        while True:
            # On the target exactly, so its recorded fluxes are the applied ones.
            t_new = target if dt == gap else t + dt
            if t_new == t:
                failure = f"step size underflow: dt={dt} does not advance t={t}"
                break
            try:
                u, iters, stage, f_gamma, f1 = _tr_bdf2(
                    s, f0, t, dt, t_new, grid, p, bc, bend, dt_prev)
            except NewtonError as exc:
                rejected_newton += 1
                factor, cause = 0.5, f"after Newton failure: {exc}"
            else:
                err = _error_estimate(dt, f0, f_gamma, f1, s, settings)
                # A NaN estimate must end in underflow, not loop: it shrinks
                # the step by SHRINK_CAP (nan > SHRINK_CAP is false), and the
                # guard reads "not dt >= DT_MIN" (nan < DT_MIN is false).
                factor = GROWTH_CAP if err == 0.0 else SAFETY * err ** CONTROL_EXPONENT
                factor = min(factor if factor > SHRINK_CAP else SHRINK_CAP, GROWTH_CAP)
                if err <= 1.0:
                    net_gamma = net_inflow(stage, grid, p, bc)
                    net1 = net_inflow(State(time=t_new, s=u), grid, p, bc)
                    inflow = dt * (W_TRAPEZOID * (net + net_gamma) + W_BDF2 * net1)
                    t, s, f0, net = t_new, u, f1, net1
                    bend, dt_prev = f1 - f_gamma, dt
                    yield pending
                    pending = accepted(t, s, dt, iters, err, inflow)
                    dt_next = min(max(dt * factor, DT_MIN), DT_MAX)
                    break
                rejected_error += 1
                cause = f"below DT_MIN={DT_MIN} (error estimate {err:.3g})"
            dt *= factor
            if not dt >= DT_MIN:
                failure = f"step size underflow {cause}"
                break
    yield pending._replace(failure=failure, rejected_error=rejected_error,
                           rejected_newton=rejected_newton)


def record(states: Iterable[Accepted]) -> Trace:
    """The Trace of a run's accepted states: every state's time, step
    and scalars, and the profiles of its output states and its last."""
    # Eight doubles a state: 64 bytes, where a tuple of floats takes ~300.
    scalars = array("d")
    kept: list[int] = []
    profiles = []
    for i, state in enumerate(states):
        if state.output:
            kept.append(i)
            profiles.append(state.s)
        scalars.extend((state.time, state.dt, state.newton_iters, state.error,
                        state.inflow, state.mass, state.s_min, state.s_max))
    if not scalars:
        raise ValueError("no accepted states to record")
    if kept[-1] != i:
        kept.append(i)
        profiles.append(state.s)
    (times, step_dt, step_iters, step_err, step_inflow, mass, s_min,
     s_max) = np.frombuffer(scalars).reshape(-1, 8).T
    return Trace(
        times=times,
        kept=np.array(kept),
        profiles=np.array(profiles),
        mass=mass,
        s_min=s_min,
        s_max=s_max,
        step_dt=step_dt[1:],
        step_newton_iters=step_iters[1:].astype(int),
        step_error=step_err[1:],
        step_inflow=step_inflow[1:],
        rejected_error=state.rejected_error,
        rejected_newton=state.rejected_newton,
        status=COMPLETED if state.failure is None else FAILED,
        failure_time=None if state.failure is None else state.time,
        failure_reason=state.failure,
    )


def integrate(initial: State, t_end: float, output_times: Sequence[float],
              grid: Grid, p: Parameters, bc: BoundarySpec,
              settings: SolverSettings = SolverSettings()) -> Trace:
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
