import dataclasses
import math

import numpy as np
import pytest

from soilcolumn import timestepper
from soilcolumn.diagnostics import (
    FRONT_DEPTH, MAX_ABOVE_ONE, MAX_BELOW_SBAR, MAXMIN_BELOW_GAP, detect_event,
    instability_metrics, mass_balance_audit)
from soilcolumn.discretization import (
    BoundarySpec, Dirichlet, Flux, Robin, State, build_grid, face_fluxes,
    no_flux, rhs)
from soilcolumn.model import Parameters
from soilcolumn.scenarios import example1, example2, example3, ic_from_breakpoints
from soilcolumn.timestepper import (
    FAILED, GAMMA, GROWTH_CAP, W_BDF2, W_TRAPEZOID, SolverSettings, Trace,
    _newton_solve, integrate)
from soilcolumn.tridiag import Plan

from oracles import OracleInvalidError, characteristics_oracle

SANDY = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303)


def synthetic_trace(times, profiles):
    """A sealed-column Trace that kept every profile."""
    times = np.asarray(times, dtype=float)
    profiles = np.asarray(profiles, dtype=float)
    steps = max(times.size - 1, 0)
    return Trace(times=times, kept=np.arange(times.size), profiles=profiles,
                 mass=profiles.sum(axis=1), s_min=profiles.min(axis=1),
                 s_max=profiles.max(axis=1), step_dt=np.diff(times),
                 step_newton_iters=np.ones(steps, dtype=int),
                 step_error=np.zeros(steps), step_inflow=np.zeros(steps),
                 rejected_error=0, rejected_newton=0)


class TestMassBalanceAudit:
    def test_zero_physics_drift_is_zero(self):
        p = Parameters(kappa=0.0, alpha_g=0.0, s_bar=0.0)
        g = build_grid(2.0, 0.1)
        rng = np.random.default_rng(0)
        state = State(0.0, rng.uniform(0.0, 1.0, g.n_cells))
        trace = integrate(state, 3.0, [3.0], g, p, no_flux())
        drift = mass_balance_audit(trace, g, p, no_flux())
        assert np.all(drift == 0.0)

    def test_constant_inflow_grows_mass_linearly(self):
        c, t_end = 0.003, 10.0
        bc = BoundarySpec(top=Flux(c), bottom=Flux(0.0))
        g = build_grid(5.0, 0.01)
        state = State(0.0, np.full(g.n_cells, 0.1))
        trace = integrate(state, t_end, [t_end], g, SANDY, bc)
        mass = trace.mass
        assert mass[-1] - mass[0] == pytest.approx(c * t_end, abs=1e-4 * t_end)
        drift = mass_balance_audit(trace, g, SANDY, bc)
        assert np.max(np.abs(drift)) < 1e-12

    def test_empty_trace_rejected(self):
        g = build_grid(1.0, 0.5)
        empty = synthetic_trace(np.empty(0), np.empty((0, g.n_cells)))
        with pytest.raises(ValueError):
            mass_balance_audit(empty, g, SANDY, no_flux())


def profile_audit(times, step_dt, profiles, grid, p, bc):
    """mass_balance_audit computed from every profile: face_fluxes on
    each state and on each step's trapezoid stage, solved again from the
    integrator's Taylor start, whose f1 - f_gamma is rhs at the step's
    start minus rhs at the stage re-solved for the step before; summed by
    the TR-BDF2 stage quadrature."""
    def net(t, s):
        flux = face_fluxes(State(float(t), s), grid, p, bc)
        return flux[-1] - flux[0]

    mass = grid.dz * profiles.sum(axis=1)
    nets = np.array([net(t, s) for t, s in zip(times, profiles)])
    f = [rhs(State(float(t), s), grid, p, bc) for t, s in zip(times, profiles)]
    stage_nets = []
    # (GAMMA*dt)**2/2 * u'' with u'' = bend/((1 - GAMMA)*dt_prev); no step
    # before the first: a zero bend and a ratio dt/inf of zero
    taylor = 0.5 * GAMMA**2 / (1.0 - GAMMA)
    bend, dt_prev = 0.0, math.inf
    plan = Plan(grid.n_cells)
    for k, dt in enumerate(step_dt.tolist()):
        t, s = times[k], profiles[k]
        half = 0.5 * GAMMA * dt
        start = s + GAMMA * dt * f[k]
        start += taylor * dt * min(dt / dt_prev, GROWTH_CAP) * bend
        u_gamma, _, f_gamma = _newton_solve(
            s + half * f[k], t + GAMMA * dt, half, grid, p, bc, start, plan)
        stage_nets.append(net(t + GAMMA * dt, u_gamma))
        bend, dt_prev = f[k + 1] - f_gamma, dt
    inflow = step_dt * (W_TRAPEZOID * (nets[:-1] + np.array(stage_nets))
                        + W_BDF2 * nets[1:])
    return mass - mass[0] - np.concatenate(([0.0], np.cumsum(inflow)))


def flux_over_robin():
    base = example2()
    return dataclasses.replace(
        base, bc=BoundarySpec(top=Flux(0.003), bottom=Robin(1.0, 0.1)),
        t_end=2.0, output_times=(1.0, 2.0))


def unreachable_tolerance_run():
    """The run of test_failure_report_when_tolerance_unreachable; with
    DT_MIN at 5e-5 it fails before its first accepted step. Returns
    (integrate's arguments, output times)."""
    scn = example3(kappa=0.0)
    g = scn.build_grid()
    settings = SolverSettings(rel_tol=1e-13, abs_tol=1e-15)
    return (scn.initial_state(g), 0.5, [0.5], g, scn.params, scn.bc, settings), [0.5]


def boundary_turns_nan_run():
    """A run whose top value turns NaN at t=0.01, so Newton fails there
    after accepted steps and an output time at 0.005."""
    g = build_grid(1.0, 0.05)
    bc = BoundarySpec(top=Dirichlet(lambda t: 0.3 if t < 0.01 else math.nan),
                      bottom=Flux(0.0))
    initial = State(0.0, np.linspace(0.0, 0.3, g.n_cells))
    return (initial, 0.1, [0.005, 0.1], g, SANDY, bc), [0.005, 0.1]


class TestRecordedScalars:
    """The per-state scalars a Trace records equal the same quantities
    computed from every accepted profile, bit for bit."""

    @staticmethod
    def check(scenario, g, trace, profiles):
        p, bc = scenario.params, scenario.bc
        assert trace.status == "completed"
        assert len(trace) == trace.step_dt.size + 1 == len(profiles)
        assert np.array_equal(trace.mass, g.dz * profiles.sum(axis=1))
        assert np.array_equal(trace.s_min, profiles.min(axis=1))
        assert np.array_equal(trace.s_max, profiles.max(axis=1))
        assert np.array_equal(mass_balance_audit(trace, g, p, bc),
                              profile_audit(trace.times, trace.step_dt, profiles,
                                            g, p, bc))
        # rows kept: the initial state and the output times, the last of
        # which is t_end
        assert trace.times[trace.kept].tolist() == [0.0, *scenario.output_times]
        assert np.array_equal(trace.profiles, profiles[trace.kept])

    def test_sealed_ends(self, ex1_to_t5):
        self.check(*ex1_to_t5)

    @pytest.mark.parametrize("scenario", [
        dataclasses.replace(example3(kappa=0.01), t_end=0.5,
                            output_times=(0.25, 0.5)),
        flux_over_robin(),
    ], ids=["dirichlet", "flux-robin"])
    def test_open_ends(self, integrate_every_profile, scenario):
        g = scenario.build_grid()
        trace, profiles = integrate_every_profile(
            scenario.initial_state(g), scenario.t_end, scenario.output_times, g,
            scenario.params, scenario.bc)
        self.check(scenario, g, trace, profiles)

    @pytest.mark.parametrize("failing_run, dt_min", [
        (unreachable_tolerance_run, 5e-5),
        (boundary_turns_nan_run, timestepper.DT_MIN),
    ], ids=["at-t0", "after-steps"])
    def test_failed_run_keeps_last_accepted_state(self, monkeypatch,
                                                  integrate_every_profile,
                                                  failing_run, dt_min):
        monkeypatch.setattr(timestepper, "DT_MIN", dt_min)
        args, output_times = failing_run()
        trace, profiles = integrate_every_profile(*args)
        assert trace.status == FAILED
        reached = [t for t in output_times if t <= trace.failure_time]
        assert trace.times[trace.kept].tolist() == sorted(
            {0.0, *reached, trace.failure_time})
        assert trace.final.time == trace.failure_time == trace.times[-1]
        assert np.array_equal(trace.final.s, profiles[-1])
        with pytest.raises(ValueError):
            trace.state_at(output_times[-1])


class TestExtremaSeries:
    """The extrema integrate records for every accepted state."""

    def test_uniform(self):
        # below s_bar a sealed uniform column is at rest
        g = build_grid(1.0, 0.1)
        trace = integrate(State(0.0, np.full(g.n_cells, 0.2)), 1.0, [], g, SANDY,
                          no_flux())
        assert len(trace) > 1
        assert (trace.s_min == 0.2).all()
        assert (trace.s_max == 0.2).all()

    def test_example_initial_ranges(self):
        for scn, hi in ((example1(), 1.0), (example2(), 0.3)):
            g = scn.build_grid()
            trace = integrate(scn.initial_state(g), 0.0, [], g, scn.params,
                              scn.bc)
            assert trace.s_min.tolist() == [0.0]
            assert trace.s_max.tolist() == [hi]


class TestDetectEvent:
    def test_crossing_exactly_at_trace_point(self):
        profiles = [[1.0], [0.5], [0.2]]
        trace = synthetic_trace([0.0, 10.0, 20.0], profiles)
        report = detect_event(trace, MAX_BELOW_SBAR, 0.5)
        assert report.time == pytest.approx(10.0)

    def test_crossing_interpolates(self):
        trace = synthetic_trace([0.0, 10.0], [[1.0], [0.0]])
        report = detect_event(trace, MAX_BELOW_SBAR, 0.75)
        assert report.time == pytest.approx(2.5)

    def test_absent_event_returns_none(self):
        trace = synthetic_trace([0.0, 1.0], [[0.9], [0.8]])
        assert detect_event(trace, MAX_BELOW_SBAR, 0.5) is None

    def test_max_above_one_interpolates(self):
        trace = synthetic_trace([0.0, 1.0, 2.0, 3.0], [[0.5], [0.9], [1.3], [0.8]])
        report = detect_event(trace, MAX_ABOVE_ONE, 1.0)
        assert report.time == pytest.approx(1.25)
        assert report.value == 1.0

    def test_max_at_one_is_not_above_it(self):
        trace = synthetic_trace([0.0, 1.0], [[1.0], [1.0]])
        assert detect_event(trace, MAX_ABOVE_ONE, 1.0) is None

    def test_subsampling_shifts_less_than_removed_interval(self):
        times = np.linspace(0.0, 20.0, 21)
        series = np.exp(-0.1 * times)
        trace = synthetic_trace(times, series[:, None])
        full = detect_event(trace, MAX_BELOW_SBAR, 0.5)
        keep = np.array([0, 1, 2, 3, 4, 5, 9, 12, 20])
        sub = synthetic_trace(times[keep], series[keep][:, None])
        thinned = detect_event(sub, MAX_BELOW_SBAR, 0.5)
        assert thinned.time != full.time  # interpolation really moved
        assert abs(thinned.time - full.time) < times[9] - times[5]

    def test_gap_event_requires_permanence(self):
        # gap dips below the threshold, recovers, then settles
        gaps = np.array([0.5, 0.05, 0.4, 0.3, 0.05, 0.04, 0.03])
        profiles = np.stack([np.zeros_like(gaps), gaps], axis=1)
        trace = synthetic_trace(np.arange(7.0), profiles)
        report = detect_event(trace, MAXMIN_BELOW_GAP, 0.1)
        assert 3.0 < report.time <= 4.0
        assert report.time == pytest.approx(3.0 + (0.1 - 0.3) / (0.05 - 0.3))

    def test_gap_event_never_settles(self):
        profiles = [[0.0, 1.0], [0.0, 0.05], [0.0, 0.9]]
        trace = synthetic_trace([0.0, 1.0, 2.0], profiles)
        assert detect_event(trace, MAXMIN_BELOW_GAP, 0.1) is None

    def test_gap_event_already_settled(self):
        trace = synthetic_trace([0.0, 1.0], [[0.0, 0.01], [0.0, 0.0]])
        report = detect_event(trace, MAXMIN_BELOW_GAP, 0.1)
        assert report.time == 0.0

    def test_front_depth_interpolation(self):
        g = build_grid(1.0, 0.25)  # centers -0.875, -0.625, -0.375, -0.125
        profile = np.array([0.0, 0.0, 0.2, 0.8])
        trace = synthetic_trace([0.0], [profile])
        report = detect_event(trace, FRONT_DEPTH, 0.1, grid=g)
        # crossing between -0.625 (0.0) and -0.375 (0.2)
        assert report.value == pytest.approx(-0.625 + 0.25 * 0.5)
        assert report.time == 0.0

    def test_front_depth_needs_grid(self):
        trace = synthetic_trace([0.0], [[0.5]])
        with pytest.raises(ValueError):
            detect_event(trace, FRONT_DEPTH, 0.1)

    def test_front_depth_all_dry(self):
        g = build_grid(1.0, 0.25)
        trace = synthetic_trace([0.0], [np.zeros(4)])
        assert detect_event(trace, FRONT_DEPTH, 0.1, grid=g) is None

    def test_unknown_kind(self):
        trace = synthetic_trace([0.0], [[0.5]])
        with pytest.raises(ValueError):
            detect_event(trace, "nope", 0.1)


class TestInstabilityMetrics:
    def test_monotone_profile_clean(self):
        state = State(0.0, np.linspace(0.0, 1.0, 50))
        assert instability_metrics(state) == (0.0, 0.0, 0)

    def test_single_hump_is_not_an_oscillation(self):
        z = np.linspace(0.0, 1.0, 80)
        state = State(0.0, np.exp(-40.0 * (z - 0.5) ** 2))
        m = instability_metrics(state)
        assert m.zigzag == 0
        assert m.undershoot == 0.0

    def test_wiggly_profile(self):
        state = State(0.0, np.array([0.0, 0.1, -0.05, 0.1, 0.0]))
        m = instability_metrics(state)
        assert m.undershoot == pytest.approx(0.05)
        assert m.zigzag >= 2

    def test_overshoot(self):
        state = State(0.0, np.array([0.2, 1.25, 0.2]))
        assert instability_metrics(state).overshoot == pytest.approx(0.25)

    def test_tiny_wiggles_ignored(self):
        base = np.linspace(0.0, 1.0, 100)
        noisy = base + 1e-5 * np.cos(np.arange(100) * np.pi)
        assert instability_metrics(State(0.0, noisy)).zigzag == 0


class TestCharacteristicsOracle:
    P0 = Parameters(kappa=0.0, alpha_g=0.5, s_bar=0.0)

    def test_constant_advects_into_itself(self):
        ic = ic_from_breakpoints([(-5.0, 0.3), (0.0, 0.3)])
        for z, t in ((-4.0, 0.0), (-2.0, 3.0), (-0.5, 10.0)):
            assert characteristics_oracle(ic, z, t, self.P0) == pytest.approx(
                0.3, abs=1e-9)

    def test_identity_at_time_zero(self):
        ic = ic_from_breakpoints([(-5.0, 0.0), (0.0, 0.8)])
        for z in (-4.5, -2.0, -0.25):
            assert characteristics_oracle(ic, z, 0.0, self.P0) == pytest.approx(
                float(ic(z)), abs=1e-9)

    def test_linear_ramp_closed_form(self):
        a, b = 0.1, 0.55
        def ic(z):
            return a * np.asarray(z) + b
        for z, t in ((-3.0, 1.0), (-1.0, 4.0)):
            expected = (a * z + b) / (1.0 - 2.0 * self.P0.alpha_g * a * t)
            got = characteristics_oracle(ic, z, t, self.P0)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_post_shock_raises(self):
        # slope-1 ramp shocks at t = 1/(2*alpha_g) = 1
        ic = ic_from_breakpoints([(-3.0, 0.0), (-2.0, 1.0), (0.0, 1.0)])
        with pytest.raises(OracleInvalidError):
            characteristics_oracle(ic, -3.5, 2.0, self.P0)

    def test_no_root_raises(self):
        # s = 1.5 has no solution s in [0, 1.2]
        def ic(z):
            return np.full(np.shape(z), 1.5)
        with pytest.raises(OracleInvalidError, match="no root"):
            characteristics_oracle(ic, -1.0, 1.0, self.P0)

    def test_preconditions_enforced(self):
        ic = ic_from_breakpoints([(-5.0, 0.1), (0.0, 0.1)])
        with pytest.raises(ValueError):
            characteristics_oracle(ic, -1.0, 1.0,
                                   Parameters(kappa=0.01, alpha_g=0.5, s_bar=0.0))
        with pytest.raises(ValueError):
            characteristics_oracle(ic, -1.0, 1.0,
                                   Parameters(kappa=0.0, alpha_g=0.5, s_bar=0.1))
