import dataclasses
import gc
import math
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from soilcolumn import timestepper
from soilcolumn.discretization import (
    BoundarySpec, Dirichlet, Flux, Robin, State, build_grid, no_flux, rhs)
from soilcolumn.model import Parameters
from soilcolumn.scenarios import example1, example3
from soilcolumn.timestepper import (
    COMPLETED, FAILED, SolverSettings, Trace, _newton_solve, accepted_states,
    integrate, record)
from soilcolumn.tridiag import Plan

SANDY = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303)


def backward_euler(s_old, dt, g, p):
    """One backward-Euler stage from s_old at t=0 over dt, started at
    s_old: (u, iterations used)."""
    u, iters, _ = _newton_solve(s_old, dt, dt, g, p, no_flux(), s_old,
                                Plan(s_old.size))
    return u, iters


def count_calls(monkeypatch, **modules):
    """Count the calls of each function named by a keyword in the module
    it maps to, there patched for the test: {name: calls so far}."""
    calls = dict.fromkeys(modules, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, module in modules.items():
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


class TestSolverSettings:
    def test_defaults_valid(self):
        s = SolverSettings()
        assert s.rel_tol == 1e-5
        assert s.abs_tol == 1e-6

    # Each input carries its id (the index it had), so deleting an input
    # renames no other case.
    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(rel_tol=0.0), id="kwargs3"),
        pytest.param(dict(abs_tol=-1.0), id="kwargs4"),
        pytest.param(dict(rel_tol=float("inf")), id="kwargs9"),
        pytest.param(dict(abs_tol=float("inf")), id="kwargs10"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)


class TestNewtonStep:
    def test_fixed_point_converges_immediately(self):
        g = build_grid(5.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.2))
        new, iters = backward_euler(state.s, 0.5, g, SANDY)
        assert iters == 1
        np.testing.assert_array_equal(new, state.s)

    def test_two_cell_implicit_euler_closed_form(self):
        # pure diffusion on two cells: ds0/dt = k*(s1-s0)/dz^2 and the
        # mirror image; invert (I - dt*J) by the 2x2 formula.
        p = Parameters(kappa=0.01, alpha_g=0.0, s_bar=0.0, depth_h=1.0)
        g = build_grid(1.0, 0.5)
        s_old = np.array([0.2, 0.8])
        dt = 0.3
        a = dt * p.kappa / g.dz ** 2
        m = np.array([[1.0 + a, -a], [-a, 1.0 + a]])
        expected = np.linalg.inv(m) @ s_old
        new, _ = backward_euler(s_old, dt, g, p)
        np.testing.assert_allclose(new, expected, rtol=1e-12)

    def test_small_step_consistency(self):
        g = build_grid(5.0, 0.1)
        state = State(0.0, np.asarray(example1().ic(g.centers), float))
        slope = np.max(np.abs(rhs(state, g, SANDY, no_flux())))
        for dt in (1e-6, 1e-7, 1e-8):
            new, _ = backward_euler(state.s, dt, g, SANDY)
            assert np.max(np.abs(new - state.s)) <= 2.0 * slope * dt

    def test_start_at_solution_takes_one_iteration(self):
        scn = example1()
        g = scn.build_grid()
        s_old = scn.initial_state(g).s
        args = (s_old, 0.01, 0.01, g, scn.params, scn.bc)
        plan = Plan(g.n_cells)
        u, iters, f = _newton_solve(*args, s_old, plan)
        assert iters > 1
        # the last residual check is at u
        np.testing.assert_array_equal(f, rhs(State(0.01, u), g, scn.params, scn.bc))
        again, iters, f_again = _newton_solve(*args, u, plan)
        assert iters == 1
        np.testing.assert_array_equal(again, u)
        np.testing.assert_array_equal(f_again, f)

    @pytest.mark.parametrize("predicted", [False, True])
    def test_newton_solve_leaves_inputs_unmodified(self, predicted):
        scn = example1()
        g = scn.build_grid()
        s_old = scn.initial_state(g).s
        dt = 0.01
        start = s_old
        if predicted:
            start = s_old + dt * rhs(State(dt, s_old), g, scn.params, scn.bc)
        inputs = [s_old, start]
        before = [x.copy() for x in inputs]
        u, iters, _ = _newton_solve(s_old, dt, dt, g, scn.params, scn.bc, start,
                                    Plan(g.n_cells))
        assert iters > 1
        for x, y in zip(inputs, before):
            assert x.tobytes() == y.tobytes()
            assert not np.shares_memory(u, x)

    # s = 0.2 is below s_bar, so the sealed column is at rest and the step
    # converges at its first residual check; at 0.6 it needs solves
    @pytest.mark.parametrize("level,first_check", [(0.2, True), (0.6, False)])
    def test_newton_step_returns_a_new_profile(self, level, first_check):
        g = build_grid(5.0, 0.1)
        state = State(0.0, np.full(g.n_cells, level))
        new, iters = backward_euler(state.s, 0.5, g, SANDY)
        assert (iters == 1) == first_check
        assert not np.shares_memory(new, state.s)
        assert (state.s == level).all()

    def test_huge_diffusion_step_keeps_max_principle(self):
        # unconditional stability: dt at 1000x the explicit diffusion limit
        p = Parameters(kappa=0.005, alpha_g=0.0, s_bar=0.0)
        g = build_grid(5.0, 0.01)
        rng = np.random.default_rng(7)
        s_old = rng.uniform(0.1, 0.9, g.n_cells)
        dt = 1e3 * g.dz ** 2 / p.kappa
        new, _ = backward_euler(s_old, dt, g, p)
        assert new.min() >= s_old.min() - 1e-12
        assert new.max() <= s_old.max() + 1e-12
        assert np.all(np.isfinite(new))


class TestIntegrate:
    def test_empty_interval(self):
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.3))
        trace = integrate(state, 0.0, [], g, SANDY, no_flux())
        assert len(trace) == 1
        assert trace.status == COMPLETED
        np.testing.assert_array_equal(trace.profiles[0], state.s)
        # a run that starts on its end time, with an output there
        state = State(2.5, np.full(g.n_cells, 0.3))
        trace = integrate(state, 2.5, [2.5], g, SANDY, no_flux())
        assert len(trace) == 1
        assert trace.status == COMPLETED
        assert trace.times.tolist() == [2.5]
        np.testing.assert_array_equal(trace.state_at(2.5).s, state.s)

    def test_output_time_reached_by_rounding(self, monkeypatch):
        # Below s_bar and uniform, the sealed column has rhs 0 and error 0.
        # At t0 = 2**15 a float's spacing is 2**-37 ~ 7.3e-12, so a first
        # step 3e-12 short of the output is not trimmed (the sliver is
        # above DT_MIN), yet t0 + dt rounds onto the output exactly.
        monkeypatch.setattr(timestepper, "DT_INIT", 1.0 - 3e-12)
        p = Parameters(kappa=0.01, alpha_g=0.5, s_bar=0.2)
        g = build_grid(1.0, 0.1)
        t0 = 2.0 ** 15
        state = State(t0, np.full(g.n_cells, 0.1))
        trace = integrate(state, t0 + 2.0, [t0 + 1.0, t0 + 2.0], g, p,
                          no_flux())
        assert trace.status == COMPLETED
        assert trace.times.tolist() == [t0, t0 + 1.0, t0 + 2.0]
        assert trace.kept.tolist() == [0, 1, 2]
        assert trace.step_dt[0] == 0.999999999997
        at_output = trace.state_at(t0 + 1.0)
        assert at_output.time == t0 + 1.0
        np.testing.assert_array_equal(at_output.s, state.s)

    def test_step_inflow_integrates_a_linear_flux_exactly(self):
        # A step books dt*(W_TRAPEZOID*(net(t) + net(t + GAMMA*dt)) +
        # W_BDF2*net(t + dt)), a quadrature exact for net linear in t: here
        # net = 0.01*t, whose integral over a step is 0.005*(t1**2 - t0**2).
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.linspace(0.0, 0.9, g.n_cells))
        bc = BoundarySpec(top=Flux(lambda t: 0.01 * t), bottom=Flux(0.0))
        trace = integrate(state, 2.0, [1.0, 2.0], g, SANDY, bc)
        assert trace.status == COMPLETED
        t = trace.times
        np.testing.assert_allclose(trace.step_inflow,
                                   0.005 * (t[1:] ** 2 - t[:-1] ** 2),
                                   rtol=1e-12, atol=1e-18)

    def test_uniform_diffusion_stays_constant(self, integrate_every_profile):
        p = Parameters(kappa=0.01, alpha_g=0.0, s_bar=0.0)
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.42))
        trace, profiles = integrate_every_profile(state, 10.0, [10.0], g, p,
                                                  no_flux())
        assert trace.status == COMPLETED
        assert np.all(profiles == 0.42)
        # nothing rejects, so the controller expands to DT_MAX quickly
        assert len(trace) - 1 <= 20

    @pytest.mark.parametrize("dt_max", [0.5, 2.0])
    def test_steps_reach_but_never_exceed_dt_max(self, monkeypatch, dt_max):
        monkeypatch.setattr(timestepper, "DT_MAX", dt_max)
        scn = example1()
        g = build_grid(5.0, 0.1)
        state = State(0.0, np.asarray(scn.ic(g.centers), float))
        trace = integrate(state, 100.0, [100.0], g, scn.params, scn.bc)
        assert trace.status == COMPLETED
        assert trace.step_dt.max() == dt_max

    def test_output_times_hit_exactly(self):
        g = build_grid(5.0, 0.05)
        scn = example1()
        state = State(0.0, np.asarray(scn.ic(g.centers), float))
        outputs = [0.125, 1.0 / 3.0, 0.7, 2.0]
        trace = integrate(state, 2.0, outputs, g, scn.params, scn.bc)
        for t in outputs:
            assert t in trace.times
        assert np.all(np.diff(trace.times) > 0)

    def test_subnormal_first_step_then_full_steps(self):
        # a first output time of 5e-324 forces a subnormal first step;
        # the next step's trapezoid start divides by it, dt/dt_prev
        # overflows to inf, and GROWTH_CAP must cap that ratio
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.linspace(0.0, 0.9, g.n_cells))
        trace = integrate(state, 0.05, [5e-324, 0.05], g, SANDY, no_flux())
        assert trace.status == COMPLETED
        assert trace.times[1] == 5e-324

    def test_step_stats_shapes(self):
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.linspace(0.0, 0.9, g.n_cells))
        trace = integrate(state, 0.5, [0.5], g, SANDY, no_flux())
        m = len(trace)
        assert trace.step_dt.shape == (m - 1,)
        assert trace.step_newton_iters.shape == (m - 1,)
        assert trace.step_error.shape == (m - 1,)
        assert np.all(trace.step_error <= 1.0)
        assert np.all(trace.step_newton_iters >= 1)

    def test_validation(self):
        g = build_grid(1.0, 0.1)
        state = State(1.0, np.zeros(g.n_cells))
        with pytest.raises(ValueError):
            integrate(state, 0.5, [], g, SANDY, no_flux())
        with pytest.raises(ValueError):
            integrate(state, 2.0, [3.0], g, SANDY, no_flux())
        with pytest.raises(ValueError):
            integrate(State(0.0, np.zeros(3)), 1.0, [], g, SANDY, no_flux())

    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    def test_non_finite_t_end_rejected(self, no_solver, t_end):
        g = build_grid(1.0, 0.1)
        with pytest.raises(ValueError, match="finite"):
            integrate(State(0.0, np.zeros(g.n_cells)), t_end, [], g, SANDY,
                      no_flux())

    def test_non_finite_initial_state_rejected(self, no_solver):
        g = build_grid(1.0, 0.1)
        s = np.full(g.n_cells, 0.3)
        s[4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            integrate(State(0.0, s), 1.0, [], g, SANDY, no_flux())

    def test_pure_diffusion_max_principle_over_run(self, integrate_every_profile):
        p = Parameters(kappa=0.005, alpha_g=0.0, s_bar=0.0)
        g = build_grid(5.0, 0.02)
        rng = np.random.default_rng(11)
        state = State(0.0, rng.uniform(0.0, 1.0, g.n_cells))
        _, profiles = integrate_every_profile(state, 50.0, [50.0], g, p, no_flux())
        s_min = profiles.min(axis=1)
        s_max = profiles.max(axis=1)
        assert np.all(np.diff(s_min) >= -1e-9)
        assert np.all(np.diff(s_max) <= 1e-9)

    def test_bitwise_deterministic(self, integrate_every_profile):
        scn = example3(kappa=0.01)
        g = scn.build_grid()
        runs = [integrate_every_profile(scn.initial_state(g), 0.1, [0.1], g,
                                        scn.params, scn.bc) for _ in range(2)]
        (a, a_profiles), (b, b_profiles) = runs
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a_profiles, b_profiles)
        assert np.array_equal(a.step_dt, b.step_dt)

    def test_failure_report_when_tolerance_unreachable(self, monkeypatch):
        # an error tolerance the step floor cannot deliver must surface
        # as a structured failure, not an exception
        monkeypatch.setattr(timestepper, "DT_MIN", 5e-5)
        scn = example3(kappa=0.0)
        g = scn.build_grid()
        settings = SolverSettings(rel_tol=1e-13, abs_tol=1e-15)
        trace = integrate(scn.initial_state(g), 0.5, [0.5], g, scn.params,
                          scn.bc, settings)
        assert trace.status == FAILED
        assert trace.failure_reason is not None
        assert "DT_MIN" in trace.failure_reason
        assert trace.failure_time == trace.times[-1]
        assert len(trace) >= 1

    def test_per_step_mass_slip_bounded_by_newton_residual(self,
                                                           integrate_every_profile):
        # sealed ends: the flux differences telescope away, so any mass
        # change per accepted step is the Newton residual alone
        scn = example1()
        g = scn.build_grid()
        _, profiles = integrate_every_profile(scn.initial_state(g), 2.0, [2.0], g,
                                              scn.params, scn.bc)
        mass = g.dz * profiles.sum(axis=1)
        slip = np.max(np.abs(np.diff(mass)))
        assert slip <= g.n_cells * timestepper.NEWTON_TOL

    def test_predictor_keeps_stages_near_one_solve(self, ex1_to_t5):
        # each step is two stages; from their starts (the Taylor start
        # from the last step's f1 - f_gamma, and the quadratic) both
        # mostly converge after one linear solve (two iterations): 2.00
        # iterations a stage here (an explicit-Euler trapezoid start
        # reads 2.47)
        _, _, trace, _ = ex1_to_t5
        stages = 2 * (len(trace) - 1)
        assert trace.step_newton_iters.sum() <= 2.05 * stages

    def test_error_estimate_adds_no_rhs_call(self, monkeypatch):
        # the estimate reuses the rhs of Newton's residual checks, so a
        # run without rejections evaluates rhs once per Newton iteration,
        # and once more in the zero-length stage at the initial state
        calls = count_calls(monkeypatch, rhs=timestepper,
                            _newton_solve=timestepper)
        # a first step of 1e-4 is rejected once on this profile; 1e-5 is not
        monkeypatch.setattr(timestepper, "DT_INIT", 1e-5)
        scn = example1()
        g = scn.build_grid()
        trace = integrate(scn.initial_state(g), 0.05, [0.05], g, scn.params,
                          scn.bc)
        assert trace.status == COMPLETED
        assert trace.rejected_error == trace.rejected_newton == 0
        assert calls["_newton_solve"] == 2 * (len(trace) - 1) + 1
        assert calls["rhs"] == trace.step_newton_iters.sum() + 1

    def test_solve_jacobian_rhs_stage_identity(self, monkeypatch):
        # Each stage checks its residual once more than it builds and
        # solves a Newton system, and nothing else evaluates rhs, so
        # solves == jacobians == rhs calls - stages, the identity the
        # traced benchmark checks. A stage that Newton fails breaks it;
        # steps rejected on their error estimate (93 here) do not.
        calls = count_calls(monkeypatch, rhs=timestepper, jacobian=timestepper,
                            solve=timestepper.tridiag,
                            _newton_solve=timestepper)
        scn = example1()
        g = scn.build_grid()
        trace = integrate(scn.initial_state(g), 5.0, [5.0], g, scn.params, scn.bc)
        assert trace.status == COMPLETED
        assert trace.rejected_error > 0 and trace.rejected_newton == 0
        assert (calls["solve"] == calls["jacobian"]
                == calls["rhs"] - calls["_newton_solve"])

    def test_newton_leaves_the_jacobian_unwritten(self, monkeypatch):
        # Newton builds its matrix I - dt*J in arrays of its own, so a run
        # goes through with jacobian's bands made read-only.
        jacobian = timestepper.jacobian

        def read_only(*args):
            jac = jacobian(*args)
            for band in (jac.lower, jac.diag, jac.upper):
                band.flags.writeable = False
            return jac

        monkeypatch.setattr(timestepper, "jacobian", read_only)
        scn = example1()
        g = scn.build_grid()
        trace = integrate(scn.initial_state(g), 0.5, [0.5], g, scn.params, scn.bc)
        assert trace.status == COMPLETED

    # Every error estimate above 1 and every NewtonError halving is one
    # rejected attempt. With the default settings the draining front
    # fails the error test. With NEWTON_MAX_ITER patched to two residual
    # checks a stage and DT_INIT to a first step of 1e-2, the first
    # trapezoid stage, which has no step before it to take a Taylor start
    # from, fails Newton (5 halvings, then 17 error rejections); from a
    # first step of 1e-4 no stage fails. A tolerance that a step floor of
    # 5e-5 cannot meet fails the run at t=0, and the trace still counts the
    # attempts it rejected there.
    @pytest.mark.parametrize("settings, constants, cause, status", [
        (SolverSettings(), {}, "error", COMPLETED),
        (SolverSettings(), {"NEWTON_MAX_ITER": 2, "DT_INIT": 1e-2}, "newton",
         COMPLETED),
        (SolverSettings(rel_tol=1e-13, abs_tol=1e-15), {"DT_MIN": 5e-5}, "error",
         FAILED),
    ], ids=["error-test", "newton", "failed-run"])
    def test_rejections_counted_by_cause(self, monkeypatch, settings, constants,
                                         cause, status):
        for name, value in constants.items():
            monkeypatch.setattr(timestepper, name, value)
        counts = {"error": 0, "newton": 0}
        estimate, solve = timestepper._error_estimate, timestepper._newton_solve

        def counted_estimate(*args):
            err = estimate(*args)
            counts["error"] += err > 1.0
            return err

        def counted_solve(*args):
            try:
                return solve(*args)
            except timestepper.NewtonError:
                counts["newton"] += 1
                raise

        monkeypatch.setattr(timestepper, "_error_estimate", counted_estimate)
        monkeypatch.setattr(timestepper, "_newton_solve", counted_solve)
        scn = example1()
        g = scn.build_grid()
        trace = integrate(scn.initial_state(g), 0.5, [0.5], g, scn.params, scn.bc,
                          settings)
        assert trace.status == status
        assert counts[cause] > 0
        assert (trace.rejected_error, trace.rejected_newton) == (
            counts["error"], counts["newton"])

    # Newton's tolerance can be a constant because at it no stage with
    # dt > 0 on a moving preset converges at its first residual check:
    # each returns an implicit solve, never its explicit start.
    @pytest.mark.parametrize("scn, t_end", [
        (example1(), 5.0), (example3(kappa=0.005), 0.5), (example3(kappa=0.0), 0.5),
    ], ids=["example1", "example3-kappa0.005", "example3-kappa0"])
    def test_no_stage_returns_its_start_unsolved(self, monkeypatch, scn, t_end):
        counts = {"stages": 0, "unsolved": 0}
        solve = timestepper._newton_solve

        def counted_solve(s_old, t_new, dt, *args):
            u, iters, f = solve(s_old, t_new, dt, *args)
            if dt > 0.0:
                counts["stages"] += 1
                counts["unsolved"] += iters == 1
            return u, iters, f

        monkeypatch.setattr(timestepper, "_newton_solve", counted_solve)
        g = scn.build_grid()
        trace = integrate(scn.initial_state(g), t_end, [t_end], g, scn.params,
                          scn.bc)
        assert trace.status == COMPLETED
        assert counts["stages"] >= 2 * (len(trace) - 1)
        assert counts["unsolved"] == 0

    def test_tolerance_monotonicity_on_redistribution(self):
        # tightening rel_tol by decades may only move the solution
        # toward the tight-tolerance reference
        scn = example1()
        g = scn.build_grid()
        state = scn.initial_state(g)
        finals = {}
        for rel in (1e-4, 1e-5, 1e-6, 1e-7):
            settings = SolverSettings(rel_tol=rel, abs_tol=rel * 0.1)
            trace = integrate(state, 5.0, [5.0], g, scn.params, scn.bc, settings)
            finals[rel] = trace.state_at(5.0).s
        ref = finals[1e-7]
        deviations = [float(np.max(np.abs(finals[rel] - ref)))
                      for rel in (1e-4, 1e-5, 1e-6)]
        assert deviations[0] >= deviations[1] >= deviations[2]


def tuple_record(states):
    """record() built from a tuple of Python floats per state: the
    reference for the buffer record() fills."""
    states = list(states)
    scalars = np.array([(a.time, a.dt, a.newton_iters, a.error, a.inflow, a.mass,
                         a.s_min, a.s_max)
                        for a in states]).T
    kept = [i for i, a in enumerate(states) if a.output]
    if kept[-1] != len(states) - 1:
        kept.append(len(states) - 1)
    last = states[-1]
    return Trace(times=scalars[0], kept=np.array(kept),
                 profiles=np.array([states[i].s for i in kept]),
                 mass=scalars[5], s_min=scalars[6], s_max=scalars[7],
                 step_dt=scalars[1][1:],
                 step_newton_iters=scalars[2][1:].astype(int),
                 step_error=scalars[3][1:],
                 step_inflow=scalars[4][1:],
                 rejected_error=last.rejected_error,
                 rejected_newton=last.rejected_newton,
                 status=COMPLETED if last.failure is None else FAILED,
                 failure_time=None if last.failure is None else last.time,
                 failure_reason=last.failure)


@pytest.mark.parametrize("t_end, outputs", [(0.3, [0.1, 0.3]), (0.3, [0.1])],
                         ids=["ends-on-output", "ends-between"])
def test_record_matches_tuple_record(t_end, outputs):
    scn = example3(kappa=0.01)
    g = scn.build_grid()
    states = list(accepted_states(scn.initial_state(g), t_end, outputs, g,
                                  scn.params, scn.bc))
    got, want = record(states), tuple_record(states)
    for field in vars(want):
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        else:
            assert a == b, field


def test_record_refuses_no_states():
    with pytest.raises(ValueError, match="no accepted states"):
        record([])


def test_trace_state_lookup():
    g = build_grid(1.0, 0.1)
    state = State(0.0, np.full(g.n_cells, 0.2))
    trace = integrate(state, 1.0, [0.5, 1.0], g, SANDY, no_flux())
    np.testing.assert_array_equal(trace.state_at(0.0).s, state.s)
    assert trace.state_at(0.5).time == 0.5
    assert trace.final.time == 1.0
    for t in (0.123456, float("nan")):
        with pytest.raises(ValueError, match="no trace entry"):
            trace.state_at(t)
    # an accepted time whose profile was not kept
    assert 1 not in trace.kept
    with pytest.raises(ValueError, match="not kept"):
        trace.state_at(trace.times[1])


def test_the_run_owns_its_plan(monkeypatch):
    # A run builds one plan of its own row count and lets it go when it
    # ends: when integrate returns, or when its accepted_states are closed.
    built = []

    def plan(n):
        made = Plan(n)
        built.append(weakref.ref(made))
        return made

    def alive():
        gc.collect()
        return [ref().n for ref in built if ref() is not None]

    monkeypatch.setattr(timestepper.tridiag, "Plan", plan)
    scn = example1()
    g = scn.build_grid()
    args = (scn.initial_state(g), 0.05, [0.05], g, scn.params, scn.bc)
    assert integrate(*args).status == COMPLETED
    assert len(built) == 1 and not alive()
    states = accepted_states(*args)
    next(states)
    next(states)
    assert len(built) == 2 and alive() == [g.n_cells]
    states.close()
    assert not alive()


def test_concurrent_runs_match_serial_runs(ex1_to_t5):
    # Runs of 500 and 5,000 cells on two threads at once, each bit for
    # bit the run alone.
    scn, grid, ex1_alone, _ = ex1_to_t5
    fine = dataclasses.replace(example3(), d=0.001, t_end=0.01,
                               output_times=(0.01,))
    runs = [(scn, grid), (fine, fine.build_grid())]

    def run(scn, grid):
        return integrate(scn.initial_state(grid), scn.t_end, scn.output_times,
                         grid, scn.params, scn.bc)

    alone = [ex1_alone, run(*runs[1])]
    with ThreadPoolExecutor(2) as pool:
        together = list(pool.map(run, *zip(*runs), timeout=60))
    for a, b in zip(alone, together):
        for field in dataclasses.fields(Trace):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
            else:
                assert x == y, field.name


def test_nan_error_estimate_fails_the_run(monkeypatch):
    # a NaN estimate is rejected like any other above 1 and shrinks the
    # step to underflow; the bound on stage calls turns an endless retry
    # loop into a test failure
    calls = {"estimate": 0, "stage": 0}
    solve = timestepper._newton_solve

    def nan_estimate(*args):
        calls["estimate"] += 1
        return float("nan")

    def bounded_solve(*args):
        calls["stage"] += 1
        assert calls["stage"] < 200, "the step size never underflows"
        return solve(*args)

    monkeypatch.setattr(timestepper, "_error_estimate", nan_estimate)
    monkeypatch.setattr(timestepper, "_newton_solve", bounded_solve)
    scn = example3()
    g = scn.build_grid()
    trace = integrate(scn.initial_state(g), 0.01, [0.01], g, scn.params, scn.bc)
    assert trace.status == FAILED
    assert trace.failure_reason.startswith("step size underflow")
    assert trace.rejected_error == calls["estimate"]
    assert len(trace) == 1


def test_non_finite_rhs_at_the_initial_state_fails_at_once(monkeypatch):
    # the zero-length stage that gives the first step's rhs fails only
    # on a non-finite rhs, which no step size mends: the run fails at t0
    # after that one stage, with no rejected attempt
    calls = {"stage": 0}
    solve = timestepper._newton_solve

    def counted_solve(*args):
        calls["stage"] += 1
        return solve(*args)

    monkeypatch.setattr(timestepper, "_newton_solve", counted_solve)
    g = build_grid(1.0, 0.05)
    bc = BoundarySpec(top=Dirichlet(lambda t: math.nan if t == 0.0 else 0.3),
                      bottom=Flux(0.0))
    initial = State(0.0, np.linspace(0.0, 0.3, g.n_cells))
    trace = integrate(initial, 0.1, [0.005, 0.1], g, SANDY, bc)
    assert trace.status == FAILED
    assert trace.failure_time == 0.0
    assert calls["stage"] == 1
    assert trace.rejected_newton == trace.rejected_error == 0
    assert "initial state" in trace.failure_reason


@pytest.mark.parametrize("t0, t_end", [(1e20, 1e20 + 1e5), (1e16, 1e16 + 100.0)],
                         ids=["t0=1e20", "t0=1e16"])
def test_step_that_does_not_move_the_clock_fails(monkeypatch, t0, t_end):
    # near t0 = 1e20 a step of DT_MAX = 10 rounds back to t0, and near
    # 1e16 the first steps do: without a check the first run loops
    # forever and the second records zero-length steps at one time. The
    # run fails before its first attempt, after the zero-length stage
    # that gives f0; the bound on stage calls turns the loop into a
    # test failure
    calls = {"stage": 0}
    solve = timestepper._newton_solve

    def bounded_solve(*args):
        calls["stage"] += 1
        assert calls["stage"] < 200, "the clock never moves"
        return solve(*args)

    monkeypatch.setattr(timestepper, "_newton_solve", bounded_solve)
    scn = example1()
    g = scn.build_grid()
    initial = State(t0, scn.initial_state(g).s)
    trace = integrate(initial, t_end, [], g, scn.params, no_flux())
    assert trace.status == FAILED
    assert trace.failure_reason == (
        f"step size underflow: dt={timestepper.DT_INIT} does not advance t={t0}")
    assert len(trace) == 1
    assert calls["stage"] == 1


def smooth_profile(z):
    """A smooth saturation on (-1, 0) that crosses s_bar = 0.3."""
    return 0.55 + 0.35 * np.cos(np.pi * (z + 0.1))


@pytest.mark.parametrize("bc", [
    no_flux(),
    BoundarySpec(top=Robin(0.5, 0.2), bottom=Flux(-0.01)),
    # Dirichlet values that differ from the initial profile's end values
    # open a boundary layer that the coarse steps do not resolve (orders
    # 1.59 / 1.64 / 1.76 measured with 0.6 and 0.4), so the ends hold
    # the profile's own values, 0.883 and 0.217.
    BoundarySpec(top=Dirichlet(float(smooth_profile(0.0))),
                 bottom=Dirichlet(float(smooth_profile(-1.0)))),
], ids=["sealed", "robin-flux", "dirichlet"])
def test_second_order_in_time(monkeypatch, bc):
    # Fixed steps (DT_INIT == DT_MAX and tolerances no step can fail)
    # of 0.1 down to 0.0125, against a run at dt = 1/640: halving dt
    # quarters the error at t = 1. Orders measured: 2.03 / 2.02 / 2.02
    # sealed, 1.98 / 1.99 / 2.02 at Robin and Flux ends, 2.04 / 2.01 /
    # 2.00 at Dirichlet ends.
    p = Parameters(kappa=0.05, alpha_g=0.5, s_bar=0.3, depth_h=1.0)
    g = build_grid(1.0, 0.02)
    initial = State(0.0, smooth_profile(g.centers))
    settings = SolverSettings(rel_tol=1e3, abs_tol=1e3)

    def final_profile(dt):
        monkeypatch.setattr(timestepper, "DT_INIT", dt)
        monkeypatch.setattr(timestepper, "DT_MAX", dt)
        trace = integrate(initial, 1.0, [1.0], g, p, bc, settings)
        assert trace.status == COMPLETED
        assert trace.rejected_error == trace.rejected_newton == 0
        # Constant steps, up to the round-off the last one absorbs.
        np.testing.assert_allclose(trace.step_dt, dt, rtol=1e-10)
        return trace.final.s

    reference = final_profile(1.0 / 640.0)
    errors = [np.abs(final_profile(dt) - reference).max()
              for dt in (0.1, 0.05, 0.025, 0.0125)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(1.8 <= order <= 2.2 for order in orders), orders
