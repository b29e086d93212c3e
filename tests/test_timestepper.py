import numpy as np
import pytest

from soilcolumn.discretization import State, build_grid, no_flux
from soilcolumn.model import Parameters
from soilcolumn.scenarios import example1, example3
from soilcolumn.timestepper import (
    COMPLETED, FAILED, SolverSettings, _newton_solve, integrate, newton_step)

SANDY = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303)


class TestSolverSettings:
    def test_defaults_valid(self):
        s = SolverSettings()
        assert s.rel_tol == 1e-5
        assert s.abs_tol == 1e-6
        assert s.newton_max_iter == 25

    @pytest.mark.parametrize("kwargs", [
        dict(dt_min=0.0),
        dict(dt_min=1e-3, dt_init=1e-4),
        dict(dt_init=2.0, dt_max=1.0),
        dict(rel_tol=0.0),
        dict(abs_tol=-1.0),
        dict(newton_max_iter=0),
        dict(safety=0.0),
        dict(safety=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)


class TestNewtonStep:
    def test_fixed_point_converges_immediately(self):
        g = build_grid(5.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.2))
        new, iters = newton_step(state, 0.5, g, SANDY, no_flux(), SolverSettings())
        assert iters == 1
        np.testing.assert_array_equal(new.s, state.s)
        assert new.time == 0.5

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
        new, _ = newton_step(State(0.0, s_old), dt, g, p, no_flux(),
                             SolverSettings())
        np.testing.assert_allclose(new.s, expected, rtol=1e-12)

    def test_small_step_consistency(self):
        from soilcolumn.discretization import rhs
        g = build_grid(5.0, 0.1)
        state = State(0.0, np.asarray(example1().ic(g.centers), float))
        slope = np.max(np.abs(rhs(state, g, SANDY, no_flux())))
        for dt in (1e-6, 1e-7, 1e-8):
            new, _ = newton_step(state, dt, g, SANDY, no_flux(), SolverSettings())
            assert np.max(np.abs(new.s - state.s)) <= 2.0 * slope * dt

    def test_rejects_nonpositive_dt(self):
        g = build_grid(1.0, 0.5)
        with pytest.raises(ValueError):
            newton_step(State(0.0, np.zeros(2)), 0.0, g, SANDY, no_flux(),
                        SolverSettings())

    def test_start_at_solution_takes_one_iteration(self):
        scn = example1()
        g = scn.build_grid()
        s_old = scn.initial_state(g).s
        args = (s_old, 0.01, 0.01, g, scn.params, scn.bc, SolverSettings())
        u, iters = _newton_solve(*args)
        assert iters > 1
        again, iters = _newton_solve(*args, u)
        assert iters == 1
        np.testing.assert_array_equal(again, u)

    def test_huge_diffusion_step_keeps_max_principle(self):
        # unconditional stability: dt at 1000x the explicit diffusion limit
        p = Parameters(kappa=0.005, alpha_g=0.0, s_bar=0.0)
        g = build_grid(5.0, 0.01)
        rng = np.random.default_rng(7)
        s_old = rng.uniform(0.1, 0.9, g.n_cells)
        dt = 1e3 * g.dz ** 2 / p.kappa
        settings = SolverSettings(dt_init=dt, dt_max=10.0 * dt)
        new, _ = newton_step(State(0.0, s_old), dt, g, p, no_flux(), settings)
        assert new.s.min() >= s_old.min() - 1e-12
        assert new.s.max() <= s_old.max() + 1e-12
        assert np.all(np.isfinite(new.s))


class TestIntegrate:
    def test_empty_interval(self):
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.3))
        trace = integrate(state, 0.0, [], g, SANDY, no_flux())
        assert len(trace) == 1
        assert trace.status == COMPLETED
        np.testing.assert_array_equal(trace.profiles[0], state.s)

    def test_uniform_diffusion_stays_constant(self, integrate_every_profile):
        p = Parameters(kappa=0.01, alpha_g=0.0, s_bar=0.0)
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.42))
        trace, profiles = integrate_every_profile(state, 10.0, [10.0], g, p,
                                                  no_flux())
        assert trace.status == COMPLETED
        assert np.all(profiles == 0.42)
        # nothing rejects, so the controller expands to dt_max quickly
        assert len(trace) - 1 <= 20

    def test_output_times_hit_exactly(self):
        g = build_grid(5.0, 0.05)
        scn = example1()
        state = State(0.0, np.asarray(scn.ic(g.centers), float))
        outputs = [0.125, 1.0 / 3.0, 0.7, 2.0]
        trace = integrate(state, 2.0, outputs, g, scn.params, scn.bc)
        for t in outputs:
            assert t in trace.times
        assert np.all(np.diff(trace.times) > 0)

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

    def test_failure_report_when_tolerance_unreachable(self):
        # an error tolerance the step floor cannot deliver must surface
        # as a structured failure, not an exception
        scn = example3(kappa=0.0)
        g = scn.build_grid()
        settings = SolverSettings(rel_tol=1e-13, abs_tol=1e-15, dt_init=1e-4,
                                  dt_min=5e-5)
        trace = integrate(scn.initial_state(g), 0.5, [0.5], g, scn.params,
                          scn.bc, settings)
        assert trace.status == FAILED
        assert trace.failure_reason is not None
        assert "dt_min" in trace.failure_reason
        assert trace.failure_time == trace.times[-1]
        assert len(trace) >= 1

    def test_per_step_mass_slip_bounded_by_newton_residual(self,
                                                           integrate_every_profile):
        # sealed ends: the flux differences telescope away, so any mass
        # change per accepted step is the Newton residual alone
        scn = example1()
        g = scn.build_grid()
        settings = SolverSettings()
        _, profiles = integrate_every_profile(scn.initial_state(g), 2.0, [2.0], g,
                                              scn.params, scn.bc, settings)
        mass = g.dz * profiles.sum(axis=1)
        slip = np.max(np.abs(np.diff(mass)))
        assert slip <= g.n_cells * settings.newton_tol

    def test_predictor_keeps_stages_near_one_solve(self, ex1_to_t5):
        # a stage started from its predictor converges after one linear
        # solve (two iterations); from the old state it needs two solves
        _, _, trace, _ = ex1_to_t5
        stages = 3 * (len(trace) - 1)
        assert trace.step_newton_iters.sum() <= 2.1 * stages

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


def test_trace_state_lookup():
    g = build_grid(1.0, 0.1)
    state = State(0.0, np.full(g.n_cells, 0.2))
    trace = integrate(state, 1.0, [0.5, 1.0], g, SANDY, no_flux())
    assert trace.state_at(0.5).time == 0.5
    assert trace.final.time == 1.0
    with pytest.raises(ValueError):
        trace.state_at(0.123456)
