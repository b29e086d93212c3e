"""End-to-end acceptance checks for the column simulator.

Each test exercises one shipped behaviour at its agreed tolerance and
records a PASS/FAIL line that the test session prints in its summary.
The long reference runs are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from soilcolumn.diagnostics import (
    FRONT_DEPTH, MAX_BELOW_SBAR, MAXMIN_BELOW_GAP, InstabilityMetrics,
    detect_event, instability_metrics, mass_balance_audit)
from soilcolumn.discretization import (
    BoundarySpec, Dirichlet, Flux, Robin, State, build_grid, face_fluxes,
    jacobian, no_flux, rhs)
from soilcolumn.model import Parameters
from soilcolumn.scenarios import example1, example2, example3
from soilcolumn.timestepper import SolverSettings, integrate

from oracles import characteristics_oracle


def run_scenario(scn, t_end=None, output_times=None, run=integrate):
    """run (integrate, or the integrate_every_profile fixture) on a
    scenario, with its end time and output times unless given."""
    grid = scn.build_grid()
    result = run(scn.initial_state(grid),
                 scn.t_end if t_end is None else t_end,
                 scn.output_times if output_times is None else output_times,
                 grid, scn.params, scn.bc)
    return grid, result


@pytest.fixture(scope="module")
def ex1_run(integrate_every_profile):
    scn = example1()
    start = time.perf_counter()
    grid, (trace, profiles) = run_scenario(scn, run=integrate_every_profile)
    return scn, grid, trace, profiles, time.perf_counter() - start


@pytest.fixture(scope="module")
def ex1_half_d_run():
    scn = example1()
    grid = build_grid(scn.params.depth_h, scn.d / 2.0)
    trace = integrate(State(0.0, np.asarray(scn.ic(grid.centers), float)),
                      250.0, [250.0], grid, scn.params, scn.bc)
    return grid, trace


@pytest.fixture(scope="module")
def ex2_run(integrate_every_profile):
    scn = example2()
    grid, (trace, profiles) = run_scenario(scn, run=integrate_every_profile)
    return scn, grid, trace, profiles


@pytest.fixture(scope="module")
def ex3_triptych(integrate_every_profile):
    runs = {}
    for kappa in (0.01, 0.001, 0.0):
        scn = example3(kappa=kappa)
        grid, (trace, profiles) = run_scenario(scn, t_end=0.5, output_times=[0.5],
                                               run=integrate_every_profile)
        runs[kappa] = (scn, grid, trace, profiles)
    return runs


def worst_metrics(trace, profiles):
    per_state = [instability_metrics(State(t, s))
                 for t, s in zip(trace.times, profiles)]
    return InstabilityMetrics(max(m.undershoot for m in per_state),
                              max(m.overshoot for m in per_state),
                              max(m.zigzag for m in per_state))


def monotone_detail(trace, worst):
    return (f"status={trace.status}, max zigzag={worst.zigzag} (expect 0), "
            f"max undershoot={worst.undershoot:.1e}, "
            f"max overshoot={worst.overshoot:.1e} (limits 1e-3)")


def is_monotone(trace, worst):
    return (trace.status == "completed" and worst.zigzag == 0
            and worst.undershoot <= 1e-3 and worst.overshoot <= 1e-3)


def entropy_front_depth(t, s_bar, mass):
    """Shock position of example3 at kappa=0 before it nears either end.

    The IC s=-z/2 on (-2, 0) lies below s_bar above z=-2*s_bar and does
    not move there. Below, characteristics dz/dt=-(s-s_bar) spread it as
    s=(s_bar*t-z)/(2+t) down to a shock into the dry layer at Z. The
    column mass s_bar^2 + ((s_bar*t-Z)^2 - s_bar^2*(2+t)^2)/(2*(2+t))
    is conserved, which fixes Z.
    """
    return s_bar * t - np.sqrt(2.0 * (2.0 + t) * (mass - s_bar ** 2)
                               + (s_bar * (2.0 + t)) ** 2)


def test_criterion_1_mass_conservation(ex1_run, acceptance_report):
    scn, grid, trace, profiles, runtime = ex1_run
    mass0 = trace.mass[0]
    drift = mass_balance_audit(trace, grid, scn.params, scn.bc)
    worst = float(np.max(np.abs(drift)))
    detail = (f"max|drift|={worst:.2e} (limit 1e-3), mass(0)={mass0:.4f} "
              f"(expect 0.505), runtime={runtime:.1f}s (target <120s)")
    passed = worst <= 1e-3 and abs(mass0 - 0.505) <= 1e-3 and runtime < 120.0
    acceptance_report("criterion 1, sealed-column mass conservation", passed, detail)
    assert trace.status == "completed"
    assert worst <= 1e-3
    assert mass0 == pytest.approx(0.505, abs=1e-3)
    assert runtime < 120.0
    # Full profiles only at t0 and the four output times, while every
    # accepted state keeps its time and scalars.
    assert trace.profiles.shape == (5, grid.n_cells)
    assert len(trace) == trace.step_dt.size + 1 == len(profiles)
    assert float(trace.s_min.min()) >= -1e-10


def test_criterion_2_threshold_event(ex1_run, ex1_half_d_run, acceptance_report):
    scn, grid, trace, _, _ = ex1_run
    event = detect_event(trace, MAX_BELOW_SBAR, scn.params.s_bar)
    grid2, trace2 = ex1_half_d_run
    event2 = detect_event(trace2, MAX_BELOW_SBAR, scn.params.s_bar)
    shift = abs(event2.time - event.time) / event.time if event else np.inf
    detail = (f"t={event.time:.1f} (band [122, 182]), halved-d t={event2.time:.1f}, "
              f"shift={100 * shift:.2f}% (limit 10%)")
    passed = event is not None and 122.0 <= event.time <= 182.0 and shift < 0.10
    acceptance_report("criterion 2, stickiness threshold event near t=152",
                      passed, detail)
    assert event is not None
    assert 122.0 <= event.time <= 182.0
    assert shift < 0.10


def test_criterion_3_uniformization_event(ex1_run, acceptance_report):
    # The paper's settling time t~1756 is where the max-min gap falls
    # below 0.01 (absolute). The tail is the slowest sealed-column mode,
    # time constant 1/(kappa*(pi/h)^2) ~ 507 (see
    # test_uniformization_follows_diffusive_decay), so a 0.1 gap is
    # reached near t~591, a decade of gap earlier by ln(10)*507.
    scn, grid, trace, _, _ = ex1_run
    event = detect_event(trace, MAXMIN_BELOW_GAP, 0.01)
    coarse = detect_event(trace, MAXMIN_BELOW_GAP, 0.1)
    detail = (f"gap<0.01 at t={event.time:.1f} (band [1405, 2107]), "
              f"gap<0.1 at t={coarse.time:.1f}" if event and coarse
              else "event not detected")
    passed = event is not None and 1405.0 <= event.time <= 2107.0
    acceptance_report("criterion 3, settling to a 0.01 max-min gap near t=1756",
                      passed, detail)
    assert event is not None
    assert 1405.0 <= event.time <= 2107.0


def test_uniformization_follows_diffusive_decay(ex1_run):
    """The settling tail is exactly the slowest sealed-column mode.

    An independent spectral oracle (cosine-mode expansion of the profile
    once transport has shut off) must predict the max-min gap evolution;
    this pins the late-time dynamics to the model rather than to any
    reported reference value.
    """
    scn, grid, trace, profiles, _ = ex1_run
    k0 = int(np.searchsorted(trace.times, 200.0))
    s0 = profiles[k0]
    t0 = trace.times[k0]
    assert s0.max() < scn.params.s_bar  # transport is off from here on
    h = scn.params.depth_h
    n = grid.n_cells
    modes = np.arange(1, 80)
    basis = np.cos(np.outer(modes, np.pi * (grid.centers + h) / h))
    coef = 2.0 / n * basis @ s0
    for t_check in (400.0, 1000.0, 2500.0):
        k = int(np.searchsorted(trace.times, t_check))
        decay = np.exp(-scn.params.kappa * (modes * np.pi / h) ** 2
                       * (trace.times[k] - t0))
        s_exact = s0.mean() + (coef * decay) @ basis
        gap_exact = float(s_exact.max() - s_exact.min())
        gap_sim = float(profiles[k].max() - profiles[k].min())
        assert gap_sim == pytest.approx(gap_exact, rel=5e-3, abs=2e-5)
    # the paper-reported settling time t=1756 corresponds to a gap of
    # 0.01 under this decay, not 0.1
    event = detect_event(trace, MAXMIN_BELOW_GAP, 0.01)
    assert event is not None
    assert event.time == pytest.approx(1758.0, abs=60.0)


def test_default_run_reaches_dt_max(ex1_run):
    # TR-BDF2 is L-stable, so in the capillary tail the error controller
    # runs into the cap: no accepted step exceeds it, and some reach it.
    _, _, trace, _, _ = ex1_run
    assert trace.step_dt.max() == SolverSettings().dt_max


def test_dt_max_of_one_still_reachable(ex1_run):
    # A cap of 1 stays available through SolverSettings (the solver.dt_max
    # config key): example1 then takes 3,194 accepted steps and 105
    # rejections, against 997 and 106 at the default cap of 10.
    scn, grid, default, _, _ = ex1_run
    trace = integrate(scn.initial_state(grid), scn.t_end, scn.output_times,
                      grid, scn.params, scn.bc, SolverSettings(dt_max=1.0))
    assert trace.step_dt.max() == 1.0
    assert len(trace) - 1 == 3194
    assert trace.rejected_error + trace.rejected_newton == 105
    # The reason for the default cap: every event of the default run lies
    # within 0.05 of the cap-1 run's (153.2130 against 153.2456, 590.7461
    # against 590.7497, 1757.2659 against 1757.2751).
    for kind, threshold in ((MAX_BELOW_SBAR, scn.params.s_bar),
                            (MAXMIN_BELOW_GAP, 0.1), (MAXMIN_BELOW_GAP, 0.01)):
        assert abs(detect_event(default, kind, threshold).time
                   - detect_event(trace, kind, threshold).time) < 0.05


def test_redistribution_profiles_descend(ex1_run):
    """Snapshots show a descending front and a draining surface."""
    scn, grid, trace, _, _ = ex1_run
    tops, fronts = [], []
    for t in scn.output_times:
        state = trace.state_at(t)
        tops.append(float(state.s[-1]))
        event = detect_event(trace, FRONT_DEPTH, 0.05, grid=grid, at_time=t)
        fronts.append(event.value)
    assert all(a > b for a, b in zip(tops, tops[1:]))
    assert all(a > b for a, b in zip(fronts, fronts[1:]))
    assert tops[0] > scn.params.s_bar  # surface starts wet, ends drained
    assert tops[-1] < scn.params.s_bar


def test_mass_audit_bounded_on_dirichlet_run(ex3_triptych):
    # with open ends the audit sums each step's boundary inflow as the
    # step applied it, so only Newton residuals and
    # round-off remain
    scn, grid, trace, _ = ex3_triptych[0.01]
    drift = mass_balance_audit(trace, grid, scn.params, scn.bc)
    assert float(np.max(np.abs(drift))) <= 1e-12


def test_criterion_4_strong_diffusion_stable(ex3_triptych, acceptance_report):
    _, _, trace, _ = ex3_triptych[0.01]
    final = instability_metrics(trace.state_at(0.5))
    detail = (f"kappa=0.01: zigzag={final.zigzag} (expect 0), "
              f"undershoot={final.undershoot:.1e} (limit 1e-3)")
    passed = (trace.status == "completed" and final.zigzag == 0
              and final.undershoot <= 1e-3)
    acceptance_report("criterion 4a, strong diffusion stays smooth", passed, detail)
    assert trace.status == "completed"
    assert final.zigzag == 0
    assert final.undershoot <= 1e-3


def test_criterion_4_weak_diffusion_oscillates(ex3_triptych, acceptance_report):
    # A centred or Galerkin gravity term is monotone only while the cell
    # Peclet number f'(s)*dz/kappa stays at most 2; past it such schemes
    # oscillate, as the paper's FEM does at this kappa. The equation
    # itself cannot oscillate (sign changes of s_z never increase), and
    # the upwind scheme must not either, on every stored profile.
    scn, grid, trace, profiles = ex3_triptych[0.001]
    p = scn.params
    peclet = 2.0 * p.alpha_g * (1.0 - p.s_bar) * grid.dz / p.kappa
    worst = worst_metrics(trace, profiles)
    detail = (f"kappa=0.001: cell Peclet={peclet:.1f} (need > 2), "
              + monotone_detail(trace, worst))
    passed = peclet > 2.0 and is_monotone(trace, worst)
    acceptance_report("criterion 4b, weak diffusion past the Peclet limit "
                      "stays monotone", passed, detail)
    assert peclet > 2.0
    assert trace.status == "completed"
    assert worst.zigzag == 0
    assert worst.undershoot <= 1e-3
    assert worst.overshoot <= 1e-3


def test_criterion_4_no_diffusion_collapses(ex3_triptych, acceptance_report):
    # Pure transport, where the paper's FEM collapses: the run must
    # complete as monotone as in 4b and must move the front to where
    # the entropy solution has it, so a frozen or over-smeared profile
    # fails too.
    scn, grid, trace, profiles = ex3_triptych[0.0]
    worst = worst_metrics(trace, profiles)
    exact = entropy_front_depth(0.5, scn.params.s_bar, trace.mass[0])
    front = detect_event(trace, FRONT_DEPTH, 0.05, grid=grid, at_time=0.5)
    miss = abs(front.value - exact) / grid.dz if front else np.inf
    detail = ("kappa=0: " + monotone_detail(trace, worst)
              + f", front at t=0.5 {miss:.1f}*dz from exact z={exact:.4f} "
              f"(limit 3*dz)")
    passed = is_monotone(trace, worst) and miss <= 3.0
    acceptance_report("criterion 4c, zero diffusion stays monotone and "
                      "tracks the shock", passed, detail)
    assert trace.status == "completed"
    assert worst.zigzag == 0
    assert worst.undershoot <= 1e-3
    assert worst.overshoot <= 1e-3
    assert miss <= 3.0


def test_criterion_5_stickiness_front_depth(acceptance_report):
    depths = {}
    for s_bar in (0.0, None):
        scn = example3(kappa=0.005, s_bar=s_bar)
        grid, trace = run_scenario(scn, t_end=5.0, output_times=[5.0])
        event = detect_event(trace, FRONT_DEPTH, 0.05, grid=grid, at_time=5.0)
        depths[scn.params.s_bar] = event.value
    sticky = max(depths)
    gap = depths[sticky] - depths[0.0]
    detail = (f"front at z={depths[sticky]:.3f} (sticky) vs "
              f"z={depths[0.0]:.3f} (s_bar=0); shallower by {gap:.3f} "
              f"(require >= 0.1)")
    passed = gap >= 0.1
    acceptance_report("criterion 5, residual saturation shortens the front",
                      passed, detail)
    assert gap >= 0.1


def test_criterion_6_bottom_wetting_behaviour(ex2_run, acceptance_report):
    scn, grid, trace, profiles = ex2_run
    top = profiles[:, -1]
    worst_drop = float(np.min(np.diff(top)))
    s_min, s_max = trace.s_min, trace.s_max
    settled = s_max <= scn.params.s_bar + 1e-2
    gap = s_max - s_min
    peak = int(np.argmax(gap))
    interior_peak = (0 < peak < len(gap) - 1 and gap[peak] > gap[0]
                     and gap[peak] > gap[-1])
    mass_err = float(np.max(np.abs(trace.mass - 0.1485)))
    detail = (f"top-cell worst step={worst_drop:.1e} (limit -1e-6), "
              f"s_max settles={bool(settled.any())}, gap peak "
              f"{gap[peak]:.3f}@t={trace.times[peak]:.1f} interior="
              f"{interior_peak}, |mass-0.1485|<={mass_err:.1e}")
    passed = (worst_drop >= -1e-6 and settled.any() and interior_peak
              and mass_err <= 1e-3)
    acceptance_report("criterion 6, wetting from the bottom layer", passed,
                      detail)
    assert worst_drop >= -1e-6
    assert settled.any()
    assert interior_peak
    assert mass_err <= 1e-3


def test_criterion_7_hyperbolic_limit_oracle(acceptance_report):
    # Spatial-convergence measurement: the integrator is tightened well
    # below the spatial error so the comparison sees the scheme, not the
    # step controller.
    p = Parameters(kappa=0.0, alpha_g=0.5, s_bar=0.0, depth_h=5.0)
    slope = 0.1 / 5.0

    def ic(z):
        return 0.1 * (np.asarray(z) + 5.0) / 5.0

    def top_inflow(t):
        return 0.1 / (1.0 - 2.0 * p.alpha_g * slope * t)

    bc = BoundarySpec(top=Dirichlet(top_inflow), bottom=Dirichlet(0.0))
    settings = SolverSettings(rel_tol=1e-9, abs_tol=1e-11)
    errors = {}
    for d in (0.01, 0.005):
        grid = build_grid(5.0, d)
        trace = integrate(State(0.0, ic(grid.centers).astype(float)), 1.0,
                          [1.0], grid, p, bc, settings)
        numeric = trace.state_at(1.0).s
        exact = np.array([characteristics_oracle(ic, z, 1.0, p)
                          for z in grid.centers])
        errors[d] = float(np.max(np.abs(numeric - exact)))
    bound = 5.0 * 0.01 * slope
    ratio = errors[0.005] / errors[0.01]
    detail = (f"Linf={errors[0.01]:.2e} (bound {bound:.1e}), "
              f"halved-d ratio={ratio:.2f} (band [0.3, 0.7])")
    passed = (errors[0.01] <= bound and errors[0.005] <= bound / 2.0
              and 0.3 <= ratio <= 0.7)
    acceptance_report("criterion 7, pure-transport characteristics oracle",
                      passed, detail)
    assert errors[0.01] <= bound
    assert errors[0.005] <= bound / 2.0
    assert 0.3 <= ratio <= 0.7


def test_criterion_8_property_suites(integrate_every_profile, as_dense,
                                     acceptance_report):
    rng = np.random.default_rng(2024)
    p = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303)
    grid = build_grid(5.0, 0.01)
    small = build_grid(1.0, 0.02)
    bcs = [no_flux(),
           BoundarySpec(top=Dirichlet(0.2), bottom=Robin(1.0, 0.1)),
           BoundarySpec(top=Robin(2.0, 0.3), bottom=Flux(0.01))]

    # conservation telescoping on 100 random states
    worst_tel = 0.0
    for i in range(100):
        state = State(0.0, rng.uniform(0.0, 1.2, grid.n_cells))
        bc = bcs[i % len(bcs)]
        flux = face_fluxes(state, grid, p, bc)
        total = grid.dz * float(np.sum(rhs(state, grid, p, bc)))
        worst_tel = max(worst_tel, abs(total - (flux[-1] - flux[0])))

    # analytic Jacobian against brute-force differencing, 100 states
    worst_jac = 0.0
    h = 1e-7
    for i in range(100):
        state = State(0.0, rng.uniform(0.0, 1.2, small.n_cells))
        bc = bcs[i % len(bcs)]
        dense = as_dense(jacobian(state, small, p, bc))
        fd = np.empty_like(dense)
        for j in range(small.n_cells):
            up, down = state.s.copy(), state.s.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (rhs(State(0.0, up), small, p, bc)
                        - rhs(State(0.0, down), small, p, bc)) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst_jac = max(worst_jac, float(np.max(np.abs(dense - fd))) / scale)

    # pure-diffusion maximum principle over a full run
    p_diff = Parameters(kappa=0.005, alpha_g=0.0, s_bar=0.0)
    state = State(0.0, rng.uniform(0.0, 1.0, small.n_cells))
    _, diff_profiles = integrate_every_profile(state, 20.0, [20.0], small, p_diff,
                                               no_flux())
    mins = diff_profiles.min(axis=1)
    maxs = diff_profiles.max(axis=1)
    max_principle = bool(np.all(np.diff(mins) >= -1e-9)
                         and np.all(np.diff(maxs) <= 1e-9))

    # sub-threshold constants are exact steady states
    c = 0.2
    steady = True
    for bc in (no_flux(), BoundarySpec(top=Robin(1.0, c), bottom=Robin(2.0, c))):
        const = State(0.0, np.full(grid.n_cells, c))
        _, profiles = integrate_every_profile(const, 3.0, [3.0], grid, p, bc)
        steady = steady and bool(np.all(profiles == c))

    # bitwise determinism
    scn = example3(kappa=0.01)
    g3 = scn.build_grid()
    (a, a_profiles), (b, b_profiles) = [
        integrate_every_profile(scn.initial_state(g3), 0.1, [0.1], g3, scn.params,
                                scn.bc) for _ in range(2)]
    deterministic = bool(np.array_equal(a_profiles, b_profiles)
                         and np.array_equal(a.times, b.times))

    detail = (f"telescoping={worst_tel:.1e} (limit 1e-13), "
              f"jacobian={worst_jac:.1e} (limit 1e-5), "
              f"max-principle={max_principle}, constant-steady={steady}, "
              f"deterministic={deterministic}")
    passed = (worst_tel <= 1e-13 and worst_jac <= 1e-5 and max_principle
              and steady and deterministic)
    acceptance_report("criterion 8, always-on property suites", passed, detail)
    assert worst_tel <= 1e-13
    assert worst_jac <= 1e-5
    assert max_principle
    assert steady
    assert deterministic
