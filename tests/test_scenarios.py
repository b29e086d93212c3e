import numpy as np
import pytest

from soilcolumn.discretization import Dirichlet, Flux
from soilcolumn.scenarios import (
    Scenario, by_name, example1, example2, example3,
    SANDY_LOAM_SBAR, ic_from_breakpoints)


def test_sandy_loam_sbar():
    value = SANDY_LOAM_SBAR
    assert value == pytest.approx(0.111 / 0.482, rel=1e-15)
    assert round(value, 4) == 0.2303


class TestExample1:
    def test_parameters(self):
        scn = example1()
        assert scn.params.kappa == 0.005
        assert 2.0 * scn.params.alpha_g == 1.0
        assert abs(scn.params.s_bar - 0.2303) < 1e-4
        assert scn.params.depth_h == 5.0
        assert scn.d == 0.01
        assert scn.t_end == 2500.0
        assert scn.output_times == (0.5, 5.0, 250.0, 2500.0)

    def test_initial_condition(self):
        ic = example1().ic
        assert ic(-0.25) == 1.0
        assert ic(-0.505) == pytest.approx(0.5)
        assert ic(-3.0) == 0.0
        # ramp formula 100z + 51 on [-0.51, -0.50]
        for z in (-0.508, -0.503, -0.501):
            assert float(ic(z)) == pytest.approx(100.0 * z + 51.0, abs=1e-12)

    def test_no_flux_boundaries(self):
        scn = example1()
        assert isinstance(scn.bc.top, Flux) and scn.bc.top.value_at(3.0) == 0.0
        assert isinstance(scn.bc.bottom, Flux) and scn.bc.bottom.value_at(0.0) == 0.0


class TestExample2:
    def test_initial_condition(self):
        ic = example2().ic
        assert ic(-4.50) == 0.0
        assert ic(-4.51) == pytest.approx(0.3)
        assert ic(-1.0) == 0.0
        assert ic(-5.0) == pytest.approx(0.3)
        # ramp formula -30z - 135 on [-4.51, -4.50]
        for z in (-4.507, -4.502):
            assert float(ic(z)) == pytest.approx(-30.0 * z - 135.0, abs=1e-10)

    def test_shares_setup_with_example1(self):
        a, b = example1(), example2()
        assert a.params == b.params
        assert a.bc == b.bc
        assert a.d == b.d
        assert a.t_end == b.t_end
        assert a.output_times == b.output_times


class TestExample3:
    def test_parameters(self):
        scn = example3()
        assert scn.params.kappa == 0.005
        assert 2.0 * scn.params.alpha_g == 1.0
        assert scn.params.depth_h == 5.0
        assert scn.d == 0.01
        assert scn.t_end == 5.0

    def test_initial_condition(self):
        ic = example3().ic
        assert ic(-2.0) == 1.0
        assert ic(0.0) == 0.0
        assert ic(-4.0) == 0.0
        for z in (-1.5, -0.75, -0.2):
            assert float(ic(z)) == pytest.approx(-0.5 * z, abs=1e-12)
        assert float(ic(-2.005)) == pytest.approx(100.0 * -2.005 + 201.0, abs=1e-10)

    def test_dirichlet_boundaries(self):
        scn = example3()
        assert isinstance(scn.bc.top, Dirichlet)
        assert isinstance(scn.bc.bottom, Dirichlet)
        assert scn.bc.top.value_at(1.0) == 0.0
        assert scn.bc.bottom.value_at(1.0) == 0.0

    def test_arguments(self):
        scn = example3(kappa=0.0, s_bar=0.0)
        assert scn.params.kappa == 0.0
        assert scn.params.s_bar == 0.0
        assert example3().params.s_bar == pytest.approx(SANDY_LOAM_SBAR)
        assert example3().output_times == (0.5, 5.0)


def test_initial_masses_match_analytic_values():
    for scn, mass in ((example1(), 0.505), (example2(), 0.1485),
                      (example3(), 1.005)):
        g = scn.build_grid()
        state = scn.initial_state(g)
        assert np.all((state.s >= 0.0) & (state.s <= 1.0))
        assert g.dz * state.s.sum() == pytest.approx(mass, abs=1e-3)


class TestIcFromBreakpoints:
    def test_constant_pair(self):
        ic = ic_from_breakpoints([(-5.0, 0.3), (0.0, 0.3)])
        for z in (-6.0, -2.5, 0.0, 1.0):
            assert float(ic(z)) == 0.3

    def test_single_breakpoint_is_constant(self):
        ic = ic_from_breakpoints([(-1.0, 0.4)])
        for z in (-5.0, -1.0, 0.0):
            assert float(ic(z)) == 0.4

    def test_example1_breakpoints_reproduce_profile(self):
        ic = ic_from_breakpoints([(-0.51, 0.0), (-0.50, 1.0)])
        assert float(ic(-0.25)) == 1.0
        assert float(ic(-0.75)) == 0.0
        assert float(ic(-0.504)) == pytest.approx(100.0 * -0.504 + 51.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            ic_from_breakpoints([(-0.50, 1.0), (-0.51, 0.0)])
        with pytest.raises(ValueError):
            ic_from_breakpoints([(-0.50, 1.0), (-0.50, 0.0)])

    def test_out_of_range_saturation_rejected(self):
        with pytest.raises(ValueError):
            ic_from_breakpoints([(-1.0, 1.2)])
        with pytest.raises(ValueError):
            ic_from_breakpoints([(-1.0, -0.1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ic_from_breakpoints([])

    @pytest.mark.parametrize("points", [
        [(float("nan"), 0.1)],
        [(-1.0, 0.1), (float("nan"), 0.2)],
        [(float("-inf"), 0.1), (0.0, 0.2)],
        [(-1.0, 0.1), (float("inf"), 0.2)],
    ])
    def test_non_finite_depth_rejected(self, points):
        with pytest.raises(ValueError, match="not finite"):
            ic_from_breakpoints(points)


def test_scenario_rejects_breakpoints_outside_column():
    scn = example1()
    with pytest.raises(ValueError):
        Scenario(params=scn.params, d=0.01,
                 ic=ic_from_breakpoints([(-7.0, 0.0), (0.0, 1.0)]),
                 bc=scn.bc, t_end=1.0, output_times=(1.0,))


def test_by_name():
    assert by_name("example2") == example2()
    with pytest.raises(ValueError):
        by_name("example9")


def test_initial_state_matches_grid():
    scn = example1()
    g = scn.build_grid()
    state = scn.initial_state(g)
    assert state.time == 0.0
    assert state.s.shape == (g.n_cells,)
    assert np.all(np.isfinite(state.s))
