from fractions import Fraction

import numpy as np
import pytest

from soilcolumn.discretization import (
    BOTTOM, MAX_CELLS, TOP, BoundarySpec, Dirichlet, Flux, Robin, State,
    build_grid, face_fluxes, jacobian, no_flux, rhs)
from soilcolumn.model import Parameters

SANDY = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303)


class TestBuildGrid:
    def test_paper_resolution(self):
        g = build_grid(5.0, 0.01)
        assert g.n_cells == 500
        assert g.dz == pytest.approx(0.01, rel=1e-15)
        assert g.centers[0] == pytest.approx(-5.0 + 0.005, rel=1e-15)
        assert g.centers[-1] == pytest.approx(-0.005, abs=1e-15)

    def test_single_cell(self):
        g = build_grid(1.0, 1.0)
        assert g.n_cells == 1
        assert g.dz == 1.0
        assert g.centers[0] == -0.5

    def test_non_dividing_width_rounds(self):
        g = build_grid(5.0, 0.003)
        assert g.n_cells == 1667
        assert g.dz == pytest.approx(5.0 / 1667, rel=1e-15)

    def test_exact_partition(self):
        for h, d in ((5.0, 0.01), (2.5, 0.007), (1.0, 0.3)):
            g = build_grid(h, d)
            assert abs(g.n_cells * g.dz - h) < 1e-12
            assert np.all(np.diff(g.centers) > 0)

    @pytest.mark.parametrize("h,d", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0),
                                     (1.0, -0.1), (1.0, 2.0)])
    def test_invalid_arguments(self, h, d):
        with pytest.raises(ValueError):
            build_grid(h, d)

    def test_cell_count_capped(self):
        assert build_grid(1.0, 1.0 / MAX_CELLS).n_cells == MAX_CELLS
        for d in (1.0 / (MAX_CELLS + 1), 1e-9, 1e-15, 5e-324):
            with pytest.raises(ValueError, match="at most"):
                build_grid(1.0, d)


def interior_face_flux(s_lower, s_upper, dz, p):
    """Flux through the face between the two cells of a two-cell column."""
    state = State(0.0, np.array([s_lower, s_upper]))
    return face_fluxes(state, build_grid(2.0 * dz, dz), p, no_flux())[1]


def ghost_value(dirichlet_value, boundary_cell_s):
    """The ghost cell a Dirichlet top face sees: under pure unit
    diffusion across a unit cell its face flux is ghost - cell."""
    p = Parameters(kappa=1.0, alpha_g=0.0, s_bar=0.0)
    flux, _ = Dirichlet(dirichlet_value).flux_and_slope(
        TOP, boundary_cell_s, 0.0, 1.0, p)
    return boundary_cell_s + flux


class TestFaceFlux:
    def test_uniform_below_threshold_is_zero(self):
        for c in (0.0, 0.1, 0.2303):
            assert interior_face_flux(c, c, 0.01, SANDY) == 0.0

    def test_diffusion_plus_gravity(self):
        # 0.005*(0.4-0.2)/0.01 + 0.5*(0.4-0.2303)^2, exact in rationals
        exact = Fraction(5, 1000) * Fraction(2, 10) / Fraction(1, 100) \
            + Fraction(1, 2) * (Fraction(4, 10) - Fraction(2303, 10000)) ** 2
        got = interior_face_flux(0.2, 0.4, 0.01, SANDY)
        assert got == pytest.approx(float(exact), rel=1e-12)
        assert got == pytest.approx(0.11440, abs=5e-6)

    def test_upwind_selects_upper_cell(self):
        p = Parameters(kappa=0.0, alpha_g=0.5, s_bar=0.2303)
        assert interior_face_flux(0.4, 0.2, 0.01, p) == 0.0
        # reversed orientation transports: upper cell is wet
        assert interior_face_flux(0.2, 0.4, 0.01, p) > 0.0


class TestGhostValue:
    def test_values(self):
        assert ghost_value(0.0, 0.4) == -0.4
        assert ghost_value(0.3, 0.3) == 0.3
        assert ghost_value(0.2, 0.6) == pytest.approx(-0.2, rel=1e-15)

    def test_face_average_recovers_boundary_value(self):
        for value, cell in ((0.0, 0.7), (0.25, 0.1), (1.0, 0.3)):
            assert 0.5 * (ghost_value(value, cell) + cell) == pytest.approx(value)


class TestBoundaryFlux:
    def test_zero_flux_at_all_times(self):
        spec = Flux(0.0)
        for t in (0.0, 1.0, 1e3):
            assert spec.flux_and_slope(TOP, 0.9, t, 0.01, SANDY) == (0.0, 0.0)
            assert spec.flux_and_slope(BOTTOM, 0.9, t, 0.01, SANDY) == (0.0, 0.0)

    def test_time_dependent_flux(self):
        spec = Flux(lambda t: 0.1 * t)
        flux, _ = spec.flux_and_slope(TOP, 0.5, 2.0, 0.01, SANDY)
        assert flux == pytest.approx(0.2)

    def test_robin_equilibrium(self):
        assert Robin(1.0, 0.5).flux_and_slope(TOP, 0.5, 0.0, 0.01, SANDY)[0] == 0.0

    def test_robin_bottom(self):
        flux, slope = Robin(2.0, 0.1).flux_and_slope(BOTTOM, 0.4, 0.0, 0.01, SANDY)
        assert flux == pytest.approx(0.6, rel=1e-12)
        assert slope == 2.0

    def test_robin_top_sign(self):
        # wetter inside than outside leaks out of the top
        flux, slope = Robin(2.0, 0.1).flux_and_slope(TOP, 0.4, 0.0, 0.01, SANDY)
        assert flux < 0.0
        assert slope == -2.0

    @pytest.mark.parametrize("beta,s_out", [(0.0, 0.5), (-1.0, 0.5),
                                            (1.0, -0.1), (1.0, 1.1),
                                            (float("inf"), 0.5)])
    def test_robin_validation(self, beta, s_out):
        with pytest.raises(ValueError):
            Robin(beta, s_out)

    @pytest.mark.parametrize("cls", [Dirichlet, Flux])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_constant_value_must_be_finite(self, cls, value):
        with pytest.raises(ValueError):
            cls(value)
        cls(lambda t: value)  # a time function is evaluated only when used


class TestRhs:
    def test_uniform_subthreshold_no_flux_is_exactly_zero(self):
        g = build_grid(5.0, 0.01)
        state = State(0.0, np.full(g.n_cells, 0.2))
        assert not rhs(state, g, SANDY, no_flux()).any()

    def test_uniform_matching_robin_is_exactly_zero(self):
        g = build_grid(5.0, 0.01)
        c = 0.2
        bc = BoundarySpec(top=Robin(1.0, c), bottom=Robin(2.0, c))
        state = State(0.0, np.full(g.n_cells, c))
        assert not rhs(state, g, SANDY, bc).any()

    def test_three_cell_hand_computed_fluxes(self):
        # h=0.03, 3 cells of dz=0.01, state (0, 0.5, 1), sealed ends.
        # Hand arithmetic: F between cells 0,1 = 0.005*0.5/0.01 + 0.5*0.2697^2
        # = 0.25 + 0.036369045; F between 1,2 = 0.25 + 0.5*0.7697^2
        # = 0.25 + 0.296219045; boundary faces 0.
        p = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303, depth_h=0.03)
        g = build_grid(0.03, 0.01)
        state = State(0.0, np.array([0.0, 0.5, 1.0]))
        f_low, f_high = 0.286369045, 0.546219045
        expected = np.array([f_low / 0.01, (f_high - f_low) / 0.01, -f_high / 0.01])
        np.testing.assert_allclose(rhs(state, g, p, no_flux()), expected, rtol=1e-10)

    def test_telescoping_no_flux(self):
        rng = np.random.default_rng(1)
        g = build_grid(5.0, 0.01)
        for _ in range(100):
            state = State(0.0, rng.uniform(0.0, 1.2, g.n_cells))
            total = g.dz * float(np.sum(rhs(state, g, SANDY, no_flux())))
            assert abs(total) <= 1e-13

    def test_telescoping_matches_boundary_fluxes(self):
        rng = np.random.default_rng(2)
        g = build_grid(5.0, 0.01)
        bcs = [
            BoundarySpec(top=Robin(1.5, 0.2), bottom=Dirichlet(0.1)),
            BoundarySpec(top=Dirichlet(0.3), bottom=Flux(0.01)),
            BoundarySpec(top=Flux(lambda t: 0.2), bottom=Robin(0.5, 0.0)),
        ]
        for bc in bcs:
            for _ in range(30):
                state = State(0.7, rng.uniform(0.0, 1.2, g.n_cells))
                flux = face_fluxes(state, g, SANDY, bc)
                total = g.dz * float(np.sum(rhs(state, g, SANDY, bc)))
                assert abs(total - (flux[-1] - flux[0])) <= 1e-13


def dense_fd_jacobian(state, grid, p, bc, h=1e-7):
    """Column-wise central-difference Jacobian, the brute-force oracle."""
    n = grid.n_cells
    out = np.empty((n, n))
    for j in range(n):
        up, down = state.s.copy(), state.s.copy()
        up[j] += h
        down[j] -= h
        out[:, j] = (rhs(State(state.time, up), grid, p, bc)
                     - rhs(State(state.time, down), grid, p, bc)) / (2.0 * h)
    return out


class TestJacobian:
    def test_no_physics_no_coupling(self):
        p = Parameters(kappa=0.0, alpha_g=0.0, s_bar=0.2)
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.linspace(0.0, 1.0, g.n_cells))
        jac = jacobian(state, g, p, no_flux())
        assert not jac.to_dense().any()

    def test_pure_diffusion_stencil(self):
        g = build_grid(1.0, 0.1)
        state = State(0.0, np.full(g.n_cells, 0.1))
        jac = jacobian(state, g, SANDY, no_flux())
        k = SANDY.kappa / g.dz ** 2
        np.testing.assert_allclose(jac.lower, k, rtol=1e-14)
        np.testing.assert_allclose(jac.upper, k, rtol=1e-14)
        np.testing.assert_allclose(jac.diag[1:-1], -2.0 * k, rtol=1e-14)
        # sealed ends lose one coupling
        assert jac.diag[0] == pytest.approx(-k, rel=1e-14)
        assert jac.diag[-1] == pytest.approx(-k, rel=1e-14)

    @pytest.mark.parametrize("bc", [
        no_flux(),
        BoundarySpec(top=Dirichlet(0.0), bottom=Dirichlet(0.0)),
        BoundarySpec(top=Robin(1.5, 0.2), bottom=Flux(0.02)),
        BoundarySpec(top=Flux(0.0), bottom=Dirichlet(0.4)),
        BoundarySpec(top=Dirichlet(0.9), bottom=Robin(0.7, 0.3)),
        BoundarySpec(top=Dirichlet(lambda t: 0.5 + 2.0 * t),
                     bottom=Flux(lambda t: 0.01 * t)),
    ])
    def test_matches_finite_differences(self, bc):
        rng = np.random.default_rng(5)
        g = build_grid(1.0, 0.05)
        for _ in range(25):
            state = State(0.1, rng.uniform(0.0, 1.2, g.n_cells))
            jac = jacobian(state, g, SANDY, bc).to_dense()
            fd = dense_fd_jacobian(state, g, SANDY, bc)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(jac - fd)) / scale <= 1e-5

    def test_transport_coupling_is_monotone(self):
        # upwinding: a wetter upper neighbour never slows the inflow
        rng = np.random.default_rng(6)
        p = Parameters(kappa=0.0, alpha_g=0.5, s_bar=0.2303)
        g = build_grid(5.0, 0.01)
        for _ in range(20):
            state = State(0.0, rng.uniform(0.0, 1.2, g.n_cells))
            jac = jacobian(state, g, p, no_flux())
            assert np.all(jac.upper >= 0.0)
            assert np.all(jac.lower >= 0.0)
            assert np.all(jac.diag <= 0.0)

    def test_single_cell_grid(self):
        g = build_grid(1.0, 1.0)
        bc = BoundarySpec(top=Dirichlet(0.2), bottom=Robin(1.0, 0.1))
        state = State(0.0, np.array([0.6]))
        jac = jacobian(state, g, SANDY, bc).to_dense()
        fd = dense_fd_jacobian(state, g, SANDY, bc)
        np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-7)


def test_grid_state_shape_mismatch():
    g = build_grid(1.0, 0.1)
    state = State(0.0, np.zeros(3))
    with pytest.raises((ValueError, IndexError)):
        rhs(state, g, SANDY, no_flux())
