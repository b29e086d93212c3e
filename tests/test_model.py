from fractions import Fraction

import numpy as np
import pytest

from soilcolumn.model import Parameters, gravity_flux, gravity_flux_derivative

SANDY = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.2303)


@pytest.mark.parametrize("kwargs", [
    dict(kappa=-1e-9, alpha_g=0.5, s_bar=0.2),
    dict(kappa=0.005, alpha_g=-0.1, s_bar=0.2),
    dict(kappa=0.005, alpha_g=0.5, s_bar=-0.01),
    dict(kappa=0.005, alpha_g=0.5, s_bar=1.0),
    dict(kappa=0.005, alpha_g=0.5, s_bar=0.2, depth_h=0.0),
    dict(kappa=float("inf"), alpha_g=0.5, s_bar=0.2),
    dict(kappa=float("nan"), alpha_g=0.5, s_bar=0.2),
    dict(kappa=0.005, alpha_g=float("inf"), s_bar=0.2),
    dict(kappa=0.005, alpha_g=0.5, s_bar=0.2, depth_h=float("inf")),
])
def test_parameters_validation(kwargs):
    with pytest.raises(ValueError):
        Parameters(**kwargs)


def test_parameters_boundary_values_allowed():
    Parameters(kappa=0.0, alpha_g=0.0, s_bar=0.0)


def test_gravity_flux_below_threshold_is_zero():
    assert gravity_flux(0.2, SANDY) == 0.0
    for s in np.linspace(-0.2, SANDY.s_bar, 57):
        assert gravity_flux(s, SANDY) == 0.0


def test_gravity_flux_values():
    # 0.5 * (1 - 0.2303)^2 in exact rational arithmetic
    exact = Fraction(1, 2) * (1 - Fraction(2303, 10000)) ** 2
    assert gravity_flux(1.0, SANDY) == pytest.approx(float(exact), rel=1e-12)
    assert float(exact) == pytest.approx(0.29622, abs=5e-6)
    p0 = Parameters(kappa=0.005, alpha_g=0.5, s_bar=0.0)
    assert gravity_flux(0.5, p0) == pytest.approx(0.125, rel=1e-15)


def test_gravity_flux_derivative_values():
    assert gravity_flux_derivative(0.2, SANDY) == 0.0
    assert gravity_flux_derivative(1.0, SANDY) == pytest.approx(0.7697, rel=1e-12)
    assert gravity_flux_derivative(SANDY.s_bar, SANDY) == 0.0


def test_gravity_flux_derivative_matches_finite_difference():
    rng = np.random.default_rng(0)
    h = 1e-6
    for s in rng.uniform(0.0, 1.2, 100):
        fd = (gravity_flux(s + h, SANDY) - gravity_flux(s - h, SANDY)) / (2 * h)
        assert abs(gravity_flux_derivative(s, SANDY) - fd) < 1e-6


def test_gravity_flux_monotone_nondecreasing():
    s = np.linspace(-0.5, 1.5, 2001)
    assert np.all(np.diff(gravity_flux(s, SANDY)) >= 0.0)


def test_gravity_flux_continuous_at_threshold():
    eps = 1e-9
    below, above = SANDY.s_bar - eps, SANDY.s_bar + eps
    assert abs(gravity_flux(above, SANDY) - gravity_flux(below, SANDY)) < 1e-8
    assert abs(gravity_flux_derivative(above, SANDY)
               - gravity_flux_derivative(below, SANDY)) < 1e-8

