"""Exact solutions that the tests check the solver against, each valid
only where its docstring says."""

from typing import Callable

import numpy as np

from soilcolumn.discretization import Grid
from soilcolumn.model import Parameters


class OracleInvalidError(RuntimeError):
    """The characteristic relation has multiple roots (post-shock)."""


def characteristics_oracle(ic: Callable[[float], float], z: float, t: float,
                           p: Parameters) -> float:
    """Exact pre-shock solution of the pure-transport limit.

    Valid for kappa = 0 and s_bar = 0: characteristics of
    s_t - 2*alpha_g*s*s_z = 0 move with dz/dt = -2*alpha_g*s, so the
    saturation solves s = ic(z + 2*alpha_g*s*t). The root is bracketed
    by a sign scan over s in [0, 1.2] in steps of 0.001 and then
    bisected to 1e-10; more than one bracket means the characteristics
    have crossed and the oracle raises OracleInvalidError. ic must
    evaluate elementwise on arrays (np.interp-style callables and
    PiecewiseLinearIC do).
    """
    if p.kappa != 0.0:
        raise ValueError("oracle requires kappa = 0")
    if p.s_bar != 0.0:
        raise ValueError("oracle requires s_bar = 0")

    def mismatch(s: float) -> float:
        return s - float(ic(z + 2.0 * p.alpha_g * s * t))

    grid_s = np.linspace(0.0, 1.2, 1201)
    values = grid_s - np.asarray(ic(z + 2.0 * p.alpha_g * grid_s * t), dtype=float)
    exact = np.nonzero(values == 0.0)[0]
    sign_change = np.nonzero(values[:-1] * values[1:] < 0.0)[0]
    n_roots = exact.size + sign_change.size
    if n_roots > 1:
        raise OracleInvalidError(
            f"{n_roots} candidate roots at z={z}, t={t}; past shock formation")
    if exact.size == 1:
        return float(grid_s[exact[0]])
    if sign_change.size == 0:
        raise OracleInvalidError(f"no root in [0, 1.2] at z={z}, t={t}")
    lo = float(grid_s[sign_change[0]])
    hi = float(grid_s[sign_change[0] + 1])
    f_lo = mismatch(lo)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        f_mid = mismatch(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sealed_steady_state(mean: float, grid: Grid, p: Parameters) -> np.ndarray:
    """Exact cell averages on grid of the steady state of a sealed column
    whose mean saturation is mean > s_bar.

    Zero flux everywhere with s > s_bar means
    kappa*s_z + alpha_g*(s - s_bar)^2 = 0, so s = s_bar + c/(z + L) with
    c = kappa/alpha_g. The column mass fixes L > h:
    c*ln(L/(L - h)) = (mean - s_bar)*h, whose root is
    L = h/(1 - exp(-(mean - s_bar)*h/c)). A cell's average is
    s_bar + c*ln((z_top + L)/(z_bottom + L))/dz.
    """
    if not mean > p.s_bar:
        raise ValueError("oracle requires mean > s_bar")
    if p.kappa <= 0.0 or p.alpha_g <= 0.0:
        raise ValueError("oracle requires kappa > 0 and alpha_g > 0")
    c = p.kappa / p.alpha_g
    h = p.depth_h
    length = h / -np.expm1(-(mean - p.s_bar) * h / c)
    z_faces = -h + grid.dz * np.arange(grid.n_cells + 1)
    return p.s_bar + c * np.diff(np.log(z_faces + length)) / grid.dz
