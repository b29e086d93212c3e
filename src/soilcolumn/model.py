"""Physical parameters and pointwise constitutive relations.

The column model balances capillary diffusion against gravitational
transport, with transport switched off below a residual saturation:

    s_t = d/dz [ kappa * s_z + alpha_g * ((s - s_bar)+)^2 ]

on the vertical domain z in (-depth_h, 0), z increasing upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Parameters:
    """Constants of the saturation equation.

    kappa
        Capillary diffusion coefficient, finite and >= 0. It enters the
        flux law as given: the slope of a linear capillary pressure law
        is folded into it, so the model needs no pressure variable.
    alpha_g
        Product of the solid-liquid friction time constant and gravity.
        Only the combination 2*alpha_g enters the model, so the factors
        are stored as a single number, finite and >= 0.
    s_bar
        Residual saturation below which gravitational transport is
        inactive, in [0, 1).
    depth_h
        Column depth, finite and > 0; the domain is (-depth_h, 0).
    """

    kappa: float
    alpha_g: float
    s_bar: float
    depth_h: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0.0 <= self.alpha_g < math.inf:
            raise ValueError(f"alpha_g must be finite and >= 0, got {self.alpha_g}")
        if not 0.0 <= self.s_bar < 1.0:
            raise ValueError(f"s_bar must be in [0, 1), got {self.s_bar}")
        if not 0.0 < self.depth_h < math.inf:
            raise ValueError(f"depth_h must be finite and > 0, got {self.depth_h}")


def gravity_flux(s, p: Parameters):
    """Gravitational part of the flux, alpha_g * ((s - s_bar)+)^2.

    Vanishes at and below the residual saturation and is C1 in s.
    """
    r = np.maximum(s - p.s_bar, 0.0)
    return p.alpha_g * r * r


def gravity_flux_derivative(s, p: Parameters):
    """Derivative of gravity_flux, 2 * alpha_g * (s - s_bar)+.

    Continuous across s = s_bar, where both one-sided derivatives are zero.
    """
    return 2.0 * p.alpha_g * np.maximum(s - p.s_bar, 0.0)
