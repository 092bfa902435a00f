"""Discrete function-space norms used by the estimate checks.

All physical-side norms are volume-weighted Riemann sums.  The gradient
enters through its pointwise Euclidean magnitude.  Weighted norms use the
Japanese bracket <x> = sqrt(1 + |x|^2) with the weight applied outside the
derivative: the weighted H1 norm pairs <x>^-sigma with f and with grad f,
never with grad(<x>^-sigma f).
"""

from __future__ import annotations

import numpy as np

from .errors import MagnlsError
from .grid import ComplexField, GridSpec, gradient, laplacian


def check_sigma(sigma: float) -> None:
    """The weight hypothesis of the dispersive estimates: <x>^-sigma with
    sigma > 4."""
    if sigma <= 4.0:
        raise MagnlsError(f"sigma must exceed 4, got {sigma}")


def bracket_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """<x>^-sigma sampled on the grid."""
    return (1.0 + grid.radius**2) ** (-0.5 * sigma)


def _lp_of_values(values: np.ndarray, p: float, volume_element: float) -> float:
    a = np.abs(values)
    if np.isinf(p):
        return float(a.max())
    if p < 1:
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    return float((np.sum(a**p) * volume_element) ** (1.0 / p))


def norm_lp(f: ComplexField, p: float) -> float:
    return _lp_of_values(f.values, p, f.grid.volume_element)


def grad_magnitude(f: ComplexField) -> np.ndarray:
    g = gradient(f)
    return np.sqrt(sum(np.abs(c.values) ** 2 for c in g.components))


def norm_w1p(f: ComplexField, p: float) -> float:
    """First-order Sobolev norm: the l^p combination of ||f||_p and ||grad f||_p.

    For p = 2 this is the usual sqrt(||f||^2 + ||grad f||^2).
    """
    fp = norm_lp(f, p)
    gp = _lp_of_values(grad_magnitude(f), p, f.grid.volume_element)
    if np.isinf(p):
        return max(fp, gp)
    return float((fp**p + gp**p) ** (1.0 / p))


def norm_h1(f: ComplexField) -> float:
    return norm_w1p(f, 2.0)


def norm_weighted_h1(f: ComplexField, sigma: float) -> float:
    """|| <x>^-sigma f ||_2 + || <x>^-sigma grad f ||_2."""
    w = bracket_weight(f.grid, sigma)
    dv = f.grid.volume_element
    part_f = float(np.sqrt(np.sum((w * np.abs(f.values)) ** 2) * dv))
    part_g = float(np.sqrt(np.sum((w * grad_magnitude(f)) ** 2) * dv))
    return part_f + part_g


def norm_weighted_l2(f: ComplexField, sigma: float) -> float:
    w = bracket_weight(f.grid, sigma)
    return float(np.sqrt(np.sum((w * np.abs(f.values)) ** 2) * f.grid.volume_element))


def norm_h2(f: ComplexField) -> float:
    """Second-order Sobolev norm, computed spectrally as ||(1+|k|^2) fhat||_2."""
    g = f.grid
    fhat = np.fft.fftn(f.values)
    weighted = (1.0 + g.k_squared) * fhat
    # Parseval: ||f||_2 = ||fftn(f)|| * sqrt(volume) / N_total
    return float(np.linalg.norm(weighted.ravel()) * np.sqrt(g.volume) / g.total_points)


def norm_w2p_sum(f: ComplexField, p: float) -> float:
    """||f||_p + ||grad f||_p + ||lap f||_p, the plain-sum second-order norm."""
    dv = f.grid.volume_element
    return (
        norm_lp(f, p)
        + _lp_of_values(grad_magnitude(f), p, dv)
        + _lp_of_values(laplacian(f).values, p, dv)
    )
