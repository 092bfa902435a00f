"""Discrete function-space norms used by the estimate checks.

All physical-side norms are volume-weighted Riemann sums.  The gradient
enters through its pointwise Euclidean magnitude.  Weighted norms use the
Japanese bracket <x> = sqrt(1 + |x|^2) with the weight applied outside the
derivative: the weighted H1 norm pairs <x>^-sigma with f and with grad f,
never with grad(<x>^-sigma f).

The first-order norms of several fields are taken together from a stack:
the fields on a leading axis, the grid axes last, so each row is
contiguous.  ``first_order_parts`` takes the stack's gradient from the
stacked spectral calculus of ``grid`` and every first-order norm reads its
|f| and |grad f|; each row's transforms and sums are those of the field
alone, bit for bit, and the single-field norms are the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, MagnlsError
from .grid import (ComplexField, GridSpec, fftn, stack_fft, stack_gradient,
                   stack_laplacian)


# the weight exponent of the dispersive estimates, unless a run sets its own
DEFAULT_SIGMA = 4.1


def check_sigma(sigma: float) -> None:
    """The weight hypothesis of the dispersive estimates: <x>^-sigma with
    sigma > 4."""
    if sigma <= 4.0:
        raise MagnlsError(f"sigma must exceed 4, got {sigma}")


def bracket_weight(grid: GridSpec, sigma: float) -> np.ndarray:
    """<x>^-sigma sampled on the grid."""
    return (1.0 + grid.radius**2) ** (-0.5 * sigma)


def _lp_rows(mags: np.ndarray, p: float, volume_element: float) -> list[float]:
    """The L^p norm of each row of a stack of magnitudes.  The 1/p root is
    taken on each row's scalar sum: an array power may differ from the
    scalar one in the last bit."""
    axes = tuple(range(1, mags.ndim))
    if math.isinf(p):
        return [float(m) for m in mags.max(axis=axes)]
    if p < 1:
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    return [float((s * volume_element) ** (1.0 / p))
            for s in np.sum(mags**p, axis=axes)]


def _grad_rows(grid: GridSpec, fhat: np.ndarray) -> np.ndarray:
    """|grad f| of each row from the stack's forward transform."""
    return np.sqrt(sum(np.abs(c) ** 2 for c in stack_gradient(grid, fhat)))


@dataclass(frozen=True)
class FirstOrderParts:
    """|f| and |grad f| of each field of a stack, rows on the leading axis."""

    grid: GridSpec
    mag: np.ndarray
    grad: np.ndarray

    def w1p(self, p: float) -> list[float]:
        """``norm_w1p`` of each row."""
        dv = self.grid.volume_element
        out = []
        for fp, gp in zip(_lp_rows(self.mag, p, dv), _lp_rows(self.grad, p, dv)):
            out.append(max(fp, gp) if math.isinf(p)
                       else float((fp**p + gp**p) ** (1.0 / p)))
        return out

    def weighted_h1(self, sigma: float) -> list[float]:
        """``norm_weighted_h1`` of each row."""
        w = bracket_weight(self.grid, sigma)
        dv = self.grid.volume_element
        axes = tuple(range(1, self.grid.dim + 1))
        sums_f = np.sum((w * self.mag) ** 2, axis=axes)
        sums_g = np.sum((w * self.grad) ** 2, axis=axes)
        return [float(np.sqrt(sf * dv)) + float(np.sqrt(sg * dv))
                for sf, sg in zip(sums_f, sums_g)]


def first_order_parts(grid: GridSpec, stack: np.ndarray) -> FirstOrderParts:
    """|f| and |grad f| of a stack of shape (K,) + grid.sizes, from one
    forward transform of the whole stack and one inverse per axis."""
    arr = np.ascontiguousarray(stack, dtype=np.complex128)
    if arr.shape[1:] != grid.sizes:
        raise GridMismatchError(
            f"stack shape {arr.shape} is not (K,) + grid sizes {grid.sizes}")
    if not np.isfinite(arr).all():
        raise MagnlsError("field contains non-finite samples")
    return FirstOrderParts(grid, np.abs(arr),
                           _grad_rows(grid, stack_fft(grid, arr)))


def field_parts(f: ComplexField) -> FirstOrderParts:
    """``first_order_parts`` of f alone, a one-row stack."""
    return first_order_parts(f.grid, f.values[None])


def norm_lp(f: ComplexField, p: float) -> float:
    return _lp_rows(np.abs(f.values)[None], p, f.grid.volume_element)[0]


def grad_magnitude(f: ComplexField) -> np.ndarray:
    return field_parts(f).grad[0]


def norm_w1p(f: ComplexField, p: float) -> float:
    """First-order Sobolev norm: the l^p combination of ||f||_p and ||grad f||_p.

    For p = 2 this is the usual sqrt(||f||^2 + ||grad f||^2).
    """
    return field_parts(f).w1p(p)[0]


def norm_h1(f: ComplexField) -> float:
    return norm_w1p(f, 2.0)


def norm_weighted_h1(f: ComplexField, sigma: float) -> float:
    """|| <x>^-sigma f ||_2 + || <x>^-sigma grad f ||_2."""
    return field_parts(f).weighted_h1(sigma)[0]


def norm_weighted_l2(f: ComplexField, sigma: float) -> float:
    w = bracket_weight(f.grid, sigma)
    return float(np.sqrt(np.sum((w * np.abs(f.values)) ** 2) * f.grid.volume_element))


def norm_h2(f: ComplexField) -> float:
    """Second-order Sobolev norm, computed spectrally as ||(1+|k|^2) fhat||_2."""
    g = f.grid
    fhat = fftn(f.values)
    weighted = (1.0 + g.k_squared) * fhat
    # Parseval: ||f||_2 = ||fftn(f)|| * sqrt(volume) / N_total
    return float(np.linalg.norm(weighted.ravel()) * np.sqrt(g.volume) / g.total_points)


def norm_w2p_sums(f: ComplexField, ps) -> list[float]:
    """``norm_w2p_sum(f, p)`` for each p in ``ps``; grad f and lap f come
    from one forward transform of f."""
    g = f.grid
    fhat = stack_fft(g, f.values[None])
    rows = np.concatenate((np.abs(f.values)[None], _grad_rows(g, fhat),
                           np.abs(stack_laplacian(g, fhat))))
    return [sum(_lp_rows(rows, p, g.volume_element)) for p in ps]


def norm_w2p_sum(f: ComplexField, p: float) -> float:
    """||f||_p + ||grad f||_p + ||lap f||_p, the plain-sum second-order norm."""
    return norm_w2p_sums(f, (p,))[0]
