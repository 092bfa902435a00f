"""Vector and scalar potentials, their builders, and decay validation.

A potential pair carries the magnetic vector potential A, the electric
potential V, and a precomputed spectral divergence of A; a pair is real
by construction.  ``validate`` runs the decay diagnostics that back the
standing hypotheses: split Lebesgue norms, tail-norm decrease at
increasing radii, and pointwise power-law decay fits.  The half-derivative
Besov-type bound on A is reported as not checked (no honest discrete
surrogate at desk scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MagnlsError
from .grid import (
    ComplexField,
    GridSpec,
    VectorField,
    divergence,
    gradient,
    make_field,
    zero_vector_field,
)

_REALNESS_TOL = 1e-13
_SPLIT_LEVELS = 32        # thresholds tried by the split-norm minimization
DECAY_FLOOR = 1e-13       # magnitudes below this are left out of decay fits


def check_decay_hypotheses(decay_eps: float, lq_exponent: float) -> None:
    """The standing decay hypotheses on A and V: the L^q exponent exceeds 3
    and the pointwise decay margin eps is positive."""
    if lq_exponent <= 3.0:
        raise MagnlsError(f"lq_exponent must exceed 3, got {lq_exponent}")
    if decay_eps <= 0.0:
        raise MagnlsError(f"decay_eps must be positive, got {decay_eps}")


def _real_part(f: ComplexField, what: str) -> ComplexField:
    """The real part of f, which must be real up to ``_REALNESS_TOL``."""
    if np.max(np.abs(f.values.imag)) > _REALNESS_TOL:
        raise MagnlsError(f"{what} must be real")
    return make_field(f.grid, f.values.real)


@dataclass(frozen=True)
class PotentialPair:
    """Magnetic and electric potentials on a shared grid.

    A and V must be real up to ``_REALNESS_TOL``, and the pair keeps only
    their real parts, so no imaginary rounding noise reaches div A or H.
    ``div_a``, the spectral divergence of that real ``a``, is computed once
    here so operator applications do not recompute it.
    """

    a: VectorField
    v: ComplexField
    decay_eps: float = 1.0
    lq_exponent: float = 4.0
    div_a: ComplexField = field(init=False)

    def __post_init__(self):
        g = self.v.grid
        if self.a.grid != g:
            raise MagnlsError("potential components live on different grids")
        check_components(len(self.a.components), g.dim)
        check_decay_hypotheses(self.decay_eps, self.lq_exponent)
        object.__setattr__(self, "a", VectorField(tuple(
            _real_part(c, "vector potential") for c in self.a.components)))
        object.__setattr__(self, "v", _real_part(self.v, "electric potential"))
        object.__setattr__(self, "div_a", divergence(self.a))

    @property
    def grid(self) -> GridSpec:
        return self.v.grid


def check_components(count: int, dim: int, key: str = "vector potential") -> None:
    """A vector potential has one component per grid axis."""
    if count != dim:
        raise MagnlsError(f"{key} needs {dim} components, got {count}")


def make_potential_pair(a: VectorField, v: ComplexField, *,
                        decay_eps: float = 1.0,
                        lq_exponent: float = 4.0) -> PotentialPair:
    """Assemble a pair (``PotentialPair``)."""
    return PotentialPair(a=a, v=v, decay_eps=decay_eps,
                         lq_exponent=lq_exponent)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def check_width(width: float, key: str = "width") -> None:
    """A Gaussian profile, and a loop field's ring, need a positive width;
    ``key`` names the value in the message."""
    if width <= 0:
        raise MagnlsError(f"{key} must be positive, got {width}")


def gaussian_bump(grid: GridSpec, amplitude: float, width: float) -> ComplexField:
    """Real centred Gaussian profile amplitude * exp(-|x|^2 / width^2)."""
    check_width(width)
    r2 = sum(x * x for x in grid.coords)
    return make_field(grid, amplitude * np.exp(-r2 / width**2))


def check_well_width(box_lengths: tuple[float, ...], width: float) -> None:
    """A well's width is positive and leaves room for the tail
    diagnostics: at most a sixth of the shortest box edge."""
    check_width(width)
    if width > min(box_lengths) / 6.0:
        raise MagnlsError(f"width {width} too large for box {box_lengths} "
                          "(a well width must be <= min length / 6)")


def build_gaussian_well(grid: GridSpec, depth: float, width: float, *,
                        decay_eps: float = 1.0,
                        lq_exponent: float = 4.0) -> PotentialPair:
    """Purely electric Gaussian well V = depth * exp(-|x|^2/width^2), A = 0.

    ``depth`` should be negative for an attractive well, and the width
    must pass ``check_well_width``.
    """
    check_well_width(grid.box_lengths, width)
    v = gaussian_bump(grid, depth, width)
    return make_potential_pair(zero_vector_field(grid), v,
                               decay_eps=decay_eps, lq_exponent=lq_exponent)


def build_gauge_field(chi: ComplexField) -> VectorField:
    """Pure-gauge vector potential A = grad(chi), with the tiny spectral
    imaginary residue stripped so the components are exactly real."""
    g = gradient(_real_part(chi, "gauge function chi"))
    comps = tuple(make_field(chi.grid, c.values.real) for c in g.components)
    return VectorField(comps)


def check_loop_ring(radius: float, width: float, prefix: str = "") -> None:
    """A loop field's ring has a radius >= 0 and a positive width; the
    messages name them ``prefix`` + "radius" and ``prefix`` + "width"."""
    check_width(width, prefix + "width")
    if radius < 0:
        raise MagnlsError(f"{prefix}radius must be >= 0, got {radius}")


def check_loop_dim(dim: int, key: str = "loop field") -> None:
    """A loop field circles in the plane of the first two axes, so its grid
    has at least two; ``key`` names the field in the message."""
    if dim < 2:
        raise MagnlsError(f"{key} needs grid.dim >= 2, got {dim}")


def build_localized_loop_field(grid: GridSpec, amplitude: float,
                               radius: float, width: float) -> VectorField:
    """Divergence-free azimuthal ring field in 2 or 3 dimensions.

    A(x) = amplitude * g(|x|^2) * (-x_2, x_1, 0, ...) with a smooth radial
    ring profile g peaked at |x| = radius and radial thickness ~ width.
    Any radial profile makes this exactly divergence-free in the continuum;
    the spectral divergence of the sampled field stays at rounding level
    as long as the grid resolves the ring.
    """
    check_loop_dim(grid.dim)
    check_loop_ring(radius, width)
    r2 = sum(x * x for x in grid.coords)
    # near |x| = radius, r^2 - radius^2 ~ 2 radius (|x| - radius), so this
    # denominator gives the profile a radial scale of ~ width; the width^2
    # term keeps the radius -> 0 limit a smooth blob instead of a singularity
    scale = width * (2.0 * radius + width)
    profile = amplitude * np.exp(-(((r2 - radius**2) / scale) ** 2))
    comps = [make_field(grid, -grid.coords[1] * profile),
             make_field(grid, grid.coords[0] * profile)]
    for _ in range(grid.dim - 2):
        comps.append(make_field(grid, np.zeros(grid.sizes)))
    return VectorField(tuple(comps))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the decay diagnostics for one potential pair.

    ``statuses`` maps check names to pass/fail/warn/not_checked.  Fitted
    exponents are +inf when the field is below the numerical floor across
    the whole fit window (a vacuous pass).
    """

    statuses: dict[str, str]
    alpha_a: float
    alpha_v: float
    radii: tuple[float, ...]
    tail_a: tuple[float, ...]
    tail_v_minus: tuple[float, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(s in ("pass", "not_checked") for s in self.statuses.values())


def split_lebesgue_norm(values: np.ndarray, q: float,
                        volume_element: float) -> float:
    """Heuristic L^q + L^infty split norm.

    Minimizes ||f 1_{|f|>tau}||_q + tau over a 32-point logarithmic grid of
    thresholds tau.  Exact for our purposes: the diagnostics only compare
    these numbers against each other at different radii.
    """
    a = np.abs(values)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    taus = np.concatenate(([0.0], np.geomspace(peak * 1e-8, peak, _SPLIT_LEVELS)))
    best = np.inf
    for tau in taus:
        over = a[a > tau]
        lq = float((np.sum(over**q) * volume_element) ** (1.0 / q)) if over.size else 0.0
        best = min(best, lq + tau)
    return float(best)


def _power_law_exponent(radii: np.ndarray, magnitudes: np.ndarray) -> float:
    """Least-squares exponent alpha in |f| <= C <x>^-alpha; +inf if all below floor."""
    keep = magnitudes > DECAY_FLOOR
    if np.count_nonzero(keep) < 8:
        return np.inf
    lx = np.log(np.sqrt(1.0 + radii[keep] ** 2))
    ly = np.log(magnitudes[keep])
    slope, _ = np.polyfit(lx, ly, 1)
    return float(-slope)


def validate(p: PotentialPair) -> ValidationReport:
    g = p.grid
    statuses: dict[str, str] = {}
    notes: list[str] = []
    dv = g.volume_element
    r = g.radius
    l_min = min(g.box_lengths)

    # finite split norms back the self-adjointness hypotheses; realness is
    # the pair's own invariant (``PotentialPair``)
    a_mag = np.sqrt(sum(np.abs(c.values) ** 2 for c in p.a.components))
    split_a = split_lebesgue_norm(a_mag, p.lq_exponent, dv)
    split_div = split_lebesgue_norm(p.div_a.values, 2.0, dv)
    split_v = split_lebesgue_norm(p.v.values, 2.0, dv)
    finite = all(np.isfinite(x) for x in (split_a, split_div, split_v))
    statuses["split_norms_finite"] = "pass" if finite else "fail"

    # tail norms at three radii must not grow outward
    radii = (l_min / 8.0, l_min / 4.0, 3.0 * l_min / 8.0)
    v_minus = np.maximum(-p.v.values.real, 0.0)
    tail_a, tail_v = [], []
    for radius in radii:
        mask = r > radius
        tail_a.append(split_lebesgue_norm(np.where(mask, a_mag, 0.0),
                                          p.lq_exponent, dv))
        tail_v.append(split_lebesgue_norm(np.where(mask, v_minus, 0.0), 2.0, dv))

    def monotone(seq):
        eps = 1e-14 * (max(seq) + 1.0)
        return all(b <= a_ + eps for a_, b in zip(seq, seq[1:]))

    statuses["tail_decrease"] = "pass" if monotone(tail_a) and monotone(tail_v) else "fail"

    # pointwise decay fits over the outer half of the radius range
    window = (r >= 0.25 * l_min) & (r <= 0.49 * l_min)
    alpha_a = _power_law_exponent(r[window], a_mag[window])
    alpha_v = _power_law_exponent(r[window],
                                  np.sqrt(1.0 + r[window] ** 2)
                                  * np.abs(p.v.values[window]))
    threshold = 1.0 + p.decay_eps - 0.1
    statuses["pointwise_decay_a"] = "pass" if alpha_a >= threshold else "fail"
    statuses["pointwise_decay_v"] = "pass" if alpha_v >= threshold else "fail"
    if np.isinf(alpha_a):
        notes.append("A below floor across the fit window; decay fit vacuous")
    if np.isinf(alpha_v):
        notes.append("V below floor across the fit window; decay fit vacuous")

    statuses["half_derivative_a"] = "not_checked"
    notes.append("half-derivative integrability of A not checked")
    statuses["spectral_condition"] = "not_checked"
    notes.append("eigenvalue count and edge-resonance absence are checked by "
                 "the spectrum module, not here")

    return ValidationReport(
        statuses=statuses,
        alpha_a=alpha_a,
        alpha_v=alpha_v,
        radii=radii,
        tail_a=tuple(tail_a),
        tail_v_minus=tuple(tail_v),
        notes=tuple(notes),
    )
