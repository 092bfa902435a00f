"""Periodic-box discretization: grid geometry, complex fields, spectral calculus.

Everything downstream (operators, solvers, diagnostics) is built on the three
types defined here.  Conventions, fixed once:

* the box is centered, axis i samples x = -L_i/2 + j*h_i with h_i = L_i/n_i;
* the wavenumber lattice per axis is (2*pi/L_i) * {-n_i/2, ..., n_i/2 - 1},
  stored in FFT order (non-negative modes first);
* ``dft`` approximates the continuum Fourier integral: it is the plain FFT
  scaled by the volume element, so a constant c maps to a single zero-mode
  bin of weight c * volume;
* all physical-side norms and inner products carry the volume element, and
  the frequency-side L2 norm carries 1/volume, which makes the two sides
  agree exactly (discrete Parseval).

Every discrete Fourier transform of the package is ``fftn`` or ``ifftn``
here.  The library follows from the number of transform axes alone:

* one axis (every 1D field and 1D stack, and each derivative of
  ``divergence``) runs ``numpy.fft``, so 1D results stay what numpy gives
  and no 1D run loads ``scipy.fft``, whose import (mostly ``scipy.special``)
  costs about 70 ms and 4.9 MiB;
* two or more axes run ``scipy.fft``, imported on the first such call,
  which transforms every axis in one C++ call where ``numpy.fft.fftn``
  takes one axis at a time from Python and copies the data for each.

Building the potentials takes only one-axis transforms, so a 2D or 3D run
pays the import in its first solve, not in set-up.  No ``workers``
argument is passed: on two cores two workers ran 2x slower.

Each grid caches one symbol stack, ``GridSpec.symbols`` = S = [1, i k_1,
..., i k_d], the multipliers of the identity and of each derivative, on
the first operator call that needs it.  Every spectral derivative the
operators take is rows of S times a stack (``stack_symbols``) under one
batched inverse transform: the gradient (S without its first row), H (its
first row replaced by |k|^2) and the Krylov sweep (S times one field,
``hamiltonian.ShiftKernel``), so no call rebuilds i k_j.  Only
``divergence``, which builds the potentials, takes its one-axis
derivatives from the wavenumbers, so set-up caches no S.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, MagnlsError

SNAPSHOT_MAGIC = b"MNLSFLD1"
DIMENSIONS = (1, 2, 3)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on a centered periodic box in 1, 2, or 3 dimensions."""

    dim: int
    sizes: tuple[int, ...]
    box_lengths: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in DIMENSIONS:
            raise MagnlsError(f"dim must be 1, 2, or 3, got {self.dim}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "box_lengths", tuple(float(x) for x in self.box_lengths))
        for name, axes in (("sizes", self.sizes), ("lengths", self.box_lengths)):
            if len(axes) != self.dim:
                raise MagnlsError(f"{name} needs one entry per axis "
                                  f"({self.dim}), got {len(axes)}")
        for n in self.sizes:
            if n < 8 or not _is_power_of_two(n):
                raise MagnlsError(
                    f"sizes entries must be powers of two >= 8, got {n}")
        for length in self.box_lengths:
            if not (length > 0.0) or not np.isfinite(length):
                raise MagnlsError(
                    f"lengths entries must be positive and finite, got {length}")

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.box_lengths, self.sizes))

    @cached_property
    def volume_element(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.box_lengths))

    @property
    def total_points(self) -> int:
        return int(np.prod(self.sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        h = self.spacings[axis]
        return -0.5 * self.box_lengths[axis] + h * np.arange(n)

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshed coordinate arrays, one per axis, each of shape ``sizes``."""
        axes = [self.axis_coords(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def radius(self) -> np.ndarray:
        return np.sqrt(sum(x * x for x in self.coords))

    def axis_wavenumbers(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.sizes[axis], d=self.spacings[axis])

    @cached_property
    def k_mesh(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_wavenumbers(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def k_squared(self) -> np.ndarray:
        return sum(k * k for k in self.k_mesh)

    @cached_property
    def symbols(self) -> np.ndarray:
        """The symbol stack S = [1, i k_1, ..., i k_d] of the identity and
        the derivatives, shape (d + 1,) + ``sizes``."""
        return np.stack([np.ones(self.sizes)] + [1j * k for k in self.k_mesh])


@dataclass(frozen=True)
class ComplexField:
    """A complex scalar field sampled on a grid.  Values are immutable."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        # a C-contiguous copy the field owns, so a strided view, such as a
        # row of the transposed block ``DenseBasis.apply`` returns, is
        # accepted and has a float64 view
        arr = np.array(self.values, dtype=np.complex128, order="C")
        if arr.shape != self.grid.sizes:
            raise GridMismatchError(
                f"field shape {arr.shape} does not match grid sizes {self.grid.sizes}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise MagnlsError("field contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class VectorField:
    """A tuple of component fields on one shared grid (e.g. a vector potential)."""

    components: tuple[ComplexField, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise MagnlsError("vector field needs at least one component")
        g = self.components[0].grid
        for c in self.components[1:]:
            if c.grid != g:
                raise GridMismatchError("vector field components live on different grids")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid


def make_field(grid: GridSpec, values: np.ndarray) -> ComplexField:
    return ComplexField(grid, values)


def zeros(grid: GridSpec) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.sizes, dtype=np.complex128))


def zero_vector_field(grid: GridSpec) -> VectorField:
    return VectorField(tuple(zeros(grid) for _ in range(grid.dim)))


def from_function(grid: GridSpec, fn) -> ComplexField:
    """Sample ``fn(*coords)`` on the grid."""
    return ComplexField(grid, np.asarray(fn(*grid.coords), dtype=np.complex128))


def require_same_grid(*fields) -> GridSpec:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("operands live on different grids")
    return g


# ---------------------------------------------------------------------------
# spectral transforms and calculus
# ---------------------------------------------------------------------------

_scipy_fft = None  # scipy.fft, once a multi-axis transform has run


def _multi_axis_fft():
    global _scipy_fft
    if _scipy_fft is None:
        import scipy.fft
        _scipy_fft = scipy.fft
    return _scipy_fft


def fftn(a: np.ndarray, s=None, axes=None, *,
         overwrite_x: bool = False) -> np.ndarray:
    """Unscaled forward DFT over ``axes`` (default: all axes of ``a``; pass
    ``axes`` with ``s``), as ``numpy.fft.fftn``: ``numpy.fft`` on one axis,
    ``scipy.fft`` on more.  ``overwrite_x`` lets ``scipy.fft`` reuse ``a``;
    pass it only for a temporary the caller owns."""
    if (a.ndim if axes is None else len(axes)) == 1:
        return np.fft.fftn(a, s, axes)
    return _multi_axis_fft().fftn(a, s, axes, overwrite_x=overwrite_x)


def ifftn(a: np.ndarray, s=None, axes=None, *,
          overwrite_x: bool = False) -> np.ndarray:
    """Inverse of ``fftn`` (scaled by 1/N), on the same libraries."""
    if (a.ndim if axes is None else len(axes)) == 1:
        return np.fft.ifftn(a, s, axes)
    return _multi_axis_fft().ifftn(a, s, axes, overwrite_x=overwrite_x)


def dft(f: ComplexField) -> ComplexField:
    """Forward transform, scaled so a constant c has zero-mode weight c*volume."""
    return ComplexField(f.grid, fftn(f.values) * f.grid.volume_element)


def idft(fhat: ComplexField) -> ComplexField:
    return ComplexField(fhat.grid, ifftn(fhat.values) / fhat.grid.volume_element)


# A stack is an array of fields on one grid, shape (K,) + grid.sizes: the
# states on the leading axis (any number of leading axes, or none for a bare
# field), the grid axes last, so each state is a contiguous row.  This is
# the package's one stack layout, and every stacked transform is taken here
# (the batched transforms of Frigo-Johnson, Proc. IEEE 93, 2005).

def _stack_axes(grid: GridSpec) -> dict:
    """Transform arguments for the grid axes of a stack, its last
    ``grid.dim`` axes.  Given ``s``, ``numpy.fft`` does not read the sizes
    off the array, a per-call cost that is a third of a 256-point
    transform; ``axes`` sends a 2D or 3D stack to ``scipy.fft`` in one
    call."""
    return {"s": grid.sizes, "axes": tuple(range(-grid.dim, 0))}


def stack_fft(grid: GridSpec, stack: np.ndarray, *,
              overwrite_x: bool = False) -> np.ndarray:
    """Unscaled forward transform of each row of a stack; each row's
    transform is the field's own, bit for bit.  ``overwrite_x`` as for
    ``fftn``."""
    return fftn(stack, **_stack_axes(grid), overwrite_x=overwrite_x)


def stack_ifft(grid: GridSpec, stack: np.ndarray, *,
               overwrite_x: bool = False) -> np.ndarray:
    """Inverse of ``stack_fft``, likewise."""
    return ifftn(stack, **_stack_axes(grid), overwrite_x=overwrite_x)


def stack_symbols(symbols: np.ndarray, fhat: np.ndarray) -> np.ndarray:
    """The product of each symbol on axis 0 of ``symbols`` (a slice of
    ``GridSpec.symbols``) with each row of the stack ``fhat``: symbol j
    times row r at [j, r]."""
    lead = (None,) * (fhat.ndim - symbols.ndim + 1)   # the stack's axes
    return symbols[(slice(None),) + lead] * fhat


def stack_gradient(grid: GridSpec, fhat: np.ndarray) -> np.ndarray:
    """Spectral gradient of each row from the stack's ``stack_fft``: one
    batched inverse transform of the stack [i k_j fhat] (``symbols``), so
    component j of the gradient is on axis 0 at j."""
    return stack_ifft(grid, stack_symbols(grid.symbols[1:], fhat))


def stack_laplacian(grid: GridSpec, fhat: np.ndarray) -> np.ndarray:
    """Spectral Laplacian of each row from the stack's ``stack_fft``."""
    return stack_ifft(grid, -grid.k_squared * fhat)


def gradient(f: ComplexField) -> VectorField:
    """Spectral gradient: multiply by i*k_j per axis."""
    comps = stack_gradient(f.grid, stack_fft(f.grid, f.values))
    return VectorField(tuple(ComplexField(f.grid, c) for c in comps))


def laplacian(f: ComplexField) -> ComplexField:
    g = f.grid
    return ComplexField(g, stack_laplacian(g, stack_fft(g, f.values)))


def divergence(a: VectorField) -> ComplexField:
    """Spectral divergence sum_j d_j A_j.  The symbol i*k_j of d_j depends
    on k_j alone, so each derivative is a pair of transforms along axis j
    only.  These run ``numpy.fft`` on every grid, so building potentials
    (``potentials.make_potential_pair``) never loads ``scipy.fft``."""
    g = a.grid
    out = np.zeros(g.sizes, dtype=np.complex128)
    for axis, (comp, k) in enumerate(zip(a.components, g.k_mesh)):
        out += ifftn(1j * k * fftn(comp.values, axes=(axis,)), axes=(axis,))
    return ComplexField(g, out)


# ---------------------------------------------------------------------------
# inner products and basic norms
# ---------------------------------------------------------------------------

def inner_l2(f: ComplexField, g: ComplexField) -> complex:
    """Volume-weighted complex inner product, conjugate-linear in ``f``."""
    require_same_grid(f, g)
    return complex(np.vdot(f.values, g.values) * f.grid.volume_element)


def inner_real(f: ComplexField, g: ComplexField) -> float:
    """Real pairing Re(integral of conj(f)*g): the symplectic-geometry pairing."""
    return inner_l2(f, g).real


def norm_l2_rows(grid: GridSpec, stack: np.ndarray) -> list[float]:
    """``norm_l2`` of each row of a stack of shape (K,) + grid.sizes."""
    scale = np.sqrt(grid.volume_element)
    return [float(np.linalg.norm(row.ravel()) * scale) for row in stack]


def norm_l2(f: ComplexField) -> float:
    return norm_l2_rows(f.grid, f.values[None])[0]


# ---------------------------------------------------------------------------
# field snapshots (portable binary format)
# ---------------------------------------------------------------------------
# Layout: 8-byte ASCII magic "MNLSFLD1", u32 LE rank d, then d u64 LE axis
# sizes, d f64 LE box lengths, then prod(n_i) complex samples as (re, im)
# f64 LE pairs in row-major order with the last axis fastest.

def write_field(path, f: ComplexField) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", g.dim))
        fh.write(struct.pack(f"<{g.dim}Q", *g.sizes))
        fh.write(struct.pack(f"<{g.dim}d", *g.box_lengths))
        fh.write(np.ascontiguousarray(f.values).astype("<c16", copy=False).tobytes())


def read_field(path) -> ComplexField:
    raw = Path(path).read_bytes()
    if raw[:8] != SNAPSHOT_MAGIC:
        raise MagnlsError(f"{path}: bad magic {raw[:8]!r}, expected {SNAPSHOT_MAGIC!r}")
    dim = int.from_bytes(raw[8:12], "little") if len(raw) >= 12 else None
    if dim not in DIMENSIONS:
        raise MagnlsError(f"{path}: header rank {raw[8:12]!r} is not one "
                          f"of {DIMENSIONS}")
    off = 12 + 16 * dim
    if len(raw) < off:
        raise MagnlsError(f"{path}: header is {len(raw)} bytes, expected {off}")
    sizes = struct.unpack_from(f"<{dim}Q", raw, 12)
    lengths = struct.unpack_from(f"<{dim}d", raw, 12 + 8 * dim)
    grid = GridSpec(dim, tuple(int(n) for n in sizes), tuple(lengths))
    count = grid.total_points
    expected = off + 16 * count
    if len(raw) != expected:
        raise MagnlsError(
            f"{path}: payload is {len(raw) - off} bytes, expected {16 * count}")
    values = np.frombuffer(raw, dtype="<c16", count=count, offset=off)
    return ComplexField(grid, values.reshape(grid.sizes).astype(np.complex128))
