"""The magnetic Schrodinger operator and its resolvent.

H f = -lap f + 2i A . grad f + i (div A) f + V f

with spectral derivatives and pointwise products: H = -lap + B, where B
(``_b_values``) holds the multiplication part and the first-order term.
``_apply_h_values`` applies H on the grid and ``h_matrix`` is the one
assembly of its matrix, which every dense computation takes.  Linear solves
have two backends.  On an electric-only grid (A = 0; ``PotentialPair``
keeps V real) of at most ``DENSE_MAX_POINTS`` points that matrix is real
symmetric; ``HamiltonianSpec.dense_basis`` diagonalizes it once, on first
use, and every shifted solve becomes one product with that eigenbasis, a
deflated one included: its deflation vector is an eigenvector, so the
rank-one term only moves that eigenvalue.  This backend loads no scipy
solver.  Every other operator, in particular any with A != 0, whose
collocated first-order terms are not symmetric, solves in
``_krylov_shifted_solve``, the one Krylov shifted solve: resolvents,
deflated bound-state solves, the eigensolver's inverse iterations and the
Crank-Nicolson step (``cn_power``) at 2i/dt all call it.  It runs in
frequency space with the free resolvent as right preconditioner, on the
``ShiftKernel`` the operator keeps for the last shift, and one application
of the preconditioned operator costs d + 2 transforms (2 when A = 0).  A
CN step never forms its right-hand side F H psi: B is linear, so each
sweep applies it to psi - x at once, and a step of one sweep takes d + 4
transforms.  The kernel carries a bound q on the norm of the
preconditioned perturbation, computed from sup|V + i div A|, sup|A| and
the free resolvent, and q picks the solver up front: Richardson sweeps,
each at least halving the true residual, when q < 1/2 and no mode of the
free resolvent is regularized (the CN steps), restarted GMRES (``krylov``)
otherwise.  Every transform here is ``grid.fftn``/``ifftn``, through the
stacked transforms: on a 1D grid they run ``numpy.fft``, so a dense 1D run
loads no scipy at all; on a 2D or 3D grid, on either backend, they run
``scipy.fft``, loaded by the first transform of H.
``HamiltonianSpec`` caches whether A vanishes, the multiplication part
V + i div A and the first-order weights 2i A_j.  It also fixes the positive
shift K for the auxiliary operator H1 = H + K used by the
elliptic-regularity check.  One quadratic-form bound (``lower_bound``)

    H >= s = -(sup|V| + sup|div A| + sup|A|^2 + 1)

is the eigensolver's shift-invert point, and by default K = c_pos - s with
c_pos = 1, which keeps H1 >= c_pos for any A.  Tests may pass an explicit
(even zero) shift to probe what breaks without it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import krylov
from .errors import GridMismatchError, MagnlsError, NonConvergenceError
from .grid import (
    ComplexField,
    GridSpec,
    VectorField,
    inner_l2,
    make_field,
    stack_fft,
    stack_gradient,
    stack_ifft,
)
from .potentials import PotentialPair, build_gauge_field, make_potential_pair

# every resolvent solve needs |Im zeta| at least this far off the real axis
MIN_IMAG_SHIFT = 1e-8
_C_POS = 1.0
# Largest electric-only grid served by the dense eigenbasis.  A dense
# Crank-Nicolson step reads U twice; at 1024 points U takes 8 MiB and the step
# cost 1.3-2.1x a Krylov step, at 512 points 0.1-0.2x (BENCH_3.json).
DENSE_MAX_POINTS = 512
_DENSE_TOL = 1e-12         # eigenbasis residual and orthogonality defect
_MAX_ITER = 10000          # GMRES steps of a strict solve
# GMRES steps of a non-strict solve: two restart cycles.  Its callers keep a
# direction or a norm estimate (inverse iterations, the resolvent-norm
# Lanczos, the norm-equivalence floor probe); near an eigenvalue the true residual can
# stall above its target long after the direction has converged.  The second
# cycle serves a solve whose first one ends short of the target, by running
# out of steps or on a running residual that rounding put below the true one.
_DIRECTION_MAX_ITER = 300
# relative residual of each Krylov CN shifted solve, and the relative error
# estimate each Krylov-projected CN power must meet.  A Richardson solve
# stops once q times its measured residual meets it, and so returns a
# residual of at most this; stopping on the measured residual itself at
# 1e-12 returned at most q 1e-12.  Warm- and cold-started evolves of the
# 16 x 16 loop agree to 1.8e-14 at 1e-13; at 1e-12 under the bound rule
# they differ by up to 3.2e-13.
_CN_TOL = 1e-13
# a Krylov shifted solve whose contraction bound q is below this runs
# Richardson sweeps, each of which at least halves the residual; any other
# runs GMRES
_SWEEP_BOUND = 0.5
# States per pair of dense products in ``DenseBasis.apply``.  With OpenBLAS
# 0.3.31 (Haswell kernels) the N x 2 and N x 4 products U @ a at up to 384
# points give the same columns bit for bit, and an N x 4 product costs about
# what an N x 2 one does (15 against 14 us at 256 points); from N x 6 on the
# columns differ in the last bits (up to 4e-15) and the product costs as
# much per state as two narrower ones (28 us for N x 6).
_GEMM_STATES = 2
_BASIS_BYTES = 32 * 2**20  # Arnoldi basis of one Krylov CN power
_ESTIMATE_EVERY = 5        # basis vectors between error estimates
# Solutions y a Krylov CN history keeps, and, for each count k of
# solutions kept, the weights (-1)^(j+1) C(k, j), j = 1..k, of the
# polynomial extrapolation through the newest k, newest first and padded
# with zeros: (6, -15, 20, -15, 6, -1) through six.  A start costs one
# sweep when its residual is at most tol/q of ||b||.  On the benchmark's
# 64 x 64 loop at dt = 1e-3 (q = 0.0112, tol/q = 8.9e-12) four points left
# the starts of stability-run's perturbed bound state a residual of
# 1.7e-9 ||b||, six leave 2.9e-12 ||b||: its 300 steps take 312 sweeps
# instead of 731, and evolve's Gaussian bump stays at 309.
_CN_HISTORY = 6
_EXTRAPOLATION = np.array(
    [[(-1.0) ** j * math.comb(k, j + 1) for j in range(_CN_HISTORY)]
     for k in range(1, _CN_HISTORY + 1)])


@dataclass(frozen=True)
class HamiltonianSpec:
    potentials: PotentialPair
    k_shift: float

    def __post_init__(self):
        if self.k_shift < 0.0:
            raise MagnlsError(f"k_shift must be >= 0, got {self.k_shift}")
        if self.linear_backend == "krylov":
            # load GMRES with the operator, so that set-up pays the import
            # and not the first solve
            krylov._sparse_linalg()

    @property
    def grid(self) -> GridSpec:
        return self.potentials.grid

    @cached_property
    def magnetic(self) -> bool:
        """True when A has a nonzero component, so H carries the
        first-order term 2i A . grad."""
        return any(np.any(c.values) for c in self.potentials.a.components)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The multiplication part W = V + i div A of H."""
        pot = self.potentials
        return pot.v.values + 1j * pot.div_a.values

    @cached_property
    def grad_weights(self) -> tuple[np.ndarray, ...]:
        """The weights 2i A_j of the first-order term 2i A . grad; none
        when A = 0."""
        if not self.magnetic:
            return ()
        return tuple(2j * a.values for a in self.potentials.a.components)

    @property
    def linear_backend(self) -> str:
        """Backend of the linear solves: "dense" for an electric-only
        operator (A = 0) on at most ``DENSE_MAX_POINTS`` points, "krylov"
        otherwise."""
        small = self.grid.total_points <= DENSE_MAX_POINTS
        return "dense" if small and not self.magnetic else "krylov"

    @cached_property
    def dense_basis(self) -> DenseBasis | None:
        """The eigenbasis of H, built on first use; None on the Krylov
        backend."""
        return DenseBasis(self) if self.linear_backend == "dense" else None

    def shift_kernel(self, zeta: complex) -> ShiftKernel:
        """The ``ShiftKernel`` of H - zeta, kept for the last zeta only, in
        the instance dict as ``cached_property`` keeps its values."""
        kept = self.__dict__.get("_shift_kernel")
        if kept is None or kept.zeta != zeta:
            kept = self.__dict__["_shift_kernel"] = ShiftKernel(self, zeta)
        return kept


def lower_bound(potentials: PotentialPair) -> float:
    """s = -(sup|V| + sup|div A| + sup|A|^2 + 1), below the quadratic form
    of H: H >= s."""
    sup_v = float(np.max(np.abs(potentials.v.values)))
    sup_div = float(np.max(np.abs(potentials.div_a.values)))
    sup_a2 = float(np.max(sum(np.abs(c.values) ** 2
                              for c in potentials.a.components)))
    return -(sup_v + sup_div + sup_a2 + 1.0)


def default_k_shift(potentials: PotentialPair) -> float:
    """K = c_pos - s for s the ``lower_bound`` of H, so H + K >= c_pos."""
    return _C_POS - lower_bound(potentials)


def build_hamiltonian(potentials: PotentialPair, *,
                      k_shift: float | None = None) -> HamiltonianSpec:
    if k_shift is None:
        k_shift = default_k_shift(potentials)
    return HamiltonianSpec(potentials=potentials, k_shift=k_shift)


def check_grid(spec: HamiltonianSpec, f: ComplexField) -> None:
    """Every operator entry point takes fields on the operator's grid."""
    if f.grid != spec.grid:
        raise GridMismatchError("field grid does not match operator grid")


def apply_h(spec: HamiltonianSpec, f: ComplexField) -> ComplexField:
    check_grid(spec, f)
    return make_field(spec.grid, _apply_h_values(spec, f.values))


def _apply_h_values(spec: HamiltonianSpec, values: np.ndarray) -> np.ndarray:
    """H values, for one state or a stack of states (``grid``): one forward
    transform and, when A != 0, the gradient from ``grid.stack_gradient``."""
    fhat = stack_fft(spec.grid, values)
    grads = stack_gradient(spec.grid, fhat) if spec.magnetic else ()
    out = stack_ifft(spec.grid, spec.grid.k_squared * fhat)  # -lap
    out += _b_values(spec, values, grads)
    return out


def _b_values(spec: HamiltonianSpec, x: np.ndarray,
              grads: Iterable[np.ndarray]) -> np.ndarray:
    """B x = W x + sum_j 2i A_j d_j x, given x and its derivatives d_j x
    (none when A = 0): H = -lap + B."""
    bx = spec.diagonal * x
    for a_j, dx_j in zip(spec.grad_weights, grads):
        bx += a_j * dx_j
    return bx


def apply_h1(spec: HamiltonianSpec, f: ComplexField) -> ComplexField:
    """H1 f = H f + K f."""
    check_grid(spec, f)
    return make_field(spec.grid,
                      _apply_h_values(spec, f.values) + spec.k_shift * f.values)


def gauge_transform(spec: HamiltonianSpec, chi: ComplexField) -> HamiltonianSpec:
    """Change of gauge A -> A + grad(chi) for the operator written without
    an |A|^2 term.

    In this representation the scalar potential is V = W - |A|^2 for a
    gauge-fixed W, so the covariance map also sends
    V -> V + 2 A . grad(chi) + |grad(chi)|^2.  The spectrum is then exactly
    invariant and eigenfunctions pick up the phase factor exp(+i chi).
    """
    if chi.grid != spec.grid:
        raise MagnlsError("gauge function grid does not match operator grid")
    pot = spec.potentials
    grad_chi = build_gauge_field(chi)
    new_comps = tuple(
        make_field(spec.grid, a.values.real + d.values.real)
        for a, d in zip(pot.a.components, grad_chi.components)
    )
    cross = sum(a.values.real * d.values.real
                for a, d in zip(pot.a.components, grad_chi.components))
    square = sum(d.values.real**2 for d in grad_chi.components)
    new_v = make_field(spec.grid, pot.v.values.real + 2.0 * cross + square)
    new_pot = make_potential_pair(
        VectorField(new_comps), new_v,
        decay_eps=pot.decay_eps, lq_exponent=pot.lq_exponent)
    return HamiltonianSpec(potentials=new_pot, k_shift=spec.k_shift)


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

def h_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """The matrix of H, real when A = 0.

    Column n is H e_n, for e_n the unit vector at the grid point with
    periodic index m_n, formed without transforms: a spectral multiplier
    with symbol s is a multi-level circulant whose column n is
    c = ifftn(s) rolled by m_n, a window of c tiled twice along each axis.
    So H e_n is that column for |k|^2 plus B e_n (``_b_values``), with the
    columns for the i k_j as the derivatives of e_n.  Row n of one array
    holds column n, and the transposed view is returned.
    """
    g = spec.grid
    derivs = [1j * k for k in g.k_mesh] if spec.magnetic else []
    c = stack_ifft(g, np.stack([g.k_squared] + derivs))
    if not spec.magnetic:
        c = c.real
    tiled = np.tile(c, (1,) + (2,) * g.dim)
    mat_t = np.empty((g.total_points, g.total_points), dtype=c.dtype)
    unit = np.zeros(g.sizes)
    for n, m in enumerate(np.ndindex(*g.sizes)):
        cols = tiled[(slice(None),) + tuple(
            slice(size - k, 2 * size - k) for size, k in zip(g.sizes, m))]
        unit[m] = 1.0
        col = cols[0] + _b_values(spec, unit, cols[1:])
        unit[m] = 0.0
        mat_t[n] = (col if spec.magnetic else col.real).ravel()
    return mat_t.T


class DenseBasis:
    """H = U diag(lam) U^T for an electric-only operator, from the real
    symmetric ``h_matrix``.

    Functions of H act on complex values through their real and imaginary
    parts, so U stays real and no complex N x N array is formed.  The
    basis is checked once, here: each eigenpair's residual relative to
    max |lam| and the orthogonality defect of U must be at most 1e-12.
    The low eigenpairs ``spectrum`` returns on this backend (the ground
    state, its gap and the scan levels) are read from lam and U, so no
    eigensolve runs twice.  Holds the last Cayley factor.
    """

    def __init__(self, spec: HamiltonianSpec):
        mat = h_matrix(spec)
        lam, u = np.linalg.eigh(mat)
        work = mat @ u
        work -= u * lam
        resid = float(np.max(np.linalg.norm(work, axis=0))
                      / np.max(np.abs(lam)))
        work = u.T @ u
        work[np.diag_indices_from(work)] -= 1.0
        ortho = float(np.max(np.abs(work)))
        if max(resid, ortho) > _DENSE_TOL:
            raise NonConvergenceError(
                f"dense eigenbasis failed its check: residual {resid:.3e}, "
                f"orthogonality defect {ortho:.3e} (limit {_DENSE_TOL:g})",
                residual=max(resid, ortho))
        self.lam = lam
        self.u = u
        self._cayley: tuple | None = None       # (dt, n, factor)

    def apply(self, values: np.ndarray, coeff: np.ndarray,
              increment: bool = False) -> np.ndarray:
        """U diag(coeff) U^T values, or values plus that with
        ``increment``, for one state or a stack of states (``grid``).

        The complex values enter the real products as (re, im) pairs: the
        rows are transposed once into an N x 2K real matrix, column 2k the
        real and 2k + 1 the imaginary part of state k, and the result is a
        transposed view of the output block, one row per state.  The
        coefficients scale the first product in place and the values are
        added into the second product's output.  The products take
        ``_GEMM_STATES`` states at a time: each column of the result is then
        the product for that state alone, bit for bit, and a stacked run
        equals the runs of its states."""
        pairs = np.ascontiguousarray(values.reshape(-1, len(self.lam)).T,
                                     dtype=np.complex128).view(np.float64)
        out = np.empty_like(pairs)
        for j in range(0, pairs.shape[1], 2 * _GEMM_STATES):
            cols = slice(j, j + 2 * _GEMM_STATES)
            a = self.u.T @ pairs[:, cols]
            a.view(np.complex128)[...] *= coeff[:, None]
            np.matmul(self.u, a, out=out[:, cols])
        if increment:
            out += pairs
        return out.view(np.complex128).T.reshape(values.shape)

    def cayley(self, values: np.ndarray, dt: float, n: int) -> np.ndarray:
        """n Crank-Nicolson steps of size dt of one state or a stack of
        states (``apply``).

        The Cayley factor (1 - i lam dt/2)/(1 + i lam dt/2) is exp(i phi)
        with phi = -2 atan(lam dt/2), so n steps multiply by exp(i n phi).
        They are applied as values + U (exp(i n phi) - 1) U^T values, with
        exp(i t) - 1 = -2 sin(t/2)^2 + i sin(t): the rounding of the products
        then scales with the increment, not with the state.  On a bound
        state of the 256-point well the mass drifts by ~1e-19 per step this
        way, against ~1e-15 for U exp(i n phi) U^T values.
        """
        if self._cayley is None or self._cayley[:2] != (dt, n):
            phi = -2.0 * n * np.arctan(0.5 * dt * self.lam)
            self._cayley = (dt, n,
                            -2.0 * np.sin(0.5 * phi) ** 2 + 1j * np.sin(phi))
        return self.apply(values, self._cayley[2], increment=True)

    def eigen_mass(self, w: np.ndarray) -> np.ndarray:
        """|U^T w|^2, the mass of an eigenvector w of H on each column of U.

        U^T w comes from the real products U^T Re w and U^T Im w.  Raises
        ``MagnlsError`` when the mass off the largest entry, summed over the
        other entries, exceeds _DENSE_TOL^2 times that entry, so that the
        part of w off its eigenvector exceeds _DENSE_TOL of it in norm: a
        rank-one term c w <w, .> is then not diagonal in the basis, and an
        off-index part of relative norm t leaves a residual of about
        c t ||x|| in the solve x."""
        a = self.u.T @ np.stack([w.real.ravel(), w.imag.ravel()], axis=1)
        mass = (a * a).sum(axis=1)
        k = int(np.argmax(mass))
        off = float(np.sum(mass, where=np.arange(mass.size) != k))
        if off > _DENSE_TOL**2 * mass[k]:
            raise MagnlsError(f"deflation vector is not an eigenvector of H: "
                              f"off-index mass {off / mass[k]:.3e} of its "
                              f"largest (limit {_DENSE_TOL**2:g})")
        return mass


def _shifted_values(spec: HamiltonianSpec, zeta: complex,
                    deflate: tuple[np.ndarray, float] | None,
                    values: np.ndarray) -> np.ndarray:
    """(H - zeta) values, plus c * w <w, values> for ``deflate=(w, c)``."""
    out = _apply_h_values(spec, values) - zeta * values
    if deflate is not None:
        w, c = deflate
        out = out + c * np.vdot(w, values) * spec.grid.volume_element * w
    return out


def shifted_solve(spec: HamiltonianSpec, zeta: complex, f: ComplexField, *,
                  tol_rel: float = 1e-8,
                  deflate: tuple[np.ndarray, float] | None = None,
                  x0: np.ndarray | None = None,
                  strict: bool = True) -> ComplexField:
    """Solve (H - zeta) u = f, optionally with a rank-one deflation term.

    ``deflate=(w, c)`` adds c * w <w, .> to the operator (volume-weighted
    inner product), which moves a known eigenvalue away from the shift.
    A strict solve raises ``NonConvergenceError`` when its true residual
    stays above ``tol_rel``; a non-strict one returns its last iterate.
    On the Krylov backend (``_krylov_shifted_solve``) the solver follows
    from a contraction bound computed for the shift: Richardson sweeps,
    capped at the count the bound guarantees, where it is below 1/2, else
    GMRES, whose non-strict solve stops after two restart cycles.  The
    sweeps leave ``x0`` unused: they start from y = 0, whose sweep is F f
    and gives ||F f|| exactly, and only the histories of ``cn_power`` give
    another start, whose residual its first sweep measures.  There the
    residual is measured in the frequency variable; the grid-space residual can
    exceed ``tol_rel`` near the spectrum.  On the dense backend the solve
    is one ``DenseBasis.apply`` with the coefficients
    1/(lam - zeta + c dv |U^T w|^2), the last term only when deflating.
    That is exact because w must be an eigenvector of H, as phi0 is at e0
    (``DenseBasis.eigen_mass`` raises otherwise); ``x0`` goes unused, and
    a strict solve measures its residual with the spectral H.
    """
    check_grid(spec, f)
    basis = spec.dense_basis
    if basis is None:
        return make_field(spec.grid, _krylov_shifted_solve(
            spec, zeta, stack_fft(spec.grid, f.values), tol_rel=tol_rel,
            deflate=deflate, x0=x0, strict=strict))
    shifted = basis.lam - zeta
    if deflate is not None:
        w, c = deflate
        shifted = shifted + c * spec.grid.volume_element * basis.eigen_mass(w)
    x = basis.apply(f.values, 1.0 / shifted)
    b_norm = float(np.linalg.norm(f.values))
    if strict and b_norm > 0.0:
        resid = float(np.linalg.norm(
            _shifted_values(spec, zeta, deflate, x) - f.values)) / b_norm
        if not resid <= tol_rel:
            raise NonConvergenceError(
                f"direct solve missed relative residual {tol_rel:.1e}: "
                f"{resid:.3e}", residual=resid, iterations=0)
    return make_field(spec.grid, x)


class CNHistory:
    """The last ``_CN_HISTORY`` solutions y_j of one state's Krylov CN
    solves at one dt, as a ring ``ys`` with one row per solve.  It is
    allocated at the first solve as zeros, so that the rows not yet
    written, which ``_cn_start`` weighs by zero, add exactly zero.
    ``newest`` is the row of the last solve and ``count`` the solves
    kept."""

    def __init__(self):
        self.ys = None
        self.count = 0
        self.newest = 0

    def append(self, y: np.ndarray) -> None:
        """Keep y in place of the oldest."""
        if self.ys is None:
            self.ys = np.zeros((_CN_HISTORY,) + y.shape, dtype=np.complex128)
        self.newest = (self.newest - 1) % _CN_HISTORY
        self.ys[self.newest] = y
        self.count = min(self.count + 1, _CN_HISTORY)


def cn_history() -> CNHistory:
    """An empty history of one state for ``cn_power``'s single steps at one
    dt.  Only Krylov steps fill it; a dense step needs no start."""
    return CNHistory()


def cn_power(spec: HamiltonianSpec, values: np.ndarray, dt: float,
             n: int, history: CNHistory | list[CNHistory] | None = None
             ) -> np.ndarray:
    """n Crank-Nicolson steps of size dt on the operator's backend: c(H)^n
    values, where one step solves (1 + i dt/2 H) psi+ = (1 - i dt/2 H) psi.
    Every CN step and power of the package is taken here.  ``values`` is one
    state on the grid or a stack of states (``grid``): the dense backend
    takes the stack through its products two states at a time
    (``DenseBasis.apply``), the Krylov backend takes its rows one by one,
    since its solvers take one right-hand side at a time.  The dense
    backend's steps are numpy products; the Krylov backend loads
    ``scipy.sparse.linalg`` with its operator.  On a 2D or 3D grid the
    transforms of either backend run on ``scipy.fft``, on a 1D grid on
    ``numpy.fft``.

    With a dense eigenbasis H = U diag(lam) U^T the steps are
    U diag(c^n) U^T with the Cayley factor
    c = (1 - i lam dt/2)/(1 + i lam dt/2) = exp(-2i atan(lam dt/2)), one
    product for any n (``DenseBasis.cayley``).  On the Krylov backend a
    single step is one shifted solve in increment form:
    c(lam) - 1 = -2 lam / (lam - zeta) with zeta = 2i/dt, so

        psi+ = psi - 2 (H - zeta)^-1 H psi,

    solved by ``_krylov_shifted_solve`` to ``_CN_TOL``, with the right-hand
    side F H psi = |k|^2 F psi + F B F^-1 (F psi) handed over as its two
    parts, so that each sweep applies B to psi - x in one and F H psi is
    never formed: a step of one sweep takes d + 4 transforms, F psi, the
    sweep's d + 2 and the one that gives x.  The solve's error then scales
    with the increment, not with the state.  At this shift |D^-1| <= |dt|/2
    and |k_j D^-1| <= sqrt(|dt|)/2, so for the steps the package takes the
    contraction bound q is small and the solve is a Richardson sweep; a
    step too long for q < 1/2 runs GMRES.
    A caller that steps a state many times at one dt passes its
    ``history`` (``cn_history``; for a stack, a list with one per row):
    that state's last solutions, from whose extrapolation its next
    Richardson solve starts (``_cn_start``).  Without one, on GMRES steps
    and in the n-step powers below, a solve starts from y = 0.
    For n > 1 the Krylov backend projects instead: an Arnoldi basis V_m of
    the Krylov space K_m(H, psi) (``krylov.arnoldi``; the collocated H is
    not Hermitian) gives H V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T, and
    c(H)^n psi ~ ||psi|| V_m c(H_m)^n e_1, with c(H_m) the m x m Cayley
    matrix.  The basis grows until the a-posteriori estimate
    h_{m+1,m} |e_m^T c(H_m)^n e_1| meets ``_CN_TOL`` (Hochbruck-Lubich
    1997; Sidje's Expokit, 1998).  The basis is bounded by ``_BASIS_BYTES``;
    when the estimate misses at that size, the n steps are taken one by
    one, so a miss costs one basis more than stepping.  Either
    way, every n-step power is the discrete Crank-Nicolson propagator, not
    exp(-i n dt H).
    """
    dense = spec.dense_basis
    if dense is not None:
        return dense.cayley(values, dt, n)
    if values.ndim > spec.grid.dim:
        out = np.empty_like(values)
        for k, row in enumerate(values):
            out[k] = cn_power(spec, row, dt, n,
                              None if history is None else history[k])
        return out
    if n == 1:
        fhat = stack_fft(spec.grid, values)
        return values - 2.0 * _krylov_shifted_solve(
            spec, 2j / dt, spec.grid.k_squared * fhat, tol_rel=_CN_TOL,
            history=history, g_hat=fhat)
    shape, size = values.shape, values.size
    beta = float(np.linalg.norm(values))
    if beta == 0.0:
        return np.zeros(shape, dtype=np.complex128)

    def apply(v):
        return _apply_h_values(spec, v.reshape(shape)).ravel()

    m_max = _BASIS_BYTES // (16 * size) - 1
    for m, basis, hess in krylov.arnoldi(apply, values.ravel(), m_max):
        # K_m is invariant when it fills the space or the new direction
        # vanishes; then the projection is exact
        tail = 0.0 if m == size else hess[m, m - 1].real
        if tail <= _CN_TOL or m % _ESTIMATE_EVERY == 0 or m == m_max:
            eye = np.eye(m)
            c_m = np.linalg.solve(eye + 0.5j * dt * hess[:m, :m],
                                  eye - 0.5j * dt * hess[:m, :m])
            y = np.linalg.matrix_power(c_m, n)[:, 0]
            if tail * abs(y[-1]) <= _CN_TOL:
                return beta * (y @ basis[:m]).reshape(shape)
    # the estimate missed with the whole budget: step instead
    for _ in range(n):
        values = cn_power(spec, values, dt, 1)
    return values


def _cn_start(history: CNHistory) -> np.ndarray | None:
    """The Richardson start of a CN solve from the state's solutions y_j,
    newest first: the polynomial extrapolation y* = sum c_j y_j through
    the last six (6, -15, 20, -15, 6, -1), or through all kept while fewer
    are (``_EXTRAPOLATION``; Fischer, Comput. Methods Appl. Mech. Engrg.
    163, 1998, on starts for successive right-hand sides).  The weights are
    rolled onto the ring's rows, so the sum is one product with its array.
    Its residual is not predicted: the first sweep measures it.  None while
    the history is empty."""
    if history.count == 0:
        return None
    weights = np.roll(_EXTRAPOLATION[history.count - 1], history.newest)
    return np.tensordot(weights, history.ys, axes=1)


class ShiftKernel:
    """H - zeta in the frequency variable of ``_krylov_shifted_solve``.

    With D = |k|^2 - zeta, regularized never to vanish, and y = D F x (F the
    plain DFT), (H - zeta) x = f reads

        (J + K) y = F f,   K = F B F^-1 D^-1,

    with J = (|k|^2 - zeta) / D the identity except on regularized modes.
    Holds D (``d``), J (``ident``; None when no mode is regularized), the
    multiplier stack ``mult`` = [D^-1, i k_1 D^-1, ..., i k_d D^-1] (only
    D^-1 when A = 0), ``inv_max`` = max|D^-1| and the contraction bound

        q = sup|W| max|D^-1| + sum_j 2 sup|A_j| max|k_j D^-1| >= ||K||

    (``bound``, in the 2-norm: F / sqrt(N) is unitary, so conjugating a
    pointwise product by F keeps its norm, the sup of its modulus).
    """

    def __init__(self, spec: HamiltonianSpec, zeta: complex):
        g = spec.grid
        lap = g.k_squared - zeta
        small = np.abs(lap) < 1e-10
        self.zeta = zeta
        self.d = np.where(small, 1e-10, lap)
        self.ident = lap / self.d if np.any(small) else None
        inv = 1.0 / self.d
        self.mult = (np.stack([inv] + [1j * k * inv for k in g.k_mesh])
                     if spec.magnetic else inv[None])
        self.inv_max = float(np.max(np.abs(inv)))
        self.bound = sum(float(np.max(np.abs(a))) * float(np.max(np.abs(m)))
                         for a, m in zip((spec.diagonal,) + spec.grad_weights,
                                         self.mult))


def _krylov_shifted_solve(spec: HamiltonianSpec, zeta: complex,
                          f_hat: np.ndarray, *, tol_rel: float,
                          deflate: tuple[np.ndarray, float] | None = None,
                          x0: np.ndarray | None = None,
                          strict: bool = True,
                          history: CNHistory | None = None,
                          g_hat: np.ndarray | None = None) -> np.ndarray:
    """``shifted_solve`` on the Krylov backend, for the right-hand side f
    given by its DFT F f = ``f_hat`` + F B F^-1 ``g_hat`` (only ``f_hat``
    when ``g_hat`` is None): the y-system of ``spec.shift_kernel(zeta)``,
    whose solution gives the returned values of x = F^-1 D^-1 y.

    ``deflate=(w, c)`` adds c dv w <w, .> to B and c dv ||w||^2 max|D^-1| to
    q.  B is linear, so the sweep map of Richardson's iteration is

        y -> F f - K y = f_hat - F B F^-1 (D^-1 y - g_hat),

    one batched inverse transform of the multiplier stack times y less
    [1, i k_1, ..., i k_d] ``g_hat``, which gives x - g and every
    d_j (x - g), the pointwise B and one forward transform: d + 2
    transforms, and F f itself is never formed.  Its value at y = 0 is F f,
    which costs no transform without ``g_hat``.

    When no mode is regularized and q < ``_SWEEP_BOUND``, the solve is
    Richardson's iteration (``krylov.richardson``), each of whose sweeps at
    least halves the true residual, which stops once q times the measured
    residual meets ``tol_rel`` of a lower bound on ||F f|| and is capped at
    the sweep count q and the first measured residual guarantee; ``x0`` goes
    unused, as its residual is not known without a sweep.  With a
    ``history`` of earlier solves at this shift (``cn_power``) the
    iteration starts from their extrapolation (``_cn_start``), else from
    y = 0, and the solution joins the history.  Every other shift runs
    restarted GMRES (``krylov.solve``) on J + K, with K y = F B F^-1 D^-1 y,
    the right-hand side the sweep map at y = 0 and ``x0`` entering as
    D F x0; it neither reads nor extends a history.

    ``tol_rel`` holds for the relative residual in y.  In exact arithmetic
    that is the grid-space ||(H - zeta) x - f|| / ||f||, but forming x from
    y adds rounding amplified by |D^-1| on the lowest modes.  Near the
    spectrum the grid-space residual can then exceed ``tol_rel``: at 1e-12,
    within about 1e-3 of an eigenvalue, it reached 1.8-3.2e-12.  The
    Crank-Nicolson shifts 2i/dt lie far from the real spectrum.
    """
    kern = spec.shift_kernel(zeta)
    g = spec.grid
    dv = g.volume_element
    q = kern.bound
    if deflate is not None:
        w, c = deflate
        q += c * dv * float(np.vdot(w, w).real) * kern.inv_max
    if g_hat is not None:   # stacked as kern.mult is
        g_hat = np.stack([g_hat] + [1j * k * g_hat for k in g.k_mesh
                                    if spec.magnetic])

    def apply_b(zs):
        """F B F^-1 z from the stack [z, i k_1 z, ..., i k_d z], which it
        overwrites."""
        xs = stack_ifft(g, zs, overwrite_x=True)
        bx = _b_values(spec, xs[0], xs[1:])
        if deflate is not None:
            bx += c * np.vdot(w, xs[0]) * dv * w
        return stack_fft(g, bx, overwrite_x=True)

    def sweep(y):
        if y is None:
            return f_hat if g_hat is None else f_hat - apply_b(-g_hat)
        zs = kern.mult * y
        if g_hat is not None:
            zs -= g_hat
        return f_hat - apply_b(zs)

    if kern.ident is None and q < _SWEEP_BOUND:
        y = krylov.richardson(
            sweep, None if history is None else _cn_start(history),
            bound=q, tol=tol_rel, strict=strict)
        if history is not None:
            history.append(y)
        return stack_ifft(g, kern.mult[0] * y, overwrite_x=True)

    def matvec(v):
        y = v.reshape(f_hat.shape)
        out = apply_b(kern.mult * y)
        out += y if kern.ident is None else kern.ident * y
        return out.ravel()

    y0 = (None if x0 is None
          else (kern.d * stack_fft(g, x0.reshape(f_hat.shape))).ravel())
    y = krylov.solve(matvec, sweep(None).ravel(), tol=tol_rel,
                     max_iter=_MAX_ITER if strict else _DIRECTION_MAX_ITER,
                     x0=y0, strict=strict)
    return stack_ifft(g, y.reshape(f_hat.shape) / kern.d, overwrite_x=True)


def resolvent_solve(spec: HamiltonianSpec, zeta: complex, f: ComplexField, *,
                    tol_rel: float = 1e-8, strict: bool = True) -> ComplexField:
    """Resolvent application (H - zeta)^-1 f for zeta off the real axis."""
    if abs(complex(zeta).imag) < MIN_IMAG_SHIFT:
        raise MagnlsError(
            f"resolvent shift must satisfy |Im zeta| >= {MIN_IMAG_SHIFT}, "
            f"got {zeta}")
    return shifted_solve(spec, complex(zeta), f, tol_rel=tol_rel,
                         strict=strict)


def project_continuous(phi0: ComplexField, f: ComplexField) -> ComplexField:
    """Projection onto the orthogonal complement of the ground state:
    f - <phi0, f> phi0 in the complex volume-weighted inner product."""
    coeff = inner_l2(phi0, f)
    return make_field(f.grid, f.values - coeff * phi0.values)
