"""Brute-force reference computations for cross-checking the fast paths.

Everything here is deliberately slow and simple: dense matrices built by
transforming identity columns, LU/eigh factorizations, O(n^2) transforms,
compensated summation.  None of it shares code with the package beyond the
grid containers, so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.linalg as la

from magnls import ComplexField, GridSpec, HamiltonianSpec, make_field


# ---------------------------------------------------------------------------
# dense spectral operators


def _axis_matrix(n: int, length: float, symbol) -> np.ndarray:
    """Dense one-axis Fourier multiplier: F^-1 diag(symbol(k)) F."""
    h = length / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    forward = np.fft.fft(np.eye(n), axis=0)
    backward = np.fft.ifft(np.eye(n), axis=0)
    return backward @ (symbol(k)[:, None] * forward)


def _lift(grid: GridSpec, axis: int, mat: np.ndarray) -> np.ndarray:
    """Kronecker-lift a one-axis operator to the full C-ordered grid."""
    out = np.array([[1.0 + 0j]])
    for a in range(grid.dim):
        out = np.kron(out, mat if a == axis else np.eye(grid.sizes[a]))
    return out


def derivative_matrix(grid: GridSpec, axis: int) -> np.ndarray:
    d = _axis_matrix(grid.sizes[axis], grid.box_lengths[axis], lambda k: 1j * k)
    return _lift(grid, axis, d)


def laplacian_matrix(grid: GridSpec) -> np.ndarray:
    total = np.zeros((grid.total_points, grid.total_points), dtype=np.complex128)
    for a in range(grid.dim):
        m = _axis_matrix(grid.sizes[a], grid.box_lengths[a], lambda k: -(k**2))
        total += _lift(grid, a, m)
    return total


def hamiltonian_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense matrix of the bare operator -Lap + 2i A.grad + i div A + V."""
    g = spec.grid
    mat = -laplacian_matrix(g)
    for axis, comp in enumerate(spec.potentials.a.components):
        mat += 2j * np.diag(comp.values.ravel()) @ derivative_matrix(g, axis)
    mat += 1j * np.diag(spec.potentials.div_a.values.ravel())
    mat += np.diag(spec.potentials.v.values.ravel())
    return mat


def h1_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense shifted operator H + K."""
    return hamiltonian_matrix(spec) + spec.k_shift * np.eye(spec.grid.total_points)


def cn_propagator(spec: HamiltonianSpec, dt: float) -> np.ndarray:
    """Dense Crank-Nicolson step matrix (1 + i dt/2 H)^-1 (1 - i dt/2 H)."""
    h = hamiltonian_matrix(spec)
    eye = np.eye(spec.grid.total_points)
    return la.solve(eye + 0.5j * dt * h, eye - 0.5j * dt * h)


# ---------------------------------------------------------------------------
# brute-force transforms and sums


def slow_dft_1d(values: np.ndarray) -> np.ndarray:
    """Direct O(n^2) forward transform with the numpy sign convention."""
    n = values.shape[0]
    j = np.arange(n)
    out = np.empty(n, dtype=np.complex128)
    for kk in range(n):
        out[kk] = np.sum(values * np.exp(-2j * np.pi * kk * j / n))
    return out


def matrix_dftn(values: np.ndarray, axes=None, inverse: bool = False) -> np.ndarray:
    """DFT over ``axes`` (default: all) as one dense matrix product per
    axis, with numpy's sign and scaling conventions (the inverse carries
    1/n per axis).  The matrix entries exp(-+2 pi i (j k mod n) / n) come
    from exact integer phases; no FFT library is involved."""
    out = np.asarray(values, dtype=np.complex128)
    for axis in range(out.ndim) if axes is None else axes:
        n = out.shape[axis]
        phase = np.outer(np.arange(n), np.arange(n)) % n
        mat = np.exp((2j if inverse else -2j) * np.pi * phase / n)
        if inverse:
            mat /= n
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [axis])), 0, axis)
    return out


def fsum_inner(f: np.ndarray, g: np.ndarray, dv: float) -> complex:
    """Compensated <f, g> = dv * sum conj(f) g."""
    prod = np.conjugate(f).ravel() * g.ravel()
    return complex(math.fsum(prod.real), math.fsum(prod.imag)) * dv


def first_order_magnitudes(grid: GridSpec, values: np.ndarray):
    """|f| and |grad f| as flat arrays, the gradient by dense derivative
    matrices."""
    f = values.ravel()
    comps = [derivative_matrix(grid, a) @ f for a in range(grid.dim)]
    return np.abs(f), np.sqrt(sum(np.abs(c) ** 2 for c in comps))


def fsum_power(mags: np.ndarray, p: float, dv: float) -> float:
    """Compensated dv * sum mags^p."""
    return math.fsum((mags**p).tolist()) * dv


def w1p_norm(grid: GridSpec, values: np.ndarray, p: float) -> float:
    """(||f||_p^p + ||grad f||_p^p)^(1/p), the larger part for p = inf."""
    mag, grad = first_order_magnitudes(grid, values)
    if math.isinf(p):
        return float(max(mag.max(), grad.max()))
    dv = grid.volume_element
    return (fsum_power(mag, p, dv) + fsum_power(grad, p, dv)) ** (1.0 / p)


def weighted_h1_norm(grid: GridSpec, values: np.ndarray, sigma: float) -> float:
    """||<x>^-sigma f||_2 + ||<x>^-sigma grad f||_2."""
    mag, grad = first_order_magnitudes(grid, values)
    w = ((1.0 + grid.radius**2) ** (-0.5 * sigma)).ravel()
    dv = grid.volume_element
    return (math.sqrt(fsum_power(w * mag, 2, dv))
            + math.sqrt(fsum_power(w * grad, 2, dv)))


def w2p_sum_norm(grid: GridSpec, values: np.ndarray, p: float) -> float:
    """||f||_p + ||grad f||_p + ||lap f||_p with dense derivative matrices."""
    mag, grad = first_order_magnitudes(grid, values)
    lap = np.abs(laplacian_matrix(grid) @ values.ravel())
    if math.isinf(p):
        return float(mag.max() + grad.max() + lap.max())
    dv = grid.volume_element
    return sum(fsum_power(a, p, dv) ** (1.0 / p) for a in (mag, grad, lap))


def fd_laplacian(values: np.ndarray, spacings) -> np.ndarray:
    """Second-order periodic finite differences, for loose cross-checks."""
    out = np.zeros_like(values, dtype=np.complex128)
    for axis, h in enumerate(spacings):
        up = np.roll(values, -1, axis=axis)
        dn = np.roll(values, 1, axis=axis)
        out += (up - 2.0 * values + dn) / h**2
    return out


# ---------------------------------------------------------------------------
# dense eigenproblem / bound-state / resolvent references


def dense_ground_state(spec: HamiltonianSpec):
    """Lowest eigenpair of the dense operator, normalized like the package:
    unit L2 norm (volume-weighted), largest-magnitude entry rotated to the
    positive real axis."""
    mat = hamiltonian_matrix(spec)
    mat = 0.5 * (mat + mat.conj().T)
    vals, vecs = la.eigh(mat)
    e0 = float(vals[0])
    vec = vecs[:, 0]
    dv = spec.grid.volume_element
    vec = vec / math.sqrt(float(np.sum(np.abs(vec) ** 2)) * dv)
    peak = np.argmax(np.abs(vec))
    phase = vec[peak] / abs(vec[peak])
    vec = vec / phase
    return e0, vec.reshape(spec.grid.sizes)


def dense_levels(spec: HamiltonianSpec) -> np.ndarray:
    """Every eigenvalue of the dense operator, in increasing order."""
    mat = hamiltonian_matrix(spec)
    return la.eigvalsh(0.5 * (mat + mat.conj().T))


def deflated_matrix(spec: HamiltonianSpec, zeta: complex, w: np.ndarray,
                    c: float) -> np.ndarray:
    """H - zeta + c dv w <w, .> as a dense matrix."""
    wv = w.ravel()
    return (hamiltonian_matrix(spec) - zeta * np.eye(wv.size)
            + c * spec.grid.volume_element * np.outer(wv, wv.conj()))


def dense_deflated_solve(spec: HamiltonianSpec, zeta: complex,
                         values: np.ndarray, w: np.ndarray,
                         c: float) -> np.ndarray:
    """(H - zeta + c dv w <w, .>)^-1 values by a direct dense solve."""
    x = la.solve(deflated_matrix(spec, zeta, w, c), values.ravel())
    return x.reshape(values.shape)


def dense_bound_state(spec: HamiltonianSpec, phi: np.ndarray, e0: float,
                      z: complex, sign: int, *, sweeps: int = 60,
                      tol: float = 1e-13):
    """Dense LU mirror of the small-amplitude fixed-point construction.

    Returns (correction q, frequency derivative e_prime).  Iterates the same
    map as the package but solves the deflated shifted system directly.
    """
    g = spec.grid
    dv = g.volume_element
    n = g.total_points
    pvec = phi.ravel()
    lu = la.inv(deflated_matrix(spec, e0, pvec, 1.0 + abs(e0)))

    def project_out(vec):
        return vec - (np.vdot(pvec, vec) * dv) * pvec

    q = np.zeros(n, dtype=np.complex128)
    e_prime = 0.0
    for _ in range(sweeps):
        cand = z * pvec + q
        g0 = sign * np.abs(cand) ** 2 * cand
        pairing = np.vdot(pvec, g0) * dv
        new_e = (pairing * np.conj(z)).real / abs(z) ** 2
        rhs = project_out(-g0 + e_prime * q)
        new_q = project_out(lu @ rhs)
        delta = la.norm(new_q - q) * math.sqrt(dv) + abs(new_e - e_prime)
        q, e_prime = new_q, new_e
        if delta < tol:
            break
    return q.reshape(g.sizes), e_prime


def dense_weighted_resolvent_norm(spec: HamiltonianSpec, lam: float,
                                  eps: float, sigma: float,
                                  phi: np.ndarray | None = None) -> float:
    """Exact operator norm of w (H - lam^2 - i eps)^-1 P_c w by SVD."""
    g = spec.grid
    n = g.total_points
    w = ((1.0 + g.radius**2) ** (-0.5 * sigma)).ravel()
    h = hamiltonian_matrix(spec)
    resolvent = la.inv(h - (lam * lam + 1j * eps) * np.eye(n))
    pc = np.eye(n, dtype=np.complex128)
    if phi is not None:
        pvec = phi.ravel()
        pc -= g.volume_element * np.outer(pvec, pvec.conj())
    mat = np.diag(w) @ resolvent @ pc @ np.diag(w)
    return float(la.svd(mat, compute_uv=False)[0])


def as_field(grid: GridSpec, values: np.ndarray) -> ComplexField:
    return make_field(grid, np.asarray(values, dtype=np.complex128).reshape(grid.sizes))
