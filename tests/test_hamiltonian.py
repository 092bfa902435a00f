"""Operator application, gauge changes, and the shifted/resolvent solvers.

The magnetic fixture has a genuine vector potential, so these tests cover
the first-order terms, not just -lap + V.
"""

import numpy as np
import pytest

import oracles as orc
from magnls import (
    GridSpec,
    MagnlsError,
    apply_h,
    apply_h1,
    build_gaussian_well,
    build_hamiltonian,
    default_k_shift,
    from_function,
    gauge_transform,
    gaussian_bump,
    ground_state,
    inner_l2,
    make_field,
    norm_l2,
    project_continuous,
    resolvent_solve,
    shifted_solve,
)


def smooth_probe(grid, seed):
    """Random band-limited field: keeps aliasing out of adjointness checks."""
    rng = np.random.default_rng(seed)
    coeff = np.zeros(grid.sizes, dtype=np.complex128)
    n = grid.sizes[0]
    keep = n // 8
    idx = np.r_[0:keep, n - keep:n]
    coeff[idx] = rng.standard_normal(2 * keep) + 1j * rng.standard_normal(2 * keep)
    return make_field(grid, np.fft.ifftn(coeff))


def test_apply_matches_dense_matrix(magnetic_spec):
    g = magnetic_spec.grid
    rng = np.random.default_rng(21)
    f = make_field(g, rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes))
    dense = orc.hamiltonian_matrix(magnetic_spec)
    expected = (dense @ f.values.ravel()).reshape(g.sizes)
    got = apply_h(magnetic_spec, f).values
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_shift_rule():
    g = GridSpec(1, (64,), (20.0,))
    pair = build_gaussian_well(g, -1.5, 1.0)
    spec = build_hamiltonian(pair)
    # K = c_pos - s with c_pos = 1 and s = -(sup|V| + sup|div A| + sup|A|^2
    # + 1); with A = 0 the sum is exact, the K of sup|V| + sup|div A| + 2
    assert spec.k_shift == 1.5 + 0.0 + 1.0 + 1.0
    assert default_k_shift(pair) == spec.k_shift
    f = smooth_probe(g, 1)
    diff = apply_h1(spec, f).values - apply_h(spec, f).values
    np.testing.assert_allclose(diff, spec.k_shift * f.values, atol=1e-12)


def test_symmetry_on_smooth_fields(magnetic_spec):
    f = smooth_probe(magnetic_spec.grid, 2)
    g = smooth_probe(magnetic_spec.grid, 3)
    lhs = inner_l2(f, apply_h(magnetic_spec, g))
    rhs = inner_l2(apply_h(magnetic_spec, f), g)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_shifted_positivity(magnetic_spec):
    for seed in range(4):
        f = smooth_probe(magnetic_spec.grid, 10 + seed)
        # the shift rule keeps <f, H1 f> / ||f||^2 above 1/2
        ratio = inner_l2(f, apply_h1(magnetic_spec, f)).real / norm_l2(f) ** 2
        assert ratio > 0.5


def test_gauge_transform_preserves_spectrum(magnetic_spec, magnetic_eig):
    chi = gaussian_bump(magnetic_spec.grid, 0.25, 3.0)
    other = gauge_transform(magnetic_spec, chi)
    e_other = ground_state(other).e0
    assert abs(e_other - magnetic_eig.e0) <= 1e-8


def test_shifted_solve_inverts(magnetic_spec):
    g = magnetic_spec.grid
    rng = np.random.default_rng(31)
    rhs = make_field(g, rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes))
    sol = shifted_solve(magnetic_spec, -3.0, rhs, tol_rel=1e-12)
    back = apply_h(magnetic_spec, sol).values + 3.0 * sol.values
    assert np.max(np.abs(back - rhs.values)) < 1e-9 * norm_l2(rhs)


def test_resolvent_solve_matches_dense(magnetic_spec):
    g = magnetic_spec.grid
    rng = np.random.default_rng(32)
    rhs = make_field(g, rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes))
    zeta = 1.44 + 1e-2j
    sol = resolvent_solve(magnetic_spec, zeta, rhs, tol_rel=1e-12)
    dense = orc.hamiltonian_matrix(magnetic_spec)
    expected = np.linalg.solve(
        dense - zeta * np.eye(g.total_points), rhs.values.ravel()).reshape(g.sizes)
    assert np.max(np.abs(sol.values - expected)) < 1e-8 * np.max(np.abs(expected))


def test_resolvent_conjugation_symmetry():
    # with A = 0 and real V the operator is real-symmetric, so the solution
    # at the conjugate shift is the conjugate solution
    g = GridSpec(1, (64,), (20.0,))
    spec = build_hamiltonian(build_gaussian_well(g, -1.0, 1.0))
    rhs = from_function(g, lambda x: np.exp(-(x**2) / 3.0))
    up = resolvent_solve(spec, 2.0 + 1e-2j, rhs, tol_rel=1e-12)
    dn = resolvent_solve(spec, 2.0 - 1e-2j, rhs, tol_rel=1e-12)
    assert np.max(np.abs(up.values - np.conj(dn.values))) < 1e-8


def test_resolvent_rejects_real_shift(magnetic_spec):
    rhs = smooth_probe(magnetic_spec.grid, 4)
    with pytest.raises(MagnlsError):
        resolvent_solve(magnetic_spec, 2.0, rhs)


def test_projection_removes_bound_component(magnetic_spec, magnetic_eig):
    f = smooth_probe(magnetic_spec.grid, 5)
    pc = project_continuous(magnetic_eig.phi0, f)
    overlap = inner_l2(magnetic_eig.phi0, pc)
    assert abs(overlap) < 1e-12 * norm_l2(f)
    # idempotent
    again = project_continuous(magnetic_eig.phi0, pc)
    assert np.max(np.abs(again.values - pc.values)) < 1e-13
