"""Ground-state solves against closed forms and dense eigensolves, on the
dense and the Krylov backend, and a GMRES work guard on the latter."""

import re

import numpy as np
import pytest
import scipy.linalg

import oracles as orc
from magnls import (
    GridSpec,
    NoBoundStateError,
    NonConvergenceError,
    apply_h,
    build_gauge_field,
    build_gaussian_well,
    build_hamiltonian,
    build_localized_loop_field,
    from_function,
    gauge_transform,
    gaussian_bump,
    ground_state,
    hamiltonian,
    inner_l2,
    krylov,
    low_spectrum_scan,
    make_field,
    make_potential_pair,
    norm_l2,
    spectrum,
    zero_vector_field,
)
from conftest import sech_well_potentials


def test_reflectionless_well_closed_form(sech_spec, sech_eig):
    # the depth-two sech-squared well has ground level exactly -1 with a
    # normalized sech profile, up to the (exponentially small) torus cutoff
    assert abs(sech_eig.e0 + 1.0) < 1e-8
    g = sech_spec.grid
    exact = from_function(g, lambda x: 1.0 / (np.sqrt(2.0) * np.cosh(x)))
    diff = np.max(np.abs(sech_eig.phi0.values - exact.values))
    assert diff < 1e-7
    assert sech_eig.residual < 1e-9
    assert norm_l2(sech_eig.phi0) == pytest.approx(1.0, abs=1e-12)


def test_eigen_residual_definition(sech_spec, sech_eig):
    r = apply_h(sech_spec, sech_eig.phi0).values - sech_eig.e0 * sech_eig.phi0.values
    measured = norm_l2(make_field(sech_spec.grid, r))
    assert measured == pytest.approx(sech_eig.residual, rel=1e-3, abs=1e-12)


def test_phase_fix_makes_peak_real_positive(sech_eig, magnetic_eig):
    for eig in (sech_eig, magnetic_eig):
        peak = eig.phi0.values.ravel()[np.argmax(np.abs(eig.phi0.values))]
        assert peak.real > 0
        assert abs(peak.imag) < 1e-10 * abs(peak)


def test_magnetic_ground_state_matches_dense(magnetic_spec, magnetic_eig):
    e_dense, phi_dense = orc.dense_ground_state(magnetic_spec)
    assert abs(magnetic_eig.e0 - e_dense) < 1e-10
    overlap = abs(inner_l2(magnetic_eig.phi0,
                           orc.as_field(magnetic_spec.grid, phi_dense)))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_three_dimensional_dense_agreement():
    g = GridSpec(3, (8, 8, 8), (16.0, 16.0, 16.0))
    spec = build_hamiltonian(build_gaussian_well(g, -5.0, 2.0))
    eig = ground_state(spec)
    e_dense, _ = orc.dense_ground_state(spec)
    assert abs(eig.e0 - e_dense) < 1e-10
    assert eig.e0 < 0


def test_repulsive_bump_has_no_bound_state():
    g = GridSpec(1, (128,), (40.0,))
    spec = build_hamiltonian(build_gaussian_well(g, -1e-12, 1.0))
    with pytest.raises(NoBoundStateError):
        ground_state(spec)


def test_ground_state_and_scan_share_one_bound_rule():
    # a shallow well whose lowest level, -8.86e-7, lies above the scan's
    # bound threshold -1e-6: neither the scan nor the ground state counts it
    g = GridSpec(1, (256,), (40.0,))
    spec = build_hamiltonian(build_gaussian_well(g, -2e-5, 1.0))
    with pytest.raises(NoBoundStateError):
        ground_state(spec)
    assert low_spectrum_scan(spec, 2).n_negative == 0


def test_scan_counts_sech_well_levels(sech_spec):
    scan = low_spectrum_scan(sech_spec, 3)
    assert scan.n_negative == 1
    assert scan.unique_negative
    # the first torus level above the well sits at the doublet splitting scale
    assert scan.eigenvalues[0] == pytest.approx(-1.0, abs=1e-6)
    assert scan.eigenvalues[1] > 0


def test_scan_flags_deep_well_with_extra_levels():
    g = GridSpec(1, (256,), (40.0,))
    v = from_function(g, lambda x: -8.0 / np.cosh(x) ** 2)
    spec = build_hamiltonian(make_potential_pair(zero_vector_field(g), v))
    scan = low_spectrum_scan(spec, 4)
    assert scan.n_negative >= 2
    assert not scan.unique_negative
    np.testing.assert_allclose(low_spectrum_scan(spec, 8).eigenvalues,
                               orc.dense_levels(spec)[:8], rtol=0.0,
                               atol=1e-12)


def test_dense_eigenpairs_make_no_shifted_solve(monkeypatch, sech_spec):
    # a machine-independent work guard: on the dense backend the eigenpairs
    # are the columns of the eigenbasis, so no solve runs
    calls = 0
    solve = hamiltonian.shifted_solve

    def counted_solve(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "shifted_solve", counted_solve)
    monkeypatch.setattr(spectrum, "shifted_solve", counted_solve)
    assert ground_state(sech_spec).residual < 1e-9
    assert low_spectrum_scan(sech_spec, 4).unique_negative
    assert calls == 0


@pytest.fixture(params=["dense", "krylov"])
def edge_doublet_spec(request, sech_spec):
    """The depth-two sech-squared well, and its change of gauge by
    A = grad chi, which moves it to the Krylov backend, where the scan
    reaches the doublet only through ``_refine_pair``'s deflation."""
    if request.param == "dense":
        return sech_spec
    spec = gauge_transform(sech_spec, gaussian_bump(sech_spec.grid, 0.3, 2.0))
    assert spec.linear_backend == "krylov"
    return spec


def test_scan_resolves_the_edge_doublet(edge_doublet_spec):
    # the first levels above the well are the +-k torus pair: the scan must
    # return both members of the degenerate doublet, pulled below the free
    # value k1^2 by the attractive phase shift
    scan = low_spectrum_scan(edge_doublet_spec, 3)
    e1, e2 = scan.eigenvalues[1], scan.eigenvalues[2]
    assert abs(e1 - e2) < 1e-8
    k1_sq = (2.0 * np.pi / 40.0) ** 2
    assert 0.0 < e1 < k1_sq
    assert all(r < 1e-9 for _, r in scan.pairs)


def test_three_dimensional_gap_matches_dense():
    # the first excited level of this parity-symmetric well is an odd
    # triplet; a Krylov space from an even start never sees it and
    # overstates the gap
    g = GridSpec(3, (8, 8, 8), (16.0, 16.0, 16.0))
    spec = build_hamiltonian(build_gaussian_well(g, -5.0, 2.0))
    eig = ground_state(spec)
    levels = orc.dense_levels(spec)
    assert abs(eig.gap - (min(levels[1], 0.0) - levels[0])) < 1e-12


def test_stall_reports_an_eigenvalue_off_the_real_axis():
    # after a change of gauge the collocated 32x32 loop operator is not
    # Hermitian: its lowest eigenvalue is complex, and no real shift reaches it
    g = GridSpec(2, (32, 32), (20.0, 20.0))
    pair = make_potential_pair(build_localized_loop_field(g, 0.3, 1.5, 1.0),
                               build_gaussian_well(g, -2.0, 1.0).v)
    spec = gauge_transform(build_hamiltonian(pair), gaussian_bump(g, 0.3, 2.0))
    with pytest.raises(NonConvergenceError, match="not Hermitian") as err:
        ground_state(spec)
    reported = float(re.search(r"imaginary part of magnitude (\S+);",
                               str(err.value)).group(1))
    levels = scipy.linalg.eigvals(orc.hamiltonian_matrix(spec))
    lowest = levels[np.argmin(levels.real)]
    assert reported == pytest.approx(abs(lowest.imag), rel=1e-2)


@pytest.fixture(scope="module")
def gauge_sech_spec():
    """A = grad chi on the depth-eight sech-squared well: three bound levels,
    and A != 0 puts every solve on the Krylov backend."""
    g = GridSpec(1, (256,), (40.0,))
    v = from_function(g, lambda x: -8.0 / np.cosh(x) ** 2)
    spec = build_hamiltonian(make_potential_pair(
        build_gauge_field(gaussian_bump(g, 0.3, 2.0)), v))
    assert spec.linear_backend == "krylov"
    return spec


@pytest.fixture(scope="module")
def gauge_sech_levels(gauge_sech_spec):
    levels = scipy.linalg.eigvals(orc.hamiltonian_matrix(gauge_sech_spec))
    return np.sort(levels.real)


def test_krylov_gap_matches_dense(gauge_sech_spec, gauge_sech_levels):
    # the gap is the unrefined second Ritz value from shift-invert steps
    # solved to the direction tolerance, so it is held to a looser bound
    # than the refined e0
    eig = ground_state(gauge_sech_spec)
    e0, e1 = gauge_sech_levels[:2]
    assert abs(eig.e0 - e0) < 1e-10
    assert eig.gap == pytest.approx(min(e1, 0.0) - e0, rel=1e-5)


def test_krylov_scan_matches_dense(gauge_sech_spec, gauge_sech_levels):
    scan = low_spectrum_scan(gauge_sech_spec, 3)
    assert scan.n_negative == 3
    np.testing.assert_allclose(scan.eigenvalues, gauge_sech_levels[:3],
                               rtol=0.0, atol=1e-10)


def test_ground_state_gmres_work(monkeypatch):
    # a machine-independent cost guard: GMRES applications of the shifted
    # operator in one Krylov ground-state solve on the 16x16 loop (203 with
    # the Arnoldi steps at the direction tolerance, 298 at 1e-10)
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    spec = build_hamiltonian(make_potential_pair(
        build_localized_loop_field(g, 0.3, 1.5, 1.0),
        build_gaussian_well(g, -2.0, 1.0).v))
    applied = 0
    gmres = krylov.gmres

    def counted_gmres(matvec, *args, **kwargs):
        def counted(v):
            nonlocal applied
            applied += 1
            return matvec(v)
        return gmres(counted, *args, **kwargs)

    monkeypatch.setattr(krylov, "gmres", counted_gmres)
    eig = ground_state(spec)
    assert eig.residual < 1e-9
    assert applied < 250
