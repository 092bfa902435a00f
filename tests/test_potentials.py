"""Potential construction rules and decay diagnostics."""

import numpy as np
import pytest

from magnls import (
    GridSpec,
    MagnlsError,
    VectorField,
    build_gauge_field,
    build_gaussian_well,
    build_localized_loop_field,
    divergence,
    from_function,
    gaussian_bump,
    gradient,
    make_field,
    make_potential_pair,
    split_lebesgue_norm,
    validate,
    zero_vector_field,
)


def test_gaussian_well_validates():
    g = GridSpec(1, (128,), (30.0,))
    pair = build_gaussian_well(g, -1.5, 1.0)
    report = validate(pair)
    assert report.ok
    assert report.statuses["split_norms_finite"] == "pass"
    assert report.statuses["tail_decrease"] == "pass"
    assert report.statuses["pointwise_decay_v"] == "pass"
    # unchecked hypotheses are reported, not silently dropped
    assert report.statuses["half_derivative_a"] == "not_checked"
    assert any("not checked" in n for n in report.notes)


def test_well_width_cap():
    g = GridSpec(1, (128,), (30.0,))
    with pytest.raises(MagnlsError):
        build_gaussian_well(g, -1.0, 6.0)   # wider than L/6


def test_complex_valued_inputs_are_rejected():
    g = GridSpec(1, (64,), (20.0,))
    v = from_function(g, lambda x: -np.exp(-(x**2)) * (1 + 0.01j))
    with pytest.raises(MagnlsError):
        make_potential_pair(zero_vector_field(g), v)


def test_a_pair_keeps_the_real_parts_it_checked():
    # imaginary noise within the realness tolerance reaches neither the
    # stored potentials nor div A
    g = GridSpec(2, (16, 16), (20.0, 20.0))
    loop = build_localized_loop_field(g, 0.3, 1.5, 1.0)
    v = build_gaussian_well(g, -2.0, 1.0).v
    noise = 1e-14j * np.sin(g.coords[0] + 2.0 * g.coords[1])
    noisy = make_potential_pair(
        VectorField(tuple(make_field(g, c.values + noise)
                          for c in loop.components)),
        make_field(g, v.values + noise))
    clean = make_potential_pair(loop, v)
    for got, want in zip((noisy.v, noisy.div_a) + noisy.a.components,
                         (clean.v, clean.div_a) + clean.a.components):
        assert np.array_equal(got.values, want.values)
    assert not np.any(noisy.v.values.imag)


def test_lq_exponent_floor():
    g = GridSpec(1, (64,), (20.0,))
    v = from_function(g, lambda x: -np.exp(-(x**2)))
    with pytest.raises(MagnlsError):
        make_potential_pair(zero_vector_field(g), v, lq_exponent=3.0)


def test_gauge_field_is_exact_gradient():
    g = GridSpec(2, (32, 32), (20.0, 20.0))
    chi = gaussian_bump(g, 0.4, 2.0)
    a = build_gauge_field(chi)
    grad = gradient(chi)
    for built, direct in zip(a.components, grad.components):
        np.testing.assert_allclose(built.values, direct.values.real, atol=1e-12)
        assert np.max(np.abs(built.values.imag)) == 0.0


def test_loop_field_is_divergence_free_and_localized():
    g = GridSpec(2, (128, 128), (24.0, 24.0))
    a = build_localized_loop_field(g, 0.5, 3.0, 1.0)
    div = divergence(a)
    assert np.max(np.abs(div.values)) < 1e-10
    mag = np.sqrt(sum(np.abs(c.values) ** 2 for c in a.components))
    edge = mag[0, :].max()
    assert edge < 1e-6 * mag.max()


def test_loop_field_needs_two_dimensions():
    g = GridSpec(1, (64,), (24.0,))
    with pytest.raises(MagnlsError,
                       match="^loop field needs grid.dim >= 2, got 1$"):
        build_localized_loop_field(g, 0.5, 3.0, 1.0)


def test_validation_flags_non_decaying_potential():
    g = GridSpec(1, (128,), (30.0,))
    v = make_field(g, np.full(128, -0.5, dtype=np.complex128))
    pair = make_potential_pair(zero_vector_field(g), v)
    report = validate(pair)
    assert not report.ok
    assert report.statuses["pointwise_decay_v"] == "fail"


def test_split_norm_basics():
    g = GridSpec(1, (128,), (30.0,))
    dv = g.volume_element
    spike = np.zeros(128)
    spike[64] = 10.0
    # a single spike is cheapest absorbed by the sup part of the split
    assert split_lebesgue_norm(spike, 2.0, dv) <= 10.0 * np.sqrt(dv) + 1e-12
    assert split_lebesgue_norm(np.zeros(64), 2.0, dv) == 0.0
    broad = np.ones(128)
    # a flat profile is pure sup: threshold tau = 1 wipes the L^q part
    assert split_lebesgue_norm(broad, 2.0, dv) <= 1.0 + 1e-12
