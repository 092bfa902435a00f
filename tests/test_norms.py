"""Norm definitions: closed forms on single modes, orderings, weight behavior,
and the stacked first-order norms against a dense-matrix oracle."""

import math

import numpy as np
import pytest

import oracles as orc
from magnls import (
    GridMismatchError,
    GridSpec,
    MagnlsError,
    bracket_weight,
    build_gaussian_well,
    build_localized_loop_field,
    first_order_parts,
    from_function,
    gaussian_bump,
    gradient,
    make_field,
    norm_h1,
    norm_h2,
    norm_l2,
    norm_lp,
    norm_w1p,
    norm_w2p_sum,
    norm_w2p_sums,
    norm_weighted_h1,
    norm_weighted_l2,
)

G = GridSpec(1, (128,), (16.0,))


def plane_wave(m):
    k = 2.0 * np.pi * m / G.box_lengths[0]
    return k, from_function(G, lambda x: np.exp(1j * k * x))


def test_lp_closed_forms():
    mask = np.abs(G.coords[0]) < 4.0
    f = make_field(G, np.where(mask, 2.0, 0.0).astype(np.complex128))
    measure = float(np.sum(mask)) * G.volume_element
    assert norm_lp(f, 1) == pytest.approx(2.0 * measure)
    assert norm_lp(f, 2) == pytest.approx(np.sqrt(4.0 * measure))
    assert norm_lp(f, np.inf) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        norm_lp(f, 0.5)


def test_sobolev_norms_on_a_single_mode():
    k, f = plane_wave(5)
    vol = np.sqrt(G.volume)
    assert norm_l2(f) == pytest.approx(vol, rel=1e-12)
    assert norm_h1(f) == pytest.approx(vol * np.sqrt(1 + k**2), rel=1e-12)
    assert norm_h2(f) == pytest.approx(vol * (1 + k**2), rel=1e-12)


def test_w1p_reduces_to_h1_at_p_two():
    rng = np.random.default_rng(11)
    f = make_field(G, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    assert norm_w1p(f, 2.0) == pytest.approx(norm_h1(f), rel=1e-12)


def test_norm_ordering():
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = make_field(G, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        assert norm_l2(f) <= norm_h1(f) <= norm_h2(f) + 1e-12


def test_bracket_weight_shape():
    w = bracket_weight(G, 4.1)
    x = G.coords[0]
    origin = np.argmin(np.abs(x))
    assert w[origin] == pytest.approx(1.0, abs=1e-6)
    # strictly decaying away from the origin on the right half
    right = w[origin:]
    assert np.all(np.diff(right) < 0)
    assert w.max() <= 1.0


def test_weighted_norms_suppress_far_field():
    near = from_function(G, lambda x: np.exp(-(x**2)))
    far = from_function(G, lambda x: np.exp(-((np.abs(x) - 7.0) ** 2)))
    # mass at the origin survives the weight, mass at |x| = 7 does not
    assert norm_weighted_l2(near, 4.1) > 0.5 * norm_l2(near)
    assert norm_weighted_l2(far, 4.1) < 0.01 * norm_l2(far)
    assert norm_weighted_h1(far, 4.1) < 0.05 * norm_h1(far)


def test_second_order_sum_norm_components():
    k, f = plane_wave(3)
    vol = np.sqrt(G.volume)
    expected = vol * (1.0 + k + k**2)
    got = norm_w2p_sum(f, 2.0)
    assert got == pytest.approx(expected, rel=1e-12)
    # at p = 2 the pieces are the mode norms |f|, k|f|, k^2|f|
    assert norm_w2p_sum(f, 3.0) == pytest.approx(
        (G.volume) ** (1 / 3) * (1.0 + k + k**2), rel=1e-12)


def _oracle_stacks():
    """Stacks of fields on the 64-point well and the 16x16 loop grids: the
    potentials, a random field and a zero row (the Duhamel fields at t = 0)."""
    rng = np.random.default_rng(5)
    well = GridSpec(1, (64,), (20.0,))
    loop = GridSpec(2, (16, 16), (20.0, 20.0))
    out = []
    loop_a = build_localized_loop_field(loop, 0.3, 1.5, 1.0)
    for g, named in ((well, [build_gaussian_well(well, -2.0, 1.0).v]),
                     (loop, list(loop_a.components))):
        rows = [f.values for f in named]
        rows.append(rng.standard_normal(g.sizes)
                    + 1j * rng.standard_normal(g.sizes))
        rows.append(gaussian_bump(g, 1.0, 2.0).values * np.exp(1j * g.coords[0]))
        rows.append(np.zeros(g.sizes, dtype=np.complex128))
        out.append((g, np.stack(rows)))
    return out


@pytest.mark.parametrize("grid, stack", _oracle_stacks(),
                         ids=["well_64", "loop_16x16"])
def test_stacked_first_order_norms_match_the_dense_oracle(grid, stack):
    parts = first_order_parts(grid, stack)
    for grad, values in zip(parts.grad, stack):
        # the stack's batched transforms give each row's single-field
        # spectral gradient bit for bit
        comps = gradient(make_field(grid, values)).components
        assert np.array_equal(
            grad, np.sqrt(sum(np.abs(c.values) ** 2 for c in comps)))
    for p in (2.0, 18.0 / 5.0, 4.0, math.inf):
        rows = parts.w1p(p)
        assert len(rows) == len(stack)
        for row, values in zip(rows, stack):
            assert row == pytest.approx(orc.w1p_norm(grid, values, p),
                                        rel=1e-12, abs=0.0)
            # each row is the single-field norm, bit for bit
            assert row == norm_w1p(make_field(grid, values), p)
    for sigma in (4.1, -4.1):
        for row, values in zip(parts.weighted_h1(sigma), stack):
            assert row == pytest.approx(
                orc.weighted_h1_norm(grid, values, sigma), rel=1e-12, abs=0.0)
            assert row == norm_weighted_h1(make_field(grid, values), sigma)


@pytest.mark.parametrize("grid, stack", _oracle_stacks(),
                         ids=["well_64", "loop_16x16"])
def test_second_order_sums_share_one_transform_and_match_the_oracle(grid,
                                                                    stack):
    ps = (2.0, 18.0 / 5.0, math.inf)
    for values in stack[:-1]:
        f = make_field(grid, values)
        sums = norm_w2p_sums(f, ps)
        assert sums == [norm_w2p_sum(f, p) for p in ps]
        for p, got in zip(ps, sums):
            assert got == pytest.approx(orc.w2p_sum_norm(grid, values, p),
                                        rel=1e-12)


def test_a_stack_with_a_non_finite_row_is_rejected():
    g = GridSpec(1, (64,), (20.0,))
    stack = np.ones((3, 64), dtype=np.complex128)
    stack[1, 7] = complex(0.0, np.nan)
    with pytest.raises(MagnlsError, match="non-finite"):
        first_order_parts(g, stack)
    # states along a trailing axis are not a stack of rows
    with pytest.raises(GridMismatchError):
        first_order_parts(g, np.ones((64, 3), dtype=np.complex128))


def test_an_empty_stack_has_no_rows():
    for g in (GridSpec(1, (64,), (20.0,)), GridSpec(2, (16, 16), (20.0, 20.0))):
        parts = first_order_parts(g, np.zeros((0,) + g.sizes, dtype=np.complex128))
        assert parts.w1p(2.0) == []
        assert parts.w1p(math.inf) == []
        assert parts.weighted_h1(4.1) == []
