"""Grid container, transforms, and calculus against slow references."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import magnls
import oracles as orc
from magnls import (
    ComplexField,
    GridMismatchError,
    GridSpec,
    MagnlsError,
    VectorField,
    dft,
    divergence,
    fftn,
    from_function,
    gradient,
    idft,
    ifftn,
    inner_l2,
    laplacian,
    make_field,
    norm_l2,
    read_field,
    stack_fft,
    stack_gradient,
    stack_ifft,
    stack_laplacian,
    write_field,
    zeros,
)


def test_grid_rejects_bad_axes():
    with pytest.raises(MagnlsError):
        GridSpec(1, (100,), (10.0,))       # not a power of two
    with pytest.raises(MagnlsError):
        GridSpec(1, (4,), (10.0,))         # too small
    with pytest.raises(MagnlsError):
        GridSpec(4, (8, 8, 8, 8), (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(MagnlsError):
        GridSpec(1, (16,), (-3.0,))
    with pytest.raises(MagnlsError):
        GridSpec(2, (16,), (5.0, 5.0))     # per-axis count mismatch


def test_coords_centered_and_uniform():
    g = GridSpec(1, (16,), (8.0,))
    x = g.axis_coords(0)
    assert x[0] == -4.0
    assert np.allclose(np.diff(x), 0.5)
    assert g.volume_element == pytest.approx(0.5)
    # the right endpoint is excluded on a periodic box
    assert x[-1] == pytest.approx(4.0 - 0.5)


def test_field_requires_matching_shape_and_finite_values():
    g = GridSpec(1, (16,), (8.0,))
    with pytest.raises(MagnlsError):
        make_field(g, np.zeros(8, dtype=np.complex128))
    bad = np.zeros(16, dtype=np.complex128)
    bad[3] = np.inf
    with pytest.raises(MagnlsError):
        make_field(g, bad)


def test_field_values_are_write_protected():
    g = GridSpec(1, (16,), (8.0,))
    f = zeros(g)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_a_strided_stack_column_makes_a_field():
    # a column of an array with the grid axes first is strided, as is a
    # row of a transposed stack
    g = GridSpec(2, (8, 16), (8.0, 16.0))
    rng = np.random.default_rng(0)
    shape = (8, 16, 3)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = make_field(g, stack[..., 1])
    assert np.array_equal(f.values, stack[..., 1])
    assert not f.values.flags.writeable
    stack[2, 3, 1] = complex(1.0, np.nan)
    with pytest.raises(MagnlsError, match="non-finite"):
        make_field(g, stack[..., 1])


def test_dft_matches_direct_sum():
    g = GridSpec(1, (32,), (11.0,))
    rng = np.random.default_rng(5)
    f = make_field(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    fast = dft(f)
    slow = orc.slow_dft_1d(f.values) * g.volume_element
    np.testing.assert_allclose(fast.values, slow, atol=1e-12)


def test_dft_idft_roundtrip_and_parseval():
    g = GridSpec(2, (16, 32), (6.0, 9.0))
    rng = np.random.default_rng(6)
    f = make_field(g, rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes))
    back = idft(dft(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-13)
    # Parseval: the frequency-side norm sqrt(sum |dft f|^2 / volume)
    freq_norm = np.sqrt(np.sum(np.abs(dft(f).values) ** 2) / g.volume)
    assert freq_norm == pytest.approx(norm_l2(f), rel=1e-13)


def test_gradient_exact_on_plane_wave():
    g = GridSpec(1, (64,), (16.0,))
    k = 2.0 * np.pi * 3 / 16.0
    f = from_function(g, lambda x: np.exp(1j * k * x))
    d = gradient(f).components[0]
    np.testing.assert_allclose(d.values, 1j * k * f.values, atol=1e-12)


def test_laplacian_against_finite_differences():
    # second-order FD has O(h^2) error; this is a sanity bracket, not precision
    g = GridSpec(1, (256,), (30.0,))
    f = from_function(g, lambda x: np.exp(-(x**2) / 4.0))
    spectral = laplacian(f).values
    fd = orc.fd_laplacian(f.values, g.spacings)
    assert np.max(np.abs(spectral - fd)) < 5e-3
    # and the spectral result is essentially exact against the closed form
    exact = from_function(g, lambda x: (x**2 / 4.0 - 0.5) * np.exp(-(x**2) / 4.0)).values
    assert np.max(np.abs(spectral - exact)) < 1e-12


def test_divergence_of_gradient_is_laplacian():
    g = GridSpec(2, (32, 32), (12.0, 12.0))
    f = from_function(g, lambda x, y: np.exp(-(x**2 + 2 * y**2) / 5.0))
    lhs = divergence(gradient(f)).values
    rhs = laplacian(f).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("grid", [GridSpec(2, (16, 32), (12.0, 10.0)),
                                  GridSpec(3, (8, 8, 16), (6.0, 6.0, 8.0))],
                         ids=["2d", "3d"])
def test_divergence_matches_the_dense_derivatives(grid):
    rng = np.random.default_rng(14)
    comps = [rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
             for _ in range(grid.dim)]
    want = sum(orc.derivative_matrix(grid, j) @ c.ravel()
               for j, c in enumerate(comps)).reshape(grid.sizes)
    got = divergence(VectorField(tuple(make_field(grid, c) for c in comps)))
    assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [GridSpec(1, (64,), (16.0,)),
                                  GridSpec(2, (16, 32), (12.0, 10.0)),
                                  GridSpec(3, (8, 8, 16), (6.0, 6.0, 8.0))],
                         ids=["1d", "2d", "3d"])
def test_stacked_calculus_rows_are_the_single_field_results(grid):
    rng = np.random.default_rng(11)
    stack = (rng.standard_normal((3,) + grid.sizes)
             + 1j * rng.standard_normal((3,) + grid.sizes))
    fhat = stack_fft(grid, stack)
    grads = stack_gradient(grid, fhat)
    lap = stack_laplacian(grid, fhat)
    back = stack_ifft(grid, fhat)
    # component j of the gradient is on axis 0
    assert grads.shape == (grid.dim, 3) + grid.sizes
    for r, values in enumerate(stack):
        f = make_field(grid, values)
        # the transforms of a contiguous row are the field's own, bit for
        # bit, in the library grid dispatches to: numpy.fft on one axis,
        # scipy.fft on more
        lib = np.fft if grid.dim == 1 else scipy.fft
        direct = lib.fftn(values)
        assert np.array_equal(fhat[r], direct)
        assert np.array_equal(back[r], lib.ifftn(direct))
        for c, grad_c, k in zip(gradient(f).components, grads, grid.k_mesh):
            assert np.array_equal(c.values, grad_c[r])
            assert np.array_equal(c.values, lib.ifftn(1j * k * direct))
        assert np.array_equal(laplacian(f).values, lap[r])
        assert np.array_equal(lap[r], lib.ifftn(-grid.k_squared * direct))
        # a bare field is a stack with no leading axis
        assert np.array_equal(stack_fft(grid, values), fhat[r])
        assert np.array_equal(stack_ifft(grid, fhat[r]), back[r])
        assert np.array_equal(stack_gradient(grid, fhat[r]), grads[:, r])
        assert np.array_equal(stack_laplacian(grid, fhat[r]), lap[r])
    # a stack with two leading axes transforms row by row the same way
    pair = np.stack([stack, stack[::-1]])
    pair_hat = stack_fft(grid, pair)
    assert np.array_equal(pair_hat, np.stack([fhat, fhat[::-1]]))
    assert np.array_equal(stack_ifft(grid, pair_hat),
                          np.stack([back, back[::-1]]))
    assert np.array_equal(stack_gradient(grid, pair_hat),
                          np.stack([grads, grads[:, ::-1]], axis=1))
    assert np.array_equal(stack_laplacian(grid, pair_hat),
                          np.stack([lap, lap[::-1]]))
    # an empty stack has no rows
    empty = stack_fft(grid, np.zeros((0,) + grid.sizes, dtype=np.complex128))
    assert empty.shape == (0,) + grid.sizes
    assert stack_laplacian(grid, empty).shape == (0,) + grid.sizes


def test_only_grid_chooses_transform_axes():
    # a stack is laid out once, in grid: no other module of the package
    # passes axes to a transform or moves an axis of a stack
    found = []
    for path in sorted(Path(magnls.__file__).parent.glob("*.py")):
        if path.stem == "grid":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            axes = (len(node.args) > 2
                    or any(kw.arg == "axes" for kw in node.keywords))
            if name == "moveaxis" or (name in ("fftn", "ifftn") and axes):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


@pytest.mark.parametrize("grid", [GridSpec(1, (64,), (16.0,)),
                                  GridSpec(2, (16, 32), (12.0, 10.0)),
                                  GridSpec(3, (8, 8, 16), (6.0, 6.0, 8.0))],
                         ids=["1d", "2d", "3d"])
def test_fftn_and_ifftn_match_a_matrix_dft(grid):
    rng = np.random.default_rng(12)
    stack = (rng.standard_normal((2,) + grid.sizes)
             + 1j * rng.standard_normal((2,) + grid.sizes))
    axes = tuple(range(1, grid.dim + 1))
    # one field over all its axes, and a stack over its grid axes
    for values, kw in ((stack[0], {}),
                       (stack, {"s": grid.sizes, "axes": axes})):
        for transform, inverse in ((fftn, False), (ifftn, True)):
            want = orc.matrix_dftn(values, kw.get("axes"), inverse)
            err = np.max(np.abs(transform(values, **kw) - want))
            assert err <= 1e-14 * np.max(np.abs(want))


def test_one_axis_transforms_are_numpys_bit_for_bit(monkeypatch):
    g = GridSpec(1, (64,), (16.0,))
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    kw = {"s": g.sizes, "axes": (1,)}
    for ours, numpys in ((fftn, np.fft.fftn), (ifftn, np.fft.ifftn)):
        assert np.array_equal(ours(stack[0]), numpys(stack[0]))
        assert np.array_equal(ours(stack, **kw), numpys(stack, **kw))
    # numpy.fft is looked up at each call, so a wrapper installed on it
    # afterwards sees every one-axis transform and no multi-axis one
    seen = []
    for name in ("fftn", "ifftn"):
        def spy(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            seen.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    laplacian(make_field(g, stack[0]))
    fftn(stack.reshape(3, 8, 8), axes=(1, 2))
    ifftn(stack.reshape(3, 8, 8))
    assert seen == ["fftn", "ifftn"]


def test_inner_product_matches_compensated_sum():
    g = GridSpec(1, (128,), (20.0,))
    rng = np.random.default_rng(7)
    a = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    b = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    fast = inner_l2(make_field(g, a), make_field(g, b))
    slow = orc.fsum_inner(a, b, g.volume_element)
    assert abs(fast - slow) < 1e-13
    # conjugate-linear in the first slot
    assert inner_l2(make_field(g, 1j * a), make_field(g, b)) == pytest.approx(
        -1j * fast, abs=1e-13)


def test_mixed_grid_operations_are_rejected():
    f = zeros(GridSpec(1, (16,), (8.0,)))
    h = zeros(GridSpec(1, (16,), (9.0,)))
    with pytest.raises(GridMismatchError):
        inner_l2(f, h)


def test_snapshot_roundtrip(tmp_path):
    g = GridSpec(2, (16, 16), (7.0, 7.0))
    rng = np.random.default_rng(8)
    f = make_field(g, rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes))
    path = tmp_path / "field.fld"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_snapshot_rejects_corruption(tmp_path):
    g = GridSpec(1, (16,), (8.0,))
    path = tmp_path / "field.fld"
    write_field(path, zeros(g))
    raw = path.read_bytes()
    (tmp_path / "bad_magic.fld").write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(MagnlsError):
        read_field(tmp_path / "bad_magic.fld")
    (tmp_path / "truncated.fld").write_bytes(raw[:-16])
    with pytest.raises(MagnlsError):
        read_field(tmp_path / "truncated.fld")
    # a cut or malformed header is a MagnlsError naming the file, not a
    # struct.error: magic only, a cut rank, rank 5, and a rank-1 header
    # cut inside its axis sizes
    headers = {"magic_only": b"MNLSFLD1", "cut_rank": b"MNLSFLD1\x01",
               "rank5": b"MNLSFLD1\x05\x00\x00\x00",
               "cut_sizes": raw[:16]}
    for name, head in headers.items():
        bad = tmp_path / f"{name}.fld"
        bad.write_bytes(head)
        with pytest.raises(MagnlsError, match=f"{name}.fld"):
            read_field(bad)
