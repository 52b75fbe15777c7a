"""Grids, sinc-DVR matrices, and the dense/matrix-free eigensolvers."""

import math
import tracemalloc

import numpy as np
import pytest

import phasegrid as pg


def test_grid_geometry():
    grid = pg.Grid1D(-5.0, 10.0, 20)
    assert grid.dx == pytest.approx(0.5)
    assert grid.points[0] == pytest.approx(-5.0)
    assert grid.points[-1] == pytest.approx(4.5)
    # momentum span times box length is N Planck cells
    assert 2 * (math.pi / grid.dx) * grid.L == pytest.approx(
        2 * math.pi * grid.N)
    with pytest.raises(ValueError):
        pg.Grid1D(0.0, 1.0, 7)  # odd N unsupported
    with pytest.raises(ValueError):
        pg.Grid1D(0.0, -1.0, 8)


def _kinetic_matrix_fft_oracle(grid, mass, hbar=1.0):
    """Kinetic matrix assembled from plane-wave modes (independent check).

    Builds T = Phi diag(hbar^2 k_j^2 / 2m) Phi^dagger over the modes
    k_j = 2*pi*j/L, j = -N/2+1 .. N/2, and drops the vanishing imaginary part.
    """
    n = grid.N
    js = np.arange(-n // 2 + 1, n // 2 + 1)
    k = 2.0 * math.pi * js / grid.L
    phi = (np.exp(2j * math.pi * np.multiply.outer(np.arange(n), js) / n)
           / math.sqrt(n))
    t = (phi * (hbar**2 * k**2 / (2.0 * mass))) @ phi.conj().T
    return t.real


@pytest.mark.parametrize("n", [8, 16, 30])
def test_kinetic_closed_form_matches_fft_oracle(n):
    grid = pg.Grid1D(-4.0, 8.0, n)
    t = pg.kinetic_matrix(grid, mass=1.7, hbar=0.9)
    t_ref = _kinetic_matrix_fft_oracle(grid, mass=1.7, hbar=0.9)
    assert np.max(np.abs(t - t_ref)) < 1e-12 * np.max(np.abs(t_ref))
    # hermitian with constant diagonal
    np.testing.assert_allclose(t, t.T, atol=0)
    assert np.ptp(np.diag(t)) < 1e-12


def _kinetic_outer_difference(grid, mass, hbar):
    # the closed form evaluated on all N^2 differences d = i - j
    n, k = grid.N, grid.k_max
    d = np.subtract.outer(np.arange(n), np.arange(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (2.0 * k**2 / n**2) * ((-1.0) ** d) / np.sin(math.pi * d / n) ** 2
    t = np.where(d == 0, (k**2 / 3.0) * (1.0 + 2.0 / n**2), off)
    return (hbar**2 / (2.0 * mass)) * t


@pytest.mark.parametrize("n", [2, 16, 94, 338, 1600])
def test_kinetic_rows_equal_the_outer_difference_form(n):
    for mass, hbar in ((6.0, 1.0), (1.7, 0.0625)):
        grid = pg.Grid1D(-1.6, 21.7, n)
        t = pg.kinetic_matrix(grid, mass, hbar)
        assert np.array_equal(t, _kinetic_outer_difference(grid, mass, hbar))
        assert t.flags.writeable and t.flags.c_contiguous
        assert np.array_equal(t, t.T)
        # Toeplitz: every diagonal is constant
        assert np.array_equal(t[1:, 1:], t[:-1, :-1])


def test_kinetic_spectrum_is_quadratic_ladder():
    grid = pg.Grid1D(-4.0, 8.0, 16)
    t = pg.kinetic_matrix(grid, mass=1.0, hbar=1.0)
    vals = np.sort(np.linalg.eigvalsh(t))
    j = np.concatenate([[0], np.repeat(np.arange(1, 8), 2), [8]])
    expect = np.sort(0.5 * (2 * np.pi * j / grid.L) ** 2)
    np.testing.assert_allclose(vals, expect, atol=1e-10)


def test_harmonic_square_grid_balances_the_box():
    for n in (16, 64):
        grid = pg.harmonic_square_grid(n, mass=2.0, omega=0.5, hbar=1.5)
        # position span equals momentum span over m*omega and the grid is
        # symmetric about the origin up to half a spacing
        p_max = math.pi * 1.5 / grid.dx
        assert grid.L == pytest.approx(2 * p_max / (2.0 * 0.5))
        assert abs(grid.points[0] + grid.points[-1]) < 1e-12
        assert grid.N == n


def test_fgh_harmonic_levels():
    grid = pg.harmonic_square_grid(64)
    out = pg.solve_fgh((grid,), pg.harmonic())
    np.testing.assert_allclose(out.energies[:20], np.arange(20) + 0.5,
                               atol=1e-9)


# error of a converged dense eigensolve of level 7.5: a few ulps of 7.5
ROUNDOFF_FLOOR = 1e-13


def test_fgh_error_drops_with_grid_size():
    # level 7's error falls from 9.5e-5 at N = 16 to 5.3e-13 at N = 32; from
    # N = 36 on it is roundoff, whose size no solver orders by N
    spec = pg.harmonic()
    errs = []
    for n in (16, 20, 24, 28, 32, 36, 64):
        out = pg.solve_fgh((pg.harmonic_square_grid(n),), spec)
        errs.append(abs(out.energies[7] - 7.5))
    assert all(a > b for a, b in zip(errs[:4], errs[1:5]))
    assert errs[4] > ROUNDOFF_FLOOR >= max(errs[5:])


def test_grid2d_flat_ordering():
    gx = pg.Grid1D(-1.0, 2.0, 4)
    gy = pg.Grid1D(-2.0, 4.0, 6)
    pts = pg.axis_product([gx.points, gy.points])
    assert pts.shape == (24, 2)
    # x index runs fastest
    np.testing.assert_allclose(pts[:4, 0], gx.points)
    np.testing.assert_allclose(pts[:4, 1], gy.points[0])
    # (ix, iy) = (2, 3) sits at flat index iy * gx.N + ix
    np.testing.assert_allclose(pts[3 * 4 + 2], [gx.points[2], gy.points[3]])
    # the potential diagonal follows the same order
    spec = pg.triangle2d()
    v = pg.potential_matrix((gx, gy), spec).reshape(gy.N, gx.N)
    for ix, iy in ((0, 0), (2, 3), (3, 5)):
        assert v[iy, ix] == pg.evaluate(spec, [gx.points[ix], gy.points[iy]])


@pytest.mark.parametrize("ny", [8, 6])
def test_operator2d_matches_dense(ny):
    gx = pg.Grid1D(-3.0, 6.0, 8)
    gy = pg.Grid1D(-3.0, 6.0, ny)
    spec = pg.triangle2d(mass=10.0)
    # the dense matrix built term by term, independently of to_dense
    tx = pg.kinetic_matrix(gx, spec.mass, spec.hbar)
    ty = pg.kinetic_matrix(gy, spec.mass, spec.hbar)
    h_dense = (np.kron(ty, np.eye(gx.N)) + np.kron(np.eye(gy.N), tx)
               + np.diag(pg.potential_matrix((gx, gy), spec)))
    h_op = pg.hamiltonian_fgh((gx, gy), spec)
    assert h_op.shape == (gx.N * ny, gx.N * ny)
    np.testing.assert_allclose(h_op.to_dense(), h_dense, atol=1e-12)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(gx.N * ny)
    np.testing.assert_allclose(h_op.apply(v), h_dense @ v, atol=1e-10)
    m = rng.standard_normal((gx.N * ny, 3))
    np.testing.assert_allclose(h_op.apply(m), h_dense @ m, atol=1e-10)


@pytest.mark.parametrize("sizes", [(12,), (8, 6)])
def test_operator_apply_equals_its_dense_matrix(sizes):
    grids = tuple(pg.Grid1D(-3.0, 6.0, n) for n in sizes)
    spec = pg.morse() if len(sizes) == 1 else pg.triangle2d(mass=10.0)
    h_op = pg.hamiltonian_fgh(grids, spec)
    dense = h_op.to_dense()
    n = math.prod(sizes)
    assert h_op.shape == dense.shape == (n, n)
    rng = np.random.default_rng(11)
    for m in (rng.standard_normal(n), rng.standard_normal((n, 4))):
        out = h_op.apply(m)
        assert out.shape == m.shape
        assert np.max(np.abs(out - dense @ m)) < 1e-12 * np.abs(dense).max()


def test_1d_dense_matrix_is_kinetic_plus_potential_diagonal():
    # the 1-d matrix keeps its arithmetic: T, then the diagonal += v
    grid = pg.Grid1D(-1.6, 21.7, 40)
    spec = pg.morse()
    h = pg.kinetic_matrix(grid, spec.mass, spec.hbar)
    h[np.diag_indices_from(h)] += pg.potential_matrix((grid,), spec)
    assert np.array_equal(pg.hamiltonian_fgh((grid,), spec).to_dense(), h)


def _kronecker_sum(h_op):
    """sum_d I (x) T_d (x) I + diag(v), by Kronecker products, in the order
    to_dense adds them."""
    sizes = [len(t) for t in h_op.ts]
    h = np.zeros(h_op.shape)
    for d, t in enumerate(h_op.ts):
        slower, faster = math.prod(sizes[d + 1:]), math.prod(sizes[:d])
        h += np.kron(np.kron(np.eye(slower), t), np.eye(faster))
    h[np.diag_indices_from(h)] += h_op.v_diag
    return h


@pytest.mark.parametrize("sizes", [(94,), (12, 8), (8, 12), (4, 6, 8)])
def test_dense_matrix_is_bit_identical_to_the_kronecker_sum(sizes):
    grids = tuple(pg.Grid1D(-3.0, 6.0, n) for n in sizes)
    if len(sizes) < 3:
        spec = pg.morse() if len(sizes) == 1 else pg.triangle2d(mass=10.0)
        h_op = pg.hamiltonian_fgh(grids, spec)
    else:  # no 3-d potential ships; the operator takes any number of axes
        v = np.random.default_rng(3).standard_normal(math.prod(sizes))
        h_op = pg.FghOperator(
            tuple(pg.kinetic_matrix(g, 2.0) for g in grids), v)
    assert np.array_equal(h_op.to_dense(), _kronecker_sum(h_op))


def _traced_peak(f):
    """tracemalloc's peak over f(), after one untraced first call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_1d_dense_solve_memory_is_t_and_h():
    # the operator's T and the dense H (2.01 n^2 measured; LAPACK's own
    # copy is not traced); the Kronecker sum held 4.0
    axes = (pg.Grid1D(-1.6, 21.7, 400),)
    peak = _traced_peak(lambda: pg.solve_fgh(axes, pg.morse()))
    assert peak < 2.25 * 400**2 * 8, peak / (400**2 * 8)


def test_2d_dense_matrix_allocates_only_its_output():
    # 1.05 N^2 measured on 32^2, the rest being the diagonal's index
    # arrays; the Kronecker sum held 3.0
    gx = pg.Grid1D(-6.0, 12.0, 32)
    h_op = pg.hamiltonian_fgh((gx, gx), pg.triangle2d(mass=30.0))
    peak = _traced_peak(h_op.to_dense)
    assert peak < 1.1 * h_op.shape[0]**2 * 8, peak / (h_op.shape[0]**2 * 8)


def test_matfree_eigsh_matches_dense():
    gx = pg.Grid1D(-4.0, 8.0, 10)
    grid = (gx, gx)
    spec = pg.triangle2d(mass=20.0)
    dense_vals = np.linalg.eigvalsh(
        pg.hamiltonian_fgh(grid, spec).to_dense())
    h_op = pg.hamiltonian_fgh(grid, spec)
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = LinearOperator(h_op.shape, matvec=h_op.apply, dtype=float)
    vals = np.sort(eigsh(op, k=6, which="SA")[0])
    np.testing.assert_allclose(vals, dense_vals[:6], atol=1e-8)


def test_large_grid_uses_lanczos_and_needs_n_states():
    gx = pg.Grid1D(-8.0, 16.0, 72)
    grid = (gx, gx)  # 5184 points, above the dense limit
    spec = pg.triangle2d()
    with pytest.raises(ValueError):
        pg.solve_fgh(grid, spec)
    out = pg.solve_fgh(grid, spec, n_states=3)
    assert out.energies.size == 3
    assert np.all(np.diff(out.energies) >= -1e-12)


def test_fgh_2d_isotropic_harmonic_degeneracy():
    # separable quadratic well: levels n+1 with degeneracy n+1, assembled
    # by hand from the 1-d blocks as a cross-check on the kron convention
    gx = pg.harmonic_square_grid(16)
    spec1 = pg.harmonic()
    t = pg.kinetic_matrix(gx, 1.0)
    v1 = np.diag(pg.evaluate(spec1, gx.points))
    eye = np.eye(16)
    h = np.kron(eye, t + v1) + np.kron(t + v1, eye)
    vals = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(vals[:6], [1, 2, 2, 3, 3, 3], atol=1e-5)
