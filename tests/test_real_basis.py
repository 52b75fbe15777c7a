"""Real cos/sin basis of mirrored cells: equivalence and Ritz-bound properties.

build_basis pairs each cell with its mirror (same x, opposite p) into a real
basis with the same span as the complex Gaussians. The complex bundle is
rebuilt here from its parts to check that nothing observable changed.
"""

import tracemalloc

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import solver


def _complex_bundle(lat, grid):
    g = pg.build_G(lat, grid)
    s_inv, _ = pg.invert_overlap(pg.build_overlap(g))
    return pg.build_bvn(g, s_inv), s_inv


def _morse_setup():
    grid = pg.Grid1D(-1.6, 21.7, 100)
    lat = pg.VnLattice.from_grid(grid, 10, 10, alpha=0.5)
    spec = pg.morse()
    return grid, lat, spec, pg.hamiltonian_fgh(grid, spec)


def _triangle_setup(n=16, n_x=4, n_p=4):
    gx = pg.Grid1D(-6.0, 12.0, n)
    grid = pg.Grid2D(gx, gx)
    spec = pg.triangle2d(mass=30.0)
    lat = pg.VnLattice.from_grid(gx, n_x, n_p)
    h_op = pg.hamiltonian_fgh(grid, spec)
    return gx, lat, spec, h_op


def _closed_mask_1d(lat, rng, p_keep):
    r = rng.random(lat.size) < p_keep
    return pg.PruneMask(kept=r | r[lat.mirror])


def _closed_mask_2d(lat, rng, p_keep):
    mx = my = lat.mirror
    r = rng.random((lat.size, lat.size)) < p_keep
    r = r | r[:, mx]
    r = r | r[my, :]
    return pg.PruneMask(kept=r.ravel())


def test_real_bundle_is_float64_and_biorthogonal():
    for grid, n_x, n_p in ((pg.harmonic_square_grid(16), 4, 4),
                           (pg.Grid1D(-3.0, 7.0, 72), 8, 9),
                           (pg.Grid1D(-3.0, 7.0, 72), 9, 8)):
        lat = pg.VnLattice.from_grid(grid, n_x, n_p)
        b = pg.build_basis(lat, grid)
        for m in (b.G, b.S, b.S_inv, b.B):
            assert m.dtype == np.float64
        eye = np.eye(lat.size)
        assert np.max(np.abs(b.G.T @ b.B - eye)) < 1e-10
        assert np.max(np.abs(b.B.T @ b.B - b.S_inv)) < 1e-10
        # the real columns are a unitary recombination of the complex ones
        g = pg.build_G(lat, grid)
        proj = g @ np.linalg.lstsq(g, b.G, rcond=None)[0]
        assert np.max(np.abs(proj - b.G)) < 1e-10


def test_pruned_morse_matches_complex_pipeline():
    grid, lat, spec, h = _morse_setup()
    mask = pg.select_cells((lat,), spec, 12.0)
    real = pg.build_basis(lat, grid)
    b, s_inv = _complex_bundle(lat, grid)
    e_real = pg.solve_generalized(
        pg.assemble_bvn(h, real.B, real.S_inv, mask)).energies
    e_cplx = pg.solve_generalized(pg.assemble_bvn(h, b, s_inv, mask)).energies
    np.testing.assert_allclose(e_real, e_cplx, rtol=0, atol=1e-10)
    e_pvn = pg.solve_generalized(pg.assemble_pvn(h, real.G, real.S)).energies
    np.testing.assert_allclose(e_pvn, np.linalg.eigvalsh(h), rtol=0,
                               atol=1e-10)


def test_pruned_triangle_2d_matches_complex_pipeline():
    gx, lat, spec, h_op = _triangle_setup()
    mask = pg.select_cells((lat, lat), spec, 0.8)
    assert 0 < mask.n_kept < mask.size
    real = pg.build_basis(lat, gx)
    b, s_inv = _complex_bundle(lat, gx)
    prob_r = pg.assemble_bvn_2d(h_op, real.B, real.B, real.S_inv,
                                real.S_inv, mask)
    prob_c = pg.assemble_bvn_2d(h_op, b, b, s_inv, s_inv, mask)
    assert prob_r.h.dtype == np.float64 and prob_r.s.dtype == np.float64
    e_real = pg.solve_generalized(prob_r).energies
    e_cplx = pg.solve_generalized(prob_c).energies
    np.testing.assert_allclose(e_real, e_cplx, rtol=0, atol=1e-10)


def test_operator_apply_matches_dense_real_and_complex():
    _, _, _, h_op = _triangle_setup()
    dense = h_op.to_dense()
    rng = np.random.default_rng(5)
    n = h_op.shape[0]
    for m in (rng.standard_normal((n, 7)),
              rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)),
              rng.standard_normal(n)):
        out = h_op.apply(m)
        assert out.shape == m.shape
        assert np.max(np.abs(out - dense @ m)) < 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("seed", range(6))
def test_pruned_bvn_bounds_fgh_from_above_1d(seed):
    grid, lat, _, h = _morse_setup()
    fgh = np.linalg.eigvalsh(h)
    basis = pg.build_basis(lat, grid)
    rng = np.random.default_rng(seed)
    mask = _closed_mask_1d(lat, rng, rng.uniform(0.2, 0.8))
    out = pg.solve_generalized(pg.assemble_bvn(h, basis.B, basis.S_inv, mask))
    assert out.energies.size == mask.n_kept
    assert np.all(out.energies >= fgh[:mask.n_kept] - 1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_pruned_bvn_bounds_fgh_from_above_2d(seed):
    gx, lat, _, h_op = _triangle_setup()
    fgh = np.linalg.eigvalsh(h_op.to_dense())
    basis = pg.build_basis(lat, gx)
    rng = np.random.default_rng(100 + seed)
    mask = _closed_mask_2d(lat, rng, rng.uniform(0.2, 0.6))
    prob = pg.assemble_bvn_2d(h_op, basis.B, basis.B, basis.S_inv,
                              basis.S_inv, mask)
    out = pg.solve_generalized(prob)
    assert out.energies.size == mask.n_kept
    assert np.all(out.energies >= fgh[:mask.n_kept] - 1e-10)


def test_unpruned_bvn_2d_equals_fgh():
    gx, lat, _, h_op = _triangle_setup()
    basis = pg.build_basis(lat, gx)
    mask = pg.PruneMask(kept=np.ones(lat.size**2, dtype=bool))
    prob = pg.assemble_bvn_2d(h_op, basis.B, basis.B, basis.S_inv,
                              basis.S_inv, mask)
    out = pg.solve_generalized(prob)
    np.testing.assert_allclose(out.energies,
                               np.linalg.eigvalsh(h_op.to_dense()),
                               rtol=0, atol=1e-10)


def test_eigenvalues_only_matches_vectors_path(monkeypatch):
    grid, lat, spec, h = _morse_setup()
    basis = pg.build_basis(lat, grid)
    mask = pg.select_cells((lat,), spec, 12.0)
    prob = pg.assemble_bvn(h, basis.B, basis.S_inv, mask)
    # COND_SWITCH = 1 forces the whitening route on the same pencil
    for switch in (1e8, 1.0):
        monkeypatch.setattr(solver, "COND_SWITCH", switch)
        only = pg.solve_generalized(prob)
        full = pg.solve_generalized(prob, want_vectors=True)
        assert only.eigenvectors is None
        assert full.eigenvectors.shape == (prob.size, prob.size)
        np.testing.assert_allclose(only.energies, full.energies, rtol=0,
                                   atol=1e-10)
        some = pg.solve_generalized(prob, n_states=5, want_vectors=True)
        assert some.eigenvectors.shape == (prob.size, 5)
        np.testing.assert_allclose(some.energies, only.energies[:5],
                                   rtol=0, atol=1e-10)


def _materialized_assembly(h_op, bx, by, sx_inv, sy_inv, mask):
    """Pencil from the kept columns of kron(By, Bx) and the dense grid H."""
    cx = mask.indices % bx.shape[1]
    cy = mask.indices // bx.shape[1]
    bk = np.einsum("yk,xk->yxk", by[:, cy], bx[:, cx])
    bk = bk.reshape(by.shape[0] * bx.shape[0], mask.n_kept)
    h = bk.conj().T @ h_op.to_dense() @ bk
    return h, sy_inv[np.ix_(cy, cy)] * sx_inv[np.ix_(cx, cx)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("complex_b", [False, True])
@pytest.mark.parametrize("axes", [((16, 4, 4), (16, 4, 4)),
                                  ((16, 2, 8), (12, 3, 4)),
                                  ((12, 4, 3), (18, 6, 3))])
def test_factorized_assembly_matches_materialized_columns(axes, complex_b,
                                                          seed):
    grids, lats, bundles = [], [], []
    for n, n_x, n_p in axes:
        grids.append(pg.Grid1D(-6.0, 12.0, n))
        lats.append(pg.VnLattice.from_grid(grids[-1], n_x, n_p))
        if complex_b:
            bundles.append(_complex_bundle(lats[-1], grids[-1]))
        else:
            real = pg.build_basis(lats[-1], grids[-1])
            bundles.append((real.B, real.S_inv))
    h_op = pg.hamiltonian_fgh(pg.Grid2D(*grids), pg.triangle2d(mass=30.0))
    rng = np.random.default_rng(200 + seed)
    r = rng.random((lats[1].size, lats[0].size)) < rng.uniform(0.2, 0.6)
    r = r | r[:, lats[0].mirror]
    r = r | r[lats[1].mirror, :]
    mask = pg.PruneMask(kept=r.ravel())
    (bx, sx_inv), (by, sy_inv) = bundles
    prob = pg.assemble_bvn_2d(h_op, bx, by, sx_inv, sy_inv, mask)
    h_ref, s_ref = _materialized_assembly(h_op, bx, by, sx_inv, sy_inv, mask)
    assert prob.size == mask.n_kept
    assert np.iscomplexobj(prob.h) == complex_b
    tol = 1e-12 * np.abs(h_ref).max()
    assert np.max(np.abs(prob.h - h_ref)) < tol
    assert np.max(np.abs(prob.s - s_ref)) < 1e-12 * np.abs(s_ref).max()


def test_factorized_assembly_memory_scales_with_the_pencil():
    gx = pg.Grid1D(-6.0, 12.0, 32)
    spec = pg.triangle2d(mass=30.0)
    lat = pg.VnLattice.from_grid(gx, 4, 8)
    h_op = pg.hamiltonian_fgh(pg.Grid2D(gx, gx), spec)
    basis = pg.build_basis(lat, gx)
    mask = pg.select_cells((lat, lat), spec, 0.5)
    assert 0 < mask.n_kept < mask.size // 2
    tracemalloc.start()
    try:
        pg.assemble_bvn_2d(h_op, basis.B, basis.B, basis.S_inv, basis.S_inv,
                           mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # H and S themselves take 2 n_kept^2 doubles; a grid-by-kept array
    # (1024 x n_kept) and its operator copies would take several more
    assert peak < 4 * mask.n_kept**2 * 8
