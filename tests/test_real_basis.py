"""Real cos/sin basis of mirrored cells: equivalence and Ritz-bound properties.

build_basis pairs each cell with its mirror (same x, opposite p) into a real
basis with the same span as the complex Gaussians. The complex bvn pair is
rebuilt here from its parts to check that nothing observable changed.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import vn_basis
from pencil_oracle import complex_gaussians, grid_pencil


def _complex_bundle(lat):
    g = complex_gaussians(lat)
    s_inv = np.linalg.inv(g.conj().T @ g)
    return g @ s_inv, s_inv


def _morse_setup():
    grid = pg.Grid1D(-1.6, 21.7, 100)
    lat = pg.VnLattice(grid, 10, alpha=0.5)
    spec = pg.morse()
    return grid, lat, spec, pg.hamiltonian_fgh((grid,), spec)


def _triangle_setup(n=16, n_x=4):
    gx = pg.Grid1D(-6.0, 12.0, n)
    spec = pg.triangle2d(mass=30.0)
    lat = pg.VnLattice(gx, n_x)
    h_op = pg.hamiltonian_fgh((gx, gx), spec)
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
        lat = pg.VnLattice(grid, n_x)
        g_real, s, _ = pg.build_basis(lat, "pvn")
        b, s_inv, _ = pg.build_basis(lat, "bvn")
        for m in (g_real, s, s_inv, b):
            assert m.dtype == np.float64
        assert g_real.flags.c_contiguous  # the layout the gathers read
        eye = np.eye(lat.size)
        assert np.max(np.abs(g_real.T @ b - eye)) < 1e-10
        assert np.max(np.abs(b.T @ b - s_inv)) < 1e-10
        # the real columns are a unitary recombination of the complex ones
        g = complex_gaussians(lat)
        proj = g @ np.linalg.lstsq(g, g_real, rcond=None)[0]
        assert np.max(np.abs(proj - g_real)) < 1e-10


def _complex_levels(h_op, bundles, mask):
    """Levels of the pencil of the kept complex bvn columns, materialized
    around the dense grid H (a 1-d grid gets a one-point y axis) and
    reduced by numpy's Cholesky factor of the metric."""
    if len(bundles) == 1:
        bundles = (*bundles, (np.ones((1, 1)),) * 2)
    (bx, sx_inv), (by, sy_inv) = bundles
    h, s = _materialized_assembly(h_op, bx, by, sx_inv, sy_inv, mask)
    l_inv = np.linalg.inv(np.linalg.cholesky(s))
    return np.linalg.eigvalsh(l_inv @ h @ l_inv.conj().T)


def test_pruned_morse_matches_complex_pipeline():
    grid, lat, spec, h = _morse_setup()
    mask = pg.select_cells((lat,), spec, 12.0)
    real_b, real_s_inv, _ = pg.build_basis(lat, "bvn")
    e_real = pg.solve_generalized(
        grid_pencil(h, (real_b,), (real_s_inv,), mask)).energies
    e_cplx = _complex_levels(h, [_complex_bundle(lat)], mask)
    np.testing.assert_allclose(e_real, e_cplx, rtol=0, atol=1e-10)
    real_g, real_s, _ = pg.build_basis(lat, "pvn")
    e_pvn = pg.solve_generalized(
        grid_pencil(h, (real_g,), (real_s,))).energies
    np.testing.assert_allclose(e_pvn, np.linalg.eigvalsh(h.to_dense()),
                               rtol=0, atol=1e-10)


def test_pruned_triangle_2d_matches_complex_pipeline():
    gx, lat, spec, h_op = _triangle_setup()
    mask = pg.select_cells((lat, lat), spec, 0.8)
    assert 0 < mask.n_kept < mask.size
    real_b, real_s_inv, _ = pg.build_basis(lat, "bvn")
    prob_r = grid_pencil(h_op, (real_b, real_b), (real_s_inv, real_s_inv),
                         mask)
    work = prob_r.workspace()
    assert prob_r.h(work).dtype == prob_r.s(work).dtype == np.float64
    e_real = pg.solve_generalized(prob_r).energies
    e_cplx = _complex_levels(h_op, [_complex_bundle(lat)] * 2, mask)
    np.testing.assert_allclose(e_real, e_cplx, rtol=0, atol=1e-10)


@pytest.mark.parametrize("basis", ["pvn", "bvn"])
def test_pipeline_takes_only_masks_closed_under_mirror(basis):
    # the real basis spans the kept complex Gaussians only for closed masks:
    # on this Morse lattice, dropping one cell of a kept pair moves the five
    # lowest levels by up to 0.42 from the complex projection
    grid, lat, spec, _ = _morse_setup()
    gx, lat2, spec2, _ = _triangle_setup()
    rng = np.random.default_rng(7)
    for pipe, lats, closed in (
            (pg.Pipeline(spec, (grid,), basis, n_x=10, alpha=0.5), (lat,),
             [pg.select_cells((lat,), spec, 12.0),
              _closed_mask_1d(lat, rng, 0.5)]),
            (pg.Pipeline(spec2, (gx, gx), basis, n_x=4), (lat2, lat2),
             [pg.select_cells((lat2, lat2), spec2, 0.8),
              _closed_mask_2d(lat2, rng, 0.4)])):
        n = lats[0].size
        for mask in closed:
            assert pipe.solve(mask).energies.size == mask.n_kept
            cx, cy = mask.indices % n, mask.indices // n
            mx, my = lats[0].mirror[cx], lats[-1].mirror[cy]
            # one twin on the x axis; a cell and its x twin, whose twins on
            # the y axis stay (a mask still closed on the x axis)
            i = np.flatnonzero(mx != cx)[0]
            drops = [[cx[i] + n * cy[i]]]
            if len(lats) == 2:
                j = np.flatnonzero(my != cy)[0]
                drops.append([cx[j] + n * cy[j], mx[j] + n * cy[j]])
            for drop in drops:
                kept = mask.kept.copy()
                kept[drop] = False
                with pytest.raises(ValueError, match="without its mirror"):
                    pipe.solve(pg.PruneMask(kept))
        with pytest.raises(ValueError, match="does not match the basis"):
            pipe.solve(pg.PruneMask(np.ones(n ** len(lats) + 1, bool)))


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
    fgh = np.linalg.eigvalsh(h.to_dense())
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    rng = np.random.default_rng(seed)
    mask = _closed_mask_1d(lat, rng, rng.uniform(0.2, 0.8))
    out = pg.solve_generalized(grid_pencil(h, (b,), (s_inv,), mask))
    assert out.energies.size == mask.n_kept
    assert np.all(out.energies >= fgh[:mask.n_kept] - 1e-10)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_one_point_y_axis_reduces_to_the_1d_projection(seed):
    grid, lat, spec, h = _morse_setup()
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask, idx = None, np.arange(lat.size)
    if seed is not None:
        rng = np.random.default_rng(300 + seed)
        mask = _closed_mask_1d(lat, rng, rng.uniform(0.2, 0.8))
        idx = mask.indices
    prob = grid_pencil(h, (b,), (s_inv,), mask)
    # the oracle: the kept columns around the dense grid Hamiltonian
    bk = b[:, idx]
    h_grid = (pg.kinetic_matrix(grid, spec.mass, spec.hbar)
              + np.diag(pg.potential_matrix((grid,), spec)))
    h_ref = bk.T @ h_grid @ bk
    work = prob.workspace()
    h, s = prob.h(work), prob.s(work)
    assert np.array_equal(s, s_inv[np.ix_(idx, idx)])
    assert np.max(np.abs(h - h_ref)) < 1e-12 * np.abs(h_ref).max()


@pytest.mark.parametrize("seed", range(4))
def test_pruned_bvn_bounds_fgh_from_above_2d(seed):
    gx, lat, _, h_op = _triangle_setup()
    fgh = np.linalg.eigvalsh(h_op.to_dense())
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    rng = np.random.default_rng(100 + seed)
    mask = _closed_mask_2d(lat, rng, rng.uniform(0.2, 0.6))
    prob = grid_pencil(h_op, (b, b), (s_inv, s_inv), mask)
    out = pg.solve_generalized(prob)
    assert out.energies.size == mask.n_kept
    assert np.all(out.energies >= fgh[:mask.n_kept] - 1e-10)


def test_unpruned_bvn_2d_equals_fgh():
    gx, lat, _, h_op = _triangle_setup()
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask = pg.PruneMask(kept=np.ones(lat.size**2, dtype=bool))
    prob = grid_pencil(h_op, (b, b), (s_inv, s_inv), mask)
    out = pg.solve_generalized(prob)
    np.testing.assert_allclose(out.energies,
                               np.linalg.eigvalsh(h_op.to_dense()),
                               rtol=0, atol=1e-10)


def test_eigenvalues_only_matches_vectors_path(monkeypatch):
    grid, lat, spec, h = _morse_setup()
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask = pg.select_cells((lat,), spec, 12.0)
    prob = grid_pencil(h, (b,), (s_inv,), mask)
    # COND_SWITCH = 1 forces the whitening route on the same pencil
    for switch in (1e8, 1.0):
        monkeypatch.setattr(vn_basis, "COND_SWITCH", switch)
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
@pytest.mark.parametrize("axes", [((16, 4, 4), (16, 4, 4)),
                                  ((16, 2, 8), (12, 3, 4)),
                                  ((12, 4, 3), (18, 6, 3))])
def test_factorized_assembly_matches_materialized_columns(axes, seed):
    grids, lats, bundles = [], [], []
    for n, n_x, n_p in axes:
        grids.append(pg.Grid1D(-6.0, 12.0, n))
        lats.append(pg.VnLattice(grids[-1], n_x))
        bundles.append(pg.build_basis(lats[-1], "bvn")[:2])
    h_op = pg.hamiltonian_fgh(tuple(grids), pg.triangle2d(mass=30.0))
    rng = np.random.default_rng(200 + seed)
    r = rng.random((lats[1].size, lats[0].size)) < rng.uniform(0.2, 0.6)
    r = r | r[:, lats[0].mirror]
    r = r | r[lats[1].mirror, :]
    mask = pg.PruneMask(kept=r.ravel())
    (bx, sx_inv), (by, sy_inv) = bundles
    prob = grid_pencil(h_op, (bx, by), (sx_inv, sy_inv), mask)
    h_ref, s_ref = _materialized_assembly(h_op, bx, by, sx_inv, sy_inv, mask)
    assert prob.size == mask.n_kept
    work = prob.workspace()
    h, s = prob.h(work), prob.s(work)
    tol = 1e-12 * np.abs(h_ref).max()
    assert np.max(np.abs(h - h_ref)) < tol
    assert np.max(np.abs(s - s_ref)) < 1e-12 * np.abs(s_ref).max()


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("which", ["columns", "metric", "kinetic matrix"])
def test_assembly_refuses_a_complex_factor(which, axis):
    # every pencil Pipeline builds is real: a complex factor on either axis
    # is refused by name, before anything is gathered
    gx, lat, spec, h_op = _triangle_setup()
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    factors = {"columns": [b, b], "metric": [s_inv, s_inv],
               "kinetic matrix": [b.T @ t @ b for t in h_op.ts]}
    factors[which][axis] = factors[which][axis] * (1 + 0j)
    with pytest.raises(ValueError, match=f"complex {which}: real"):
        pg.assemble_bvn(h_op.v_diag, *factors.values())


@pytest.mark.parametrize("which", ["columns", "metric", "kinetic matrix"])
def test_assembly_reads_other_layouts_of_a_real_factor(which):
    # a direct caller's column-major or integer factor is copied into the
    # C-ordered floats the gathers read: the pencil is bit for bit the
    # C-ordered float factor's
    gx, lat, spec, h_op = _triangle_setup()
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    factors = {"columns": [b, b], "metric": [s_inv, s_inv],
               "kinetic matrix": [b.T @ t @ b for t in h_op.ts]}
    factors[which] = [np.rint(1e6 * m) for m in factors[which]]
    mask = pg.select_cells((lat, lat), spec, 0.8)

    def pencil(cast):
        chosen = {**factors, which: [cast(m) for m in factors[which]]}
        prob = pg.assemble_bvn(h_op.v_diag, *chosen.values(), mask)
        work = prob.workspace()
        return prob.h(work), prob.s(work)

    ref = pencil(np.ascontiguousarray)
    for cast in (np.asfortranarray, lambda m: m.astype(np.int64)):
        assert all(np.array_equal(*pair) for pair in zip(pencil(cast), ref))


def test_kinetic_projection_refuses_complex_columns():
    # project writes T B and B^T (T B) into real blocks of T's memory, and
    # numpy refuses to cast a complex B's products into them
    grid, lat, spec, _ = _morse_setup()
    t = pg.kinetic_matrix(grid, spec.mass, spec.hbar)
    b = pg.build_basis(lat, "bvn")[0]
    with pytest.raises(TypeError):
        vn_basis.project(t, b * (1 + 0j))


@pytest.mark.parametrize("want_vectors,bound", [(False, 2.6), (True, 3.25)])
def test_whole_solve_memory_scales_with_the_pencil(want_vectors, bound):
    # assembly included, the solve keeps 2.44 pencils' worth of numpy arrays
    # at its peak, vectors 3.01 (measured): S, factored and inverted in its
    # own memory into the metric root C, beside H, reduced in place, and the
    # one INV_BLOCK x n_kept working buffer, 0.36 pencils here (numpy.linalg's
    # private copies are not traced; the harness's peak RSS sees them).
    # Building H and S together and holding both through the eigensolve
    # took 4.26 and 5.07, and one grid-by-kept array (1024 x n_kept) alone
    # would take 2.9
    gx = pg.Grid1D(-6.0, 12.0, 32)
    spec = pg.triangle2d(mass=30.0)
    lat = pg.VnLattice(gx, 4)
    h_op = pg.hamiltonian_fgh((gx, gx), spec)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask = pg.select_cells((lat, lat), spec, 0.5)
    assert 0 < mask.n_kept < mask.size // 2
    prob = grid_pencil(h_op, (b, b), (s_inv, s_inv), mask)
    pg.solve_generalized(prob)  # first-call set-up
    tracemalloc.start()
    try:
        pg.solve_generalized(prob, want_vectors=want_vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * mask.n_kept**2 * 8


def _desk(basis="bvn"):
    """The triangle_desk pipeline and its shipped mask (976 of 4096 cells)."""
    spec, gx = pg.triangle2d(mass=96.0), pg.Grid1D(-8.0, 16.0, 64)
    pipe = pg.Pipeline(spec, (gx, gx), basis, n_x=8)
    return pipe, pg.select_cells(pipe.lattices, spec, 0.4, 1.5)


def _morse_400(basis="bvn"):
    """The efficiency scan's hbar = 1/4 pipeline (N = 400) at margin
    scale 3, 136 kept cells."""
    spec = pg.morse(hbar=0.25)
    pipe = pg.Pipeline(spec, (pg.Grid1D(-1.6, 21.7, 400),), basis, n_x=20)
    return pipe, pg.select_cells(pipe.lattices, spec, 11.25, 3.0)


@pytest.mark.parametrize("basis", ["pvn", "bvn"])
@pytest.mark.parametrize("setup", [_desk, _morse_400])
def test_pipeline_kinetic_matrices_equal_the_dense_projection(setup, basis):
    # K = B^T T B, projected in T's memory by row and column blocks, is the
    # plain product up to roundoff on every axis
    pipe, _ = setup(basis)
    for lat, (cols, _, k) in zip(pipe.lattices, pipe.factors):
        t = pg.kinetic_matrix(lat.axis, pipe.spec.mass, pipe.spec.hbar)
        ref = cols.T @ t @ cols
        assert k.shape == ref.shape
        assert np.max(np.abs(k - ref)) <= 1e-12 * np.abs(ref).max()


def test_pipeline_init_projects_the_kinetic_matrix_in_place():
    # B, S^-1 and K over T's memory, and the projection's INV_BLOCK x N
    # block: 3.32 N^2 measured at N = 400. The plain B^T T B holds B^T T
    # and K beside T, 5.0
    pipe = _morse_400()[0]
    peak = _traced_peak(lambda: pg.Pipeline(pipe.spec, pipe.axes, "bvn",
                                            n_x=20))
    n = pipe.lattices[0].size
    assert peak <= 3.35 * n**2 * 8, peak / (n**2 * 8)


def test_desk_solve_holds_two_pencils_and_one_block():
    # S factored into C, H reduced in place and the 128 x 976 working
    # buffer (0.13 pencils): 2.15 pencils measured. Building H from five
    # grid-x-by-kept arrays, its GEMMs and the factor's temporaries each
    # allocating their own blocks, took 2.345
    pipe, mask = _desk()
    peak = _traced_peak(lambda: pipe.solve(mask))
    assert peak <= 2.2 * mask.n_kept**2 * 8, peak / (mask.n_kept**2 * 8)


@pytest.mark.parametrize("basis", ["bvn", "pvn"])
@pytest.mark.parametrize("setup", [_desk, _morse_400])
def test_h_build_allocates_h_and_one_block(setup, basis):
    # the assembly and h on a new workspace() make H and one INV_BLOCK x n
    # buffer, whose tiles hold every Nx-tall operand; beside them only
    # numpy's ufunc buffer (getbufsize numbers, for the broadcast column
    # scalings) and a few grid vectors of W's rows (measured: 2.0% and 7.9%
    # above H plus the block on desk and Morse, pvn as bvn). Building from
    # full Nx x n_kept arrays took 1.19 and 6.8 times H plus the block; a
    # column-major pvn G, which the assembly copied whole, 5.5 on Morse
    pipe, mask = setup(basis)
    n, grid = mask.n_kept, pipe.v_diag.size

    def assemble_and_build_h():
        prob = pg.assemble_bvn(pipe.v_diag, *zip(*pipe.factors), mask)
        return prob.h(prob.workspace())

    peak = _traced_peak(assemble_and_build_h)
    room = n * n + vn_basis.INV_BLOCK * n + np.getbufsize() + 4 * grid
    assert peak <= 8 * room, peak / (8 * (n * n + vn_basis.INV_BLOCK * n))


def test_a_dropped_pipeline_frees_its_basis_at_once():
    # no pencil refers back to itself through its builders, so deleting a
    # solved Pipeline frees its basis by reference counting alone. A
    # pencil that did kept the previous hbar's basis alive in the
    # efficiency scan until the cycle collector ran (traced peak 5.47 MB
    # against 4.27 MB)
    pipe, mask = _morse_400()
    gc.disable()
    try:
        pipe.solve(mask)
        basis = weakref.ref(pipe.factors[0][0])
        del pipe
        assert basis() is None
    finally:
        gc.enable()


def _traced_peak(f):
    """tracemalloc's peak over f(), after one untraced first call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("basis,bound", [("bvn", 3.25), ("pvn", 3.5)])
def test_build_basis_memory_holds_three_axis_matrices(basis, bound):
    # the efficiency scan's hbar = 1/4 lattice, n = 400: G, S and S's root
    # for pvn (3.46 n^2 measured, with the factor's INV_BLOCK x n working
    # buffer and LAPACK's diagonal blocks), G,
    # S^-1 and B for bvn (3.00), each G column block built and dropped
    # before S exists. The complex G, its mirror gather and the real
    # bundle of all four matrices took 6.0 in both
    lat = pg.VnLattice(pg.Grid1D(-1.6, 21.7, 400), 20, hbar=0.25)
    peak = _traced_peak(lambda: pg.build_basis(lat, basis))
    assert peak < bound * lat.size**2 * 8, peak / (lat.size**2 * 8)
