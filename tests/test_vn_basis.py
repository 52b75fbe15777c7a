"""Phase-space lattices, overlap matrices, and the biorthogonal dual set."""

import math
import os
import warnings

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import cli, vn_basis
from phasegrid.errors import IllConditionedError, NotAvailableError
from phasegrid.vn_basis import balanced_factors
from pencil_oracle import complex_gaussians

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = ("harmonic_pvn", "morse_bvn", "triangle_desk", "triangle_full")


def _axis_lattice(name):
    """The lattice of a shipped config's axis (every axis is the same)."""
    cfg = cli._load_config(os.path.join(CONFIGS, f"{name}.cfg"))
    grid = cli._grid_axis(cfg.grid)
    return pg.VnLattice(grid, cfg.lattice.nx, hbar=cfg.spec().hbar,
                        alpha=cfg.lattice.alpha)


def _axis_basis(name, basis):
    """build_basis of a shipped config's axis."""
    return pg.build_basis(_axis_lattice(name), basis)


def _axis_overlap(name):
    """The overlap S of a shipped config's axis."""
    return _axis_basis(name, "pvn")[1]


def _unflushed_columns(lat):
    """The real G by build_basis's mirror-pair recipe in one unblocked
    expression, before its tails are flushed: sqrt(2) env cos at a pair's
    lower index, sqrt(2) env sin at its twin, env cos at p = 0."""
    m, pair = np.arange(lat.size), lat.mirror
    n = m % lat.n_x
    dx = lat.axis.points[:, None] - lat.centers_x
    env = (2.0 * lat.alpha / math.pi) ** 0.25 * np.exp(-lat.alpha * dx ** 2)
    phase = -lat.centers[np.minimum(m, pair), 1] * dx[:, n] / lat.hbar
    return (np.where(m == pair, 1.0, math.sqrt(2.0)) * env[:, n]
            * np.where(m <= pair, np.cos(phase), np.sin(phase)))


def _reference_basis(lat):
    """(G, S, S^-1, B, cond) by the one-bundle recipe build_basis replaced:
    the unflushed real G in one expression, its tails flushed, in the
    C-ordered layout build_basis returns, S^-1 = C C^T from a copy of S,
    then B = G S^-1."""
    g = np.ascontiguousarray(_unflushed_columns(lat))
    g[np.abs(g) < math.sqrt(np.finfo(float).tiny)] = 0.0
    s = g.T @ g
    c, cond = vn_basis.metric_root(s.copy, "overlap pseudo-inverted",
                                   vn_basis.workspace(lat.size))
    s_inv = c @ c.T
    return g, s, s_inv, g @ s_inv, cond


def test_balanced_factors():
    assert balanced_factors(36) == (6, 6)
    assert balanced_factors(12) in ((3, 4), (4, 3))
    a, b = balanced_factors(13)  # prime: degenerate split
    assert {a, b} == {1, 13}
    with pytest.raises(ValueError):
        balanced_factors(0)


def test_lattice_cells_tile_one_planck_cell_each():
    grid = pg.Grid1D(-5.0, 10.0, 24)
    for n_x, n_p in ((6, 4), (4, 6), (12, 2)):
        lat = pg.VnLattice(grid, n_x, hbar=0.7)
        assert lat.a * lat.dp == pytest.approx(2 * math.pi * 0.7)
        assert lat.size == 24
        assert lat.centers_x.size == n_x
        assert lat.centers_p.size == n_p
        # centers stay inside the box and inside the momentum span
        assert lat.centers_x.min() > -5.0 and lat.centers_x.max() < 5.0
        assert np.max(np.abs(lat.centers_p)) < math.pi * 0.7 / grid.dx
    with pytest.raises(ValueError):
        pg.VnLattice(grid, 5)  # 5 does not divide 24


def test_centers_flat_ordering():
    grid = pg.Grid1D(0.0, 8.0, 8)
    lat = pg.VnLattice(grid, 4)
    c = lat.centers
    # position index runs fastest
    np.testing.assert_allclose(c[:4, 0], lat.centers_x)
    assert np.all(c[:4, 1] == lat.centers_p[0])
    assert np.all(c[4:, 1] == lat.centers_p[1])


def test_mirror_pairs_cells_at_exactly_opposite_momentum():
    for n_x in (1, 2, 3, 6, 10):
        for n_p in range(1, 21):
            if n_x * n_p % 2:  # no grid has an odd number of points
                continue
            for length, hbar in ((10.0, 1.0), (21.7, 0.3), (7.3, 0.125)):
                axis = pg.Grid1D(-1.0, length, n_x * n_p)
                lat = pg.VnLattice(axis, n_x, hbar=hbar)
                assert lat.n_p == n_p
                c = lat.centers
                mir = lat.mirror
                np.testing.assert_array_equal(mir[mir], np.arange(lat.size))
                np.testing.assert_array_equal(c[mir, 0], c[:, 0])
                np.testing.assert_array_equal(c[mir, 1], -c[:, 1])


def test_gaussian_grid_norm():
    # pick a cell near the box center so edge truncation is negligible;
    # grid quadrature of a smooth Gaussian then converges superexponentially
    grid = pg.harmonic_square_grid(36)
    lat = pg.VnLattice(grid, 6)
    m = 3 * 6 + 2
    assert abs(lat.centers[m, 0]) < lat.a  # really the central cell
    g = complex_gaussians(lat)[:, m]
    norm = np.sum(np.abs(g) ** 2) * grid.dx
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_overlap_and_dual_identities():
    grid = pg.harmonic_square_grid(16)
    lat = pg.VnLattice(grid, 4)
    g, s, cond = pg.build_basis(lat, "pvn")
    b, s_inv, cond_b = pg.build_basis(lat, "bvn")
    n = lat.size
    assert np.max(np.abs(s - g.conj().T @ g)) == 0.0
    assert np.max(np.abs(g.conj().T @ b - np.eye(n))) < 1e-10
    assert np.max(np.abs(b.conj().T @ b - s_inv)) < 1e-10
    assert cond == cond_b >= 1.0
    with pytest.raises(ValueError, match="no grid columns"):
        pg.build_basis(lat, "fgh")


@pytest.mark.parametrize("n,n_x,hbar", [(100, 10, 1.0), (400, 20, 0.25),
                                        (72, 8, 1.0), (72, 9, 1.0)])
def test_build_basis_is_bit_identical_to_the_bundle_recipe(n, n_x, hbar):
    # n = 100 and 400 are not multiples of the INV_BLOCK = 128 pairs built
    # at once; 72 = 8 x 9 has a p = 0 row of cells that are their own mirror
    lat = pg.VnLattice(pg.Grid1D(-1.6, 21.7, n), n_x, hbar=hbar)
    g, s, s_inv, b, cond = _reference_basis(lat)
    got_g, got_s, got_cond = pg.build_basis(lat, "pvn")
    got_b, got_s_inv, got_cond_b = pg.build_basis(lat, "bvn")
    assert np.array_equal(got_g, g) and np.array_equal(got_s, s)
    assert np.array_equal(got_b, b) and np.array_equal(got_s_inv, s_inv)
    assert got_cond == got_cond_b == cond


@pytest.mark.parametrize("lattice", [
    (100, 10, 1.0), (400, 20, 0.25), (72, 8, 1.0), (72, 9, 1.0),
    "triangle_desk", "triangle_full", "harmonic_pvn"],
    ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)))
def test_real_columns_are_the_complex_gaussians_by_mirror_pair(lattice):
    # the link to the complex Gaussians g_m: the real G holds sqrt(2) Re g
    # at a pair's lower index and sqrt(2) Im g at its twin (Re g at p = 0),
    # to the rounding of its envelope times cos and sin of the phase
    if isinstance(lattice, str):
        lat = _axis_lattice(lattice)
    else:
        n, n_x, hbar = lattice
        lat = pg.VnLattice(pg.Grid1D(-1.6, 21.7, n), n_x, hbar=hbar)
    m, pair = np.arange(lat.size), lat.mirror
    gc = complex_gaussians(lat)[:, np.minimum(m, pair)]
    g = np.where(m == pair, 1.0, math.sqrt(2.0)) * np.where(
        m <= pair, gc.real, gc.imag)
    assert np.abs(vn_basis._real_columns(lat) - g).max() <= (
        4 * np.finfo(float).eps * np.abs(g).max())


def test_underflowed_gaussian_tails_are_flushed():
    # the efficiency scan's hbar = 1/4 lattice: 20 x 20 cells on 400 points
    grid = pg.Grid1D(-1.6, 21.7, 400)
    lat = pg.VnLattice(grid, 20, hbar=0.25)
    g_real, s, _ = pg.build_basis(lat, "pvn")
    floor = math.sqrt(np.finfo(float).tiny)  # products below it underflow
    mag = np.abs(g_real)
    assert not np.any((mag > 0) & (mag < floor))
    g = _unflushed_columns(lat)
    assert np.mean((g != 0) & (np.abs(g) < floor)) > 0.1  # tails to flush
    assert np.array_equal(g_real, np.where(np.abs(g) < floor, 0.0, g))
    np.testing.assert_allclose(s, g.T @ g, rtol=0, atol=1e-170)


def test_singular_overlap_is_pseudo_inverted_with_a_warning():
    # needle-thin Gaussians: the four momenta of one x center sample to
    # nearly the same grid vector, so S has rank 4 of 16; the
    # cell-centered lattice of natural width stays benign
    lat = pg.VnLattice(pg.Grid1D(-4.0, 8.0, 16), 4, alpha=100.0)
    with pytest.warns(UserWarning, match="overlap pseudo-inverted: "
                      "dropping 12 modes") as caught:
        _, s, _ = pg.build_basis(lat, "pvn")
        _, s_inv, cond = pg.build_basis(lat, "bvn")
    # attributed to the caller of build_basis (Pipeline in a solve)
    assert [w.filename for w in caught] == [__file__]
    assert np.all(np.isfinite(s_inv)) and cond > 1e12
    # S S_inv S = S on the kept span
    np.testing.assert_allclose(s @ s_inv @ s, s, atol=1e-8)
    with pytest.raises(IllConditionedError, match="negative beyond roundoff"):
        vn_basis.metric_root(lambda: s - 0.01 * np.eye(s.shape[0]),
                             "overlap pseudo-inverted",
                             vn_basis.workspace(s.shape[0]))
    benign = pg.VnLattice(pg.harmonic_square_grid(64), 8)
    assert pg.build_basis(benign, "bvn")[2] < 1e4


def test_pvn_bound_never_whitens(monkeypatch):
    # pvn projects with G and S and needs only the bound on cond_1(S): the
    # needle-thin overlap that bvn pseudo-inverts is neither whitened nor
    # warned about, and its bound is the bvn pair's
    lat = pg.VnLattice(pg.Grid1D(-4.0, 8.0, 16), 4, alpha=100.0)
    calls = []
    for module, name in ((np.linalg, "eigh"), (vn_basis, "positive_modes")):
        original = getattr(module, name)

        def record(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cond = pg.build_basis(lat, "pvn")[2]
    assert calls == []
    with pytest.warns(UserWarning, match="dropping 12 modes"):
        assert pg.build_basis(lat, "bvn")[2] == cond
    assert calls == ["positive_modes", "eigh"]  # the recorders see bvn's


@pytest.mark.parametrize("switch", [1e8, 1.0])  # Cholesky, then whitening
@pytest.mark.parametrize("name", SHIPPED)
def test_invert_overlap_matches_the_eigh_formula(name, switch, monkeypatch):
    monkeypatch.setattr(vn_basis, "COND_SWITCH", switch)
    s = _axis_overlap(name)
    w, u = np.linalg.eigh(s)
    oracle = (u / w) @ u.T  # S^-1 on the eigenbasis, the eigh formula
    _, s_inv, cond = _axis_basis(name, "bvn")
    assert 1.0 < cond < 1e4
    np.testing.assert_allclose(s_inv, oracle, rtol=0,
                               atol=1e-13 * np.abs(oracle).max())
    # exactly, so the bvn pencil metric assemble_bvn builds from it is too
    assert np.array_equal(s_inv, s_inv.T)


@pytest.mark.parametrize("name", ["morse_bvn", "triangle_desk"])
def test_meta_cond_s_is_the_axis_cond1_bound(name, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", os.path.join(CONFIGS, f"{name}.cfg"),
                     "--out", str(out), "--quiet"]) == 0
    meta = dict(line.split(" = ", 1)
                for line in (out / "meta.txt").read_text().splitlines())
    _, s, bound = _axis_basis(name, "pvn")
    assert float(meta["cond_s"]) == bound == _axis_basis(name, "bvn")[2]
    # the closed form ||S||_1 ||L^-1||_1 ||L^-1||_inf, to its last digits
    l_inv = np.abs(np.linalg.inv(np.linalg.cholesky(s)))
    s_norm = np.linalg.norm(s, 1)
    assert bound == pytest.approx(
        s_norm * l_inv.sum(0).max() * l_inv.sum(1).max(), rel=1e-12)
    exact = s_norm * np.linalg.norm(np.linalg.inv(s), 1)
    assert exact <= bound <= s.shape[0] * exact


def test_alpha_override_changes_width_not_span():
    grid = pg.Grid1D(-6.0, 12.0, 16)
    narrow = pg.VnLattice(grid, 4, alpha=2.0)
    wide = pg.VnLattice(grid, 4, alpha=0.2)
    g_n = np.abs(complex_gaussians(narrow)[:, 5])
    g_w = np.abs(complex_gaussians(wide)[:, 5])
    # same center, different spread
    spread = lambda g: np.sqrt(np.sum(g**2 * grid.points**2) / np.sum(g**2))
    assert spread(g_w) > spread(g_n)
    np.testing.assert_allclose(narrow.centers, wide.centers)


def test_continuous_matrices_harmonic_only():
    # the closed forms are the Gram matrices of the real mirror pairs
    # r_j = w Re g_j (lower index) and -w Im g_j (its twin), sampled here
    # on a grid 12 wider on each side than the box and fine enough that
    # the sums are the integrals over the line
    for n, n_x in ((16, 4), (36, 6)):
        lat = pg.VnLattice(pg.harmonic_square_grid(n), n_x)
        h, s = pg.continuous_vn_matrices(lat, pg.harmonic())
        assert h.dtype == s.dtype == np.float64
        assert np.array_equal(h, h.T) and np.array_equal(s, s.T)
        fine = pg.Grid1D(lat.axis.x_min - 12, lat.axis.L + 24, 2048)
        x = fine.points[:, None]
        xc, pc = lat.centers.T
        g = ((2 * lat.alpha / math.pi) ** 0.25
             * np.exp(-lat.alpha * (x - xc) ** 2 - 1j * pc * (x - xc)))
        m, pair = np.arange(lat.size), lat.mirror
        r = np.where(m == pair, 1.0, math.sqrt(2.0)) * np.where(
            m <= pair, g.real, -g.imag)
        t = pg.kinetic_matrix(fine, 1.0)
        np.testing.assert_allclose(s, r.T @ r * fine.dx, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            h, r.T @ (t @ r + 0.5 * x**2 * r) * fine.dx, rtol=0, atol=1e-10)
    with pytest.raises(NotAvailableError):
        pg.continuous_vn_matrices(lat, pg.morse())


@pytest.mark.parametrize("n, n_x", [(16, 4), (36, 6), (64, 8), (100, 10)])
def test_vn_levels_are_those_of_the_complex_gaussians(n, n_x):
    # the mirror pairs are a change of basis of the complex Gaussians g_j:
    # the vn Pipeline's levels are those of the Hermitian pencil of g_j,
    # sampled on the wide fine grid and reduced with numpy's Cholesky
    grid = pg.harmonic_square_grid(n)
    lat = pg.VnLattice(grid, n_x)
    levels = pg.Pipeline(pg.harmonic(), (grid,), "vn").solve().energies
    fine = pg.Grid1D(lat.axis.x_min - 12, lat.axis.L + 24, 2048)
    x = fine.points[:, None]
    xc, pc = lat.centers.T
    g = ((2 * lat.alpha / math.pi) ** 0.25
         * np.exp(-lat.alpha * (x - xc) ** 2 - 1j * pc * (x - xc)))
    t = pg.kinetic_matrix(fine, 1.0)
    l_inv = np.linalg.inv(np.linalg.cholesky(g.conj().T @ g * fine.dx))
    h = g.conj().T @ (t @ g + 0.5 * x**2 * g) * fine.dx
    np.testing.assert_allclose(
        levels, np.linalg.eigvalsh(l_inv @ h @ l_inv.conj().T), rtol=0,
        atol=1e-10)


def test_carve_lays_its_arrays_end_to_end_over_the_buffer():
    work = vn_basis.workspace(1)
    a, b, c = vn_basis.carve(work, (2, 3), (0, 5), (4,))
    assert [x.shape for x in (a, b, c)] == [(2, 3), (0, 5), (4,)]
    assert all(x.flags.c_contiguous and x.base is work for x in (a, b, c))
    a[...], c[...] = 1.0, 2.0  # written through to the buffer, in order
    assert np.array_equal(work[:10], [1.0] * 6 + [2.0] * 4)
    with pytest.raises(ValueError):  # a buffer too short for the shapes
        vn_basis.carve(work, (vn_basis.INV_BLOCK, 2))


@pytest.mark.parametrize("n, least, size", [(3, 0, 384), (3, 1000, 1000),
                                            (0, 7, 7)])
def test_workspace_holds_one_block_or_at_least_least(n, least, size):
    work = vn_basis.workspace(n, least)
    assert work.shape == (size,) and work.dtype == np.float64


def test_continuous_lattice_is_variational():
    # Rayleigh-Ritz in a genuine L2 subspace: every estimate sits above the
    # true level. The truncated continuous lattice is known to sit far
    # above, which is exactly why the periodized/dual route exists.
    grid = pg.harmonic_square_grid(36)
    lat = pg.VnLattice(grid, 6)
    h, s = pg.continuous_vn_matrices(lat, pg.harmonic())
    out = pg.solve_generalized(pg.GeneralizedProblem(h, s))
    assert out.energies[0] >= 0.5 - 1e-9
    assert out.energies[0] < 1.5  # localized in the right region all the same


@pytest.mark.parametrize("field", ["hbar", "alpha"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_lattice_rejects_non_finite_hbar_and_alpha(field, value):
    grid = pg.Grid1D(-4.0, 8.0, 16)
    with pytest.raises(ValueError, match=f"{field} = {value} is not finite"):
        pg.VnLattice(grid, 4, **{field: value})
