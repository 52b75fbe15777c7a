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

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = ("harmonic_pvn", "morse_bvn", "triangle_desk", "triangle_full")


def _axis_basis(name, basis):
    """build_basis of a shipped config's axis (every axis is the same)."""
    cfg = cli._load_config(os.path.join(CONFIGS, f"{name}.cfg"))
    grid = cli._grid_axis(cfg.grid)
    lat = pg.VnLattice(grid, cfg.lattice.nx, hbar=cfg.spec().hbar,
                       alpha=cfg.lattice.alpha)
    return pg.build_basis(lat, basis)


def _axis_overlap(name):
    """The overlap S of a shipped config's axis."""
    return _axis_basis(name, "pvn")[1]


def _reference_basis(lat):
    """(G, S, S^-1, B, cond) by the one-bundle recipe build_basis replaced:
    the full complex G gathered by mirror pair, S^-1 = C C^T from a copy of
    S, then B = G S^-1."""
    m = np.arange(lat.size)
    pair = lat.mirror
    gc = pg.build_G(lat)[:, np.minimum(m, pair)]
    g = np.where(m == pair, 1.0, math.sqrt(2.0)) * np.where(
        m <= pair, gc.real, gc.imag)
    g[np.abs(g) < math.sqrt(np.finfo(float).tiny)] = 0.0
    s = pg.build_overlap(g)
    c, cond = vn_basis.metric_root(s.copy, "overlap pseudo-inverted")
    s_inv = c @ c.conj().T
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
    g = pg.build_G(lat)[:, m]
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


def test_underflowed_gaussian_tails_are_flushed():
    # the efficiency scan's hbar = 1/4 lattice: 20 x 20 cells on 400 points
    grid = pg.Grid1D(-1.6, 21.7, 400)
    lat = pg.VnLattice(grid, 20, hbar=0.25)
    g_real, s, _ = pg.build_basis(lat, "pvn")
    floor = math.sqrt(np.finfo(float).tiny)  # products below it underflow
    mag = np.abs(g_real)
    assert not np.any((mag > 0) & (mag < floor))
    # the unflushed real G, by build_basis's mirror-pair recipe
    m = np.arange(lat.size)
    pair = lat.mirror
    gc = pg.build_G(lat)[:, np.minimum(m, pair)]
    g = np.where(m == pair, 1.0, math.sqrt(2.0)) * np.where(
        m <= pair, gc.real, gc.imag)
    assert np.mean((g != 0) & (np.abs(g) < floor)) > 0.1  # tails to flush
    assert np.array_equal(g_real, np.where(np.abs(g) < floor, 0.0, g))
    np.testing.assert_allclose(s, pg.build_overlap(g), rtol=0,
                               atol=1e-170)


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
                             "overlap pseudo-inverted")
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
    g_n = np.abs(pg.build_G(narrow)[:, 5])
    g_w = np.abs(pg.build_G(wide)[:, 5])
    # same center, different spread
    spread = lambda g: np.sqrt(np.sum(g**2 * grid.points**2) / np.sum(g**2))
    assert spread(g_w) > spread(g_n)
    np.testing.assert_allclose(narrow.centers, wide.centers)


def test_continuous_matrices_harmonic_only():
    grid = pg.harmonic_square_grid(16)
    lat = pg.VnLattice(grid, 4)
    h, s = pg.continuous_vn_matrices(lat, pg.harmonic())
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert np.max(np.abs(s - s.conj().T)) < 1e-12
    assert np.all(np.diag(s).real > 0)
    # diagonal of S is unit-normalized Gaussians
    np.testing.assert_allclose(np.diag(s).real, 1.0, atol=1e-12)
    with pytest.raises(NotAvailableError):
        pg.continuous_vn_matrices(lat, pg.morse())


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
