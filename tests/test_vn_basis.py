"""Phase-space lattices, overlap matrices, and the biorthogonal dual set."""

import math
import os

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import cli, vn_basis
from phasegrid.errors import IllConditionedError, NotAvailableError
from phasegrid.vn_basis import balanced_factors

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = ("harmonic_pvn", "morse_bvn", "triangle_desk", "triangle_full")


def _axis_overlap(name):
    """The overlap S of a shipped config's axis (every axis is the same)."""
    cfg = cli._load_config(os.path.join(CONFIGS, f"{name}.cfg"))
    grid = cli._grid_axis(cfg.grid)
    lat = pg.VnLattice.from_grid(grid, cfg.lattice.nx, hbar=cfg.spec().hbar,
                                 alpha=cfg.lattice.alpha)
    return pg.build_basis(lat, grid).S


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
        lat = pg.VnLattice.from_grid(grid, n_x, hbar=0.7)
        assert lat.a * lat.dp == pytest.approx(2 * math.pi * 0.7)
        assert lat.size == 24
        assert lat.centers_x.size == n_x
        assert lat.centers_p.size == n_p
        # centers stay inside the box and inside the momentum span
        assert lat.centers_x.min() > -5.0 and lat.centers_x.max() < 5.0
        assert np.max(np.abs(lat.centers_p)) < math.pi * 0.7 / grid.dx
    with pytest.raises(ValueError):
        pg.VnLattice.from_grid(grid, 5)  # 5 does not divide 24


def test_centers_flat_ordering():
    grid = pg.Grid1D(0.0, 8.0, 8)
    lat = pg.VnLattice.from_grid(grid, 4)
    c = lat.centers
    # position index runs fastest
    np.testing.assert_allclose(c[:4, 0], lat.centers_x)
    assert np.all(c[:4, 1] == lat.centers_p[0])
    assert np.all(c[4:, 1] == lat.centers_p[1])


def test_mirror_pairs_cells_at_exactly_opposite_momentum():
    for n_x in (1, 3, 6, 10):
        for n_p in range(1, 21):
            for length, hbar in ((10.0, 1.0), (21.7, 0.3), (7.3, 0.125)):
                lat = pg.VnLattice(-1.0, length, n_x, n_p, hbar=hbar)
                c = lat.centers
                mir = lat.mirror
                np.testing.assert_array_equal(mir[mir], np.arange(lat.size))
                np.testing.assert_array_equal(c[mir, 0], c[:, 0])
                np.testing.assert_array_equal(c[mir, 1], -c[:, 1])


def test_gaussian_grid_norm():
    # pick a cell near the box center so edge truncation is negligible;
    # grid quadrature of a smooth Gaussian then converges superexponentially
    grid = pg.harmonic_square_grid(36)
    lat = pg.VnLattice.from_grid(grid, 6)
    m = 3 * 6 + 2
    assert abs(lat.centers[m, 0]) < lat.a  # really the central cell
    g = pg.build_G(lat, grid)[:, m]
    norm = np.sum(np.abs(g) ** 2) * grid.dx
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_overlap_and_dual_identities():
    grid = pg.harmonic_square_grid(16)
    lat = pg.VnLattice.from_grid(grid, 4)
    bundle = pg.build_basis(lat, grid)
    n = lat.size
    assert np.max(np.abs(bundle.S - bundle.G.conj().T @ bundle.G)) == 0.0
    assert np.max(np.abs(bundle.G.conj().T @ bundle.B - np.eye(n))) < 1e-10
    assert np.max(np.abs(bundle.B.conj().T @ bundle.B - bundle.S_inv)) < 1e-10
    assert bundle.cond_S >= 1.0


def test_underflowed_gaussian_tails_are_flushed():
    # the efficiency scan's hbar = 1/4 lattice: 20 x 20 cells on 400 points
    grid = pg.Grid1D(-1.6, 21.7, 400)
    lat = pg.VnLattice.from_grid(grid, 20, hbar=0.25)
    bundle = pg.build_basis(lat, grid)
    floor = math.sqrt(np.finfo(float).tiny)  # products below it underflow
    mag = np.abs(bundle.G)
    assert not np.any((mag > 0) & (mag < floor))
    # the unflushed real G, by build_basis's mirror-pair recipe
    m = np.arange(lat.size)
    pair = lat.mirror
    gc = pg.build_G(lat, grid)[:, np.minimum(m, pair)]
    g = np.where(m == pair, 1.0, math.sqrt(2.0)) * np.where(
        m <= pair, gc.real, gc.imag)
    assert np.mean((g != 0) & (np.abs(g) < floor)) > 0.1  # tails to flush
    assert np.array_equal(bundle.G, np.where(np.abs(g) < floor, 0.0, g))
    np.testing.assert_allclose(bundle.S, pg.build_overlap(g), rtol=0,
                               atol=1e-170)


def test_singular_overlap_is_pseudo_inverted_with_a_warning():
    # a duplicated Gaussian column makes the overlap exactly singular;
    # the cell-centered lattice itself stays benign
    grid = pg.harmonic_square_grid(64)
    lat = pg.VnLattice.from_grid(grid, 8)
    g = pg.build_G(lat, grid)
    s = pg.build_overlap(np.column_stack([g, g[:, 27]]))
    with pytest.warns(UserWarning, match="overlap pseudo-inverted: "
                      "dropping 1 modes") as caught:
        s_inv, cond = pg.invert_overlap(s)
    # attributed to the caller of invert_overlap (build_basis in a Pipeline)
    assert [w.filename for w in caught] == [__file__]
    assert np.all(np.isfinite(s_inv)) and cond > 1e12
    # S S_inv S = S on the kept span
    np.testing.assert_allclose(s @ s_inv @ s, s, atol=1e-8)
    with pytest.raises(IllConditionedError, match="negative beyond roundoff"):
        pg.invert_overlap(s - 0.01 * np.eye(s.shape[0]))
    assert pg.build_basis(lat, grid).cond_S < 1e4


@pytest.mark.parametrize("switch", [1e8, 1.0])  # Cholesky, then whitening
@pytest.mark.parametrize("name", SHIPPED)
def test_invert_overlap_matches_the_eigh_formula(name, switch, monkeypatch):
    monkeypatch.setattr(vn_basis, "COND_SWITCH", switch)
    s = _axis_overlap(name)
    w, u = np.linalg.eigh(s)
    oracle = (u / w) @ u.T  # S^-1 on the eigenbasis, the eigh formula
    s_inv, cond = pg.invert_overlap(s)
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
    s = _axis_overlap(name)
    l_inv = vn_basis._lower_inverse(np.linalg.cholesky(s))
    s_norm = np.linalg.norm(s, 1)
    bound = vn_basis._cond1_bound(s_norm, l_inv)
    exact = s_norm * np.linalg.norm(np.linalg.inv(s), 1)
    assert float(meta["cond_s"]) == bound
    assert exact <= bound <= s.shape[0] * exact


def test_alpha_override_changes_width_not_span():
    grid = pg.Grid1D(-6.0, 12.0, 16)
    narrow = pg.VnLattice.from_grid(grid, 4, alpha=2.0)
    wide = pg.VnLattice.from_grid(grid, 4, alpha=0.2)
    g_n = np.abs(pg.build_G(narrow, grid)[:, 5])
    g_w = np.abs(pg.build_G(wide, grid)[:, 5])
    # same center, different spread
    spread = lambda g: np.sqrt(np.sum(g**2 * grid.points**2) / np.sum(g**2))
    assert spread(g_w) > spread(g_n)
    np.testing.assert_allclose(narrow.centers, wide.centers)


def test_continuous_matrices_harmonic_only():
    grid = pg.harmonic_square_grid(16)
    lat = pg.VnLattice.from_grid(grid, 4)
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
    lat = pg.VnLattice.from_grid(grid, 6)
    h, s = pg.continuous_vn_matrices(lat, pg.harmonic())
    out = pg.solve_generalized(pg.GeneralizedProblem(h, s))
    assert out.energies[0] >= 0.5 - 1e-9
    assert out.energies[0] < 1.5  # localized in the right region all the same
