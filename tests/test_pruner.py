"""Energy-cutoff cell selection and mask plumbing."""

import numpy as np
import pytest

import phasegrid as pg


def _lattice_1d():
    grid = pg.Grid1D(-1.6, 21.7, 100)
    return pg.VnLattice(grid, 10), grid


def test_cell_table_matches_classical_hamiltonian():
    lat, _ = _lattice_1d()
    spec = pg.morse()
    centers, h_cl = pg.cell_table((lat,), spec)
    assert centers.shape == (100, 2)
    assert h_cl.shape == (100,)
    for i in (0, 37, 99):
        x, p = centers[i]
        assert h_cl[i] == pytest.approx(
            p**2 / (2 * spec.mass) + pg.evaluate(spec, x))
    # flat ordering: position index fastest
    np.testing.assert_allclose(centers[:10, 0], lat.centers_x)
    assert np.ptp(centers[:10, 1]) == 0.0


def test_zero_scale_is_a_sharp_threshold():
    lat, _ = _lattice_1d()
    # a cell centered 5e-7 from the Coulomb pole, where the margin is inf
    near = pg.VnLattice(pg.Grid1D(5e-7 - 1.0, 8.0, 16), 4)
    for lats, spec, e_cut in (((lat,), pg.morse(), 12.0),
                              ((near,), pg.coulomb1d(), -0.2)):
        _, h_cl = pg.cell_table(lats, spec)
        mask = pg.select_cells(lats, spec, e_cut, 0.0)
        np.testing.assert_array_equal(mask.kept, h_cl <= e_cut)
        assert 0 < mask.n_kept < mask.size


def test_auto_margin_grows_monotonically():
    lat, _ = _lattice_1d()
    spec = pg.morse()
    kept_sets = []
    for scale in (0.0, 1.0, 2.0):
        mask = pg.select_cells((lat,), spec, 12.0, scale)
        kept_sets.append(set(mask.indices))
    assert kept_sets[0] <= kept_sets[1] <= kept_sets[2]
    assert len(kept_sets[2]) > len(kept_sets[0])


def test_negative_auto_scale_is_rejected():
    lat, _ = _lattice_1d()
    with pytest.raises(ValueError, match="auto_scale"):
        pg.select_cells((lat,), pg.morse(), 1.0, -1.0)


def test_2d_product_cells():
    gx = pg.Grid1D(-6.0, 12.0, 16)
    lat_x = pg.VnLattice(gx, 4)
    lat_y = pg.VnLattice(gx, 4)
    spec = pg.triangle2d(mass=96.0)
    centers, h_cl = pg.cell_table((lat_x, lat_y), spec)
    assert centers.shape == (256, 4)
    assert h_cl.shape == (256,)
    # x-axis cell index runs fastest in the flat product order
    np.testing.assert_allclose(centers[:16, 0], lat_x.centers[:, 0])
    np.testing.assert_allclose(centers[:16, 1], lat_x.centers[:, 1])
    assert np.ptp(centers[:16, 2]) == 0.0 and np.ptp(centers[:16, 3]) == 0.0
    i = 200
    x, px, y, py = centers[i]
    assert h_cl[i] == pytest.approx(
        (px**2 + py**2) / (2 * spec.mass) + pg.evaluate(spec, (x, y)))
    mask = pg.select_cells((lat_x, lat_y), spec, 0.4)
    assert 0 < mask.n_kept < 256


def test_pruning_fraction_shrinks_with_hbar():
    # at fixed e_cut the classically allowed region holds more cells of
    # area 2*pi*hbar as hbar drops, but a smaller fraction of the total
    fractions = []
    for hb in (1.0, 0.5):
        spec = pg.morse(hbar=hb)
        grid = pg.Grid1D(-1.6, 21.7, 100 if hb == 1.0 else 196)
        nx = 10 if hb == 1.0 else 14
        lat = pg.VnLattice(grid, nx, hbar=hb)
        mask = pg.select_cells((lat,), spec, 11.25)
        fractions.append(mask.n_kept / mask.size)
    assert fractions[1] < fractions[0]


def _closed_under_mirror(mask, lats):
    kept = mask.kept.reshape([lat.size for lat in reversed(lats)])
    for axis, lat in enumerate(reversed(lats)):
        if not np.array_equal(kept, np.take(kept, lat.mirror, axis=axis)):
            return False
    return True


@pytest.mark.parametrize("spec", [
    pg.harmonic(), pg.morse(), pg.coulomb1d(),
    pg.tabulated(np.linspace(-8.0, 16.0, 40),
                 0.1 * np.linspace(-8.0, 16.0, 40) ** 2),
    pg.triangle2d()], ids=lambda s: s.kind)
def test_masks_closed_under_mirror(spec):
    # cutoffs equal to cell energies put cells exactly on the edge, so a
    # +p/-p energy that differs in the last bit would split the pair
    x_min = 0.3 if spec.kind == "coulomb1d" else -7.3  # V = inf for x < 0
    for n_x, n_p in ((10, 10), (8, 9), (9, 8), (4, 5)):
        grid = pg.Grid1D(x_min, 15.1, n_x * n_p)
        lat = pg.VnLattice(grid, n_x, hbar=0.7)
        lats = (lat,) * spec.dimension
        _, h_cl = pg.cell_table(lats, spec)
        for e_cut in np.quantile(h_cl, [0.1, 0.3, 0.5], method="nearest"):
            for scale in (1.0, 0.0, 0.25):
                mask = pg.select_cells(lats, spec, e_cut, scale)
                assert 0 < mask.n_kept
                assert _closed_under_mirror(mask, lats), (n_x, n_p, scale)


@pytest.mark.parametrize("e_cut,scale", [(float("nan"), 1.0),
                                         (float("inf"), 1.0),
                                         (12.0, float("nan"))])
def test_select_cells_rejects_non_finite_cut_and_scale(e_cut, scale):
    # a NaN cut used to keep no cell, silently
    lat = pg.VnLattice(pg.Grid1D(-1.6, 21.7, 100), 10, alpha=0.5)
    with pytest.raises(ValueError, match="is not finite"):
        pg.select_cells((lat,), pg.morse(), e_cut, scale)
