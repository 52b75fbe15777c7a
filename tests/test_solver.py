"""Generalized eigensolver, convergence counting, pruned assembly."""

import bisect
import os

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import cli, solver, vn_basis
from phasegrid.errors import (BudgetExceededError, IllConditionedError,
                              NotAvailableError)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _random_pencil(n, cond, seed):
    """H = A^T D A, S = A^T A with known eigenvalues D and metric cond."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sing = np.geomspace(1.0, 1.0 / np.sqrt(cond), n)
    a = (q * sing) @ np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = np.sort(rng.uniform(-3.0, 5.0, n))
    h = a.T @ np.diag(d) @ a
    s = a.T @ a
    return h, s, d


def _record_whitening(monkeypatch) -> list:
    """The `what` of every whitened metric: overlaps and pencils alike."""
    whitened = []
    original = vn_basis.positive_modes

    def positive_modes(s, what):
        whitened.append(what)
        return original(s, what)

    monkeypatch.setattr(vn_basis, "positive_modes", positive_modes)
    return whitened


def test_generalized_solver_both_branches(monkeypatch):
    # the Cholesky route (well conditioned) and the whitening route
    # (ill conditioned, nothing discarded) must both return D
    whitened = _record_whitening(monkeypatch)
    for cond, seed, route in ((1e2, 0, []),
                              (1e10, 1, ["pencil metric whitened"])):
        whitened.clear()
        h, s, d = _random_pencil(12, cond, seed)
        out = pg.solve_generalized(pg.GeneralizedProblem(h, s))
        np.testing.assert_allclose(out.energies, d, rtol=1e-7, atol=1e-9)
        assert whitened == route


def _random_metric(n, dtype, seed):
    """Hermitian positive definite S with 1-norm condition number ~1e4."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return (q * np.geomspace(1.0, 1e-4, n)) @ q.conj().T


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 7, 130, 300])  # both sides of INV_BLOCK
def test_lower_inverse_and_condition_bound(n, dtype):
    s = _random_metric(n, dtype, n)
    l = np.linalg.cholesky(s)
    l_inv = vn_basis._lower_inverse(l)
    assert l_inv.dtype == s.dtype
    np.testing.assert_allclose(l_inv @ l, np.eye(n), rtol=0, atol=1e-12)
    assert np.all(np.triu(l_inv, 1) == 0)
    s_norm = np.linalg.norm(s, 1)
    exact = s_norm * np.linalg.norm(np.linalg.inv(s), 1)
    bound = vn_basis._cond1_bound(s_norm, l_inv)
    # never below the condition number, at most n times it (up to roundoff)
    assert exact * (1 - 1e-12) <= bound <= n * exact * (1 + 1e-12)


def test_shipped_pencils_take_the_cholesky_route(tmp_path, monkeypatch):
    # every shipped overlap's and pencil's bound is far below COND_SWITCH:
    # none is whitened
    whitened = _record_whitening(monkeypatch)
    runs = [["solve", name] for name in ("harmonic_pvn", "morse_bvn",
                                          "triangle_desk")]
    runs.append(["sweep", "harmonic_pvn"])
    for i, (command, name) in enumerate(runs):
        assert cli.main([command, "--config",
                         os.path.join(CONFIGS, f"{name}.cfg"),
                         "--out", str(tmp_path / str(i)), "--quiet"]) == 0
    assert whitened == []


def test_generalized_solver_rejects_indefinite_metric():
    h = np.eye(3)
    s = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(IllConditionedError):
        pg.solve_generalized(pg.GeneralizedProblem(h, s))


def test_whitening_warns_for_every_dropped_mode():
    # S = A A^T with A 8x7 has rank 7: the whitened pencil keeps range(A),
    # where H = A D A^T has exactly the levels D
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 7))
    d = np.sort(rng.uniform(-3.0, 5.0, 7))
    prob = pg.GeneralizedProblem(a @ np.diag(d) @ a.T, a @ a.T)
    with pytest.warns(UserWarning, match="pencil metric whitened: "
                      "dropping 1 modes") as caught:
        out = pg.solve_generalized(prob)
    assert [w.filename for w in caught] == [__file__]  # the solver's caller
    assert out.energies.shape == (7,) and np.all(np.isfinite(out.energies))
    np.testing.assert_allclose(out.energies, d, rtol=0, atol=1e-9)


def test_empty_pencil_raises_before_lapack(capfd):
    pipe = pg.Pipeline(pg.morse(), (pg.Grid1D(-1.6, 21.7, 100),), "bvn",
                       n_x=10)
    with pytest.raises(ValueError, match="empty pencil"):
        pipe.solve(pg.PruneMask(np.zeros(100, dtype=bool)))
    assert "DPOCON" not in capfd.readouterr().err


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        pg.GeneralizedProblem(np.eye(3), np.eye(4))


def test_eigenvector_metric_normalization():
    h, s, d = _random_pencil(8, 1e3, 3)
    out = pg.solve_generalized(pg.GeneralizedProblem(h, s),
                               want_vectors=True)
    gram = out.eigenvectors.T @ s @ out.eigenvectors
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)


def test_matching_tolerance():
    assert pg.count_converged([7.5], [7.5], 12, 10.0) == 1
    # 3 significant digits on 7.5: half a unit in the third digit
    tol = 0.5e-2 * 7.5
    assert pg.count_converged([7.5 + 0.9 * tol], [7.5], 3, 10.0) == 1
    assert pg.count_converged([7.5 + 1.1 * tol], [7.5], 3, 10.0) == 0


def test_count_converged_stops_at_first_miss():
    ref = np.array([1.0, 2.0, 3.0, 4.0])
    test = np.array([1.0, 9.0, 3.0, 4.0])
    # levels 3 and 4 agree but the run is broken at level 2
    assert pg.count_converged(test, ref, 6, 10.0) == 1
    assert pg.count_converged(ref, ref, 12, 3.5) == 3  # e_max filters
    assert pg.count_converged(ref[:2], ref, 12, 10.0) == 2  # short test list


def test_pvn_reproduces_fgh_exactly():
    grid = pg.harmonic_square_grid(16)
    spec = pg.harmonic()
    h = pg.hamiltonian_fgh((grid,), spec)
    fgh = np.linalg.eigvalsh(h.to_dense())
    lat = pg.VnLattice.from_grid(grid, 4)
    bundle = pg.build_basis(lat, grid)
    out = pg.solve_generalized(pg.assemble_bvn(h, (bundle.G,), (bundle.S,)))
    np.testing.assert_allclose(out.energies, fgh, rtol=1e-10, atol=1e-12)


def test_unpruned_bvn_reproduces_fgh():
    grid = pg.Grid1D(-1.6, 21.7, 64)
    spec = pg.morse()
    h = pg.hamiltonian_fgh((grid,), spec)
    lat = pg.VnLattice.from_grid(grid, 8)
    bundle = pg.build_basis(lat, grid)
    prob = pg.assemble_bvn(h, (bundle.B,), (bundle.S_inv,), None)
    out = pg.solve_generalized(prob)
    np.testing.assert_allclose(out.energies[:20],
                               np.linalg.eigvalsh(h.to_dense())[:20],
                               rtol=1e-8, atol=1e-10)


def test_pruned_bvn_keeps_low_levels():
    grid = pg.Grid1D(-1.6, 21.7, 100)
    spec = pg.morse()
    h = pg.hamiltonian_fgh((grid,), spec)
    lat = pg.VnLattice.from_grid(grid, 10, alpha=0.5)
    bundle = pg.build_basis(lat, grid)
    mask = pg.select_cells((lat,), spec, 12.0)
    prob = pg.assemble_bvn(h, (bundle.B,), (bundle.S_inv,), mask)
    assert prob.size == mask.n_kept < 100
    out = pg.solve_generalized(prob)
    ref = pg.analytic_levels(spec)
    assert pg.count_converged(out.energies, ref, 4, 12.0) == ref.size


def test_bvn_2d_full_mask_equals_dense_fgh():
    gx = pg.Grid1D(-6.0, 12.0, 12)
    grid = (gx, gx)
    spec = pg.triangle2d(mass=30.0)
    dense_vals = np.linalg.eigvalsh(
        pg.hamiltonian_fgh(grid, spec).to_dense())
    lat = pg.VnLattice.from_grid(gx, 4)
    bundle = pg.build_basis(lat, gx)
    h_op = pg.hamiltonian_fgh(grid, spec)
    mask = pg.PruneMask(kept=np.ones(144, dtype=bool))
    prob = pg.assemble_bvn(h_op, (bundle.B, bundle.B),
                           (bundle.S_inv, bundle.S_inv), mask)
    out = pg.solve_generalized(prob)
    np.testing.assert_allclose(out.energies[:30], dense_vals[:30],
                               rtol=1e-8, atol=1e-9)


def test_unmasked_2d_bvn_pipeline_equals_dense_fgh():
    # without a mask the pipeline keeps every cell: the full basis
    gx = pg.Grid1D(-6.0, 12.0, 16)
    spec = pg.triangle2d(mass=30.0)
    bvn = pg.Pipeline(spec, (gx, gx), "bvn").solve()
    fgh = pg.Pipeline(spec, (gx, gx), "fgh").solve()
    assert bvn.energies.size == fgh.energies.size == 256
    np.testing.assert_allclose(bvn.energies, fgh.energies, rtol=0, atol=1e-10)


def test_bvn_2d_mask_length_checked():
    gx = pg.Grid1D(-6.0, 12.0, 8)
    grid = (gx, gx)
    spec = pg.triangle2d(mass=30.0)
    lat = pg.VnLattice.from_grid(gx, 4)
    bundle = pg.build_basis(lat, gx)
    h_op = pg.hamiltonian_fgh(grid, spec)
    bad = pg.PruneMask(kept=np.ones(63, dtype=bool))
    with pytest.raises(ValueError):
        pg.assemble_bvn(h_op, (bundle.B, bundle.B),
                        (bundle.S_inv, bundle.S_inv), bad)


def test_pipeline_rejects_2d_vn():
    # vn's analytic integrals are 1-d; Pipeline is the one place that says so
    gx = pg.Grid1D(-6.0, 12.0, 8)
    grid = (gx, gx)
    spec = pg.triangle2d(mass=30.0)
    with pytest.raises(NotAvailableError,
                       match="basis 'vn' supports only 1-d grids"):
        pg.Pipeline(spec, grid, "vn")
    for basis in ("pvn", "bvn"):
        assert pg.Pipeline(spec, grid, basis, n_x=4).basis == basis


def test_efficiency_scan_needs_levels_below_cutoff():
    with pytest.raises(ValueError):
        pg.efficiency_scan(pg.morse(), [1.0], 3, 1e-6, -1.6, 21.7)


def test_efficiency_scan_lattice_side_is_even():
    # sqrt(n_target) rounds to 9 at hbar=1.25; an odd side would give an
    # odd k*k grid, which Grid1D rejects
    points = pg.efficiency_scan(pg.morse(), [1.25], 4, 12.0, -1.6, 21.7)
    assert [p.method for p in points] == ["fgh", "bvn"]


def test_efficiency_point_ratio():
    pt = pg.EfficiencyPoint(hbar=1.0, method="bvn", basis_size=28, n_levels=18)
    assert pt.ratio == pytest.approx(28 / 18)


def test_efficiency_scan_probe_sequence(monkeypatch):
    # at hbar=1 the grid search starts at the phase-space estimate 102,
    # halves to 50 and bisects to 94; the margin scale halves from 1 and
    # bisects, each scale's mask solved only when it keeps at least the 24
    # reference levels' worth of cells
    probes = []

    def solve_fgh(axes, spec, n_states=None):
        probes.append(("fgh", spec.hbar, axes[0].N))
        return pg.solve_fgh(axes, spec, n_states=n_states)

    def select_cells(lats, spec, e_cut, auto_scale=1.0):
        mask = pg.select_cells(lats, spec, e_cut, auto_scale)
        probes.append(("scale", spec.hbar, auto_scale, mask.n_kept))
        return mask

    monkeypatch.setattr(solver, "solve_fgh", solve_fgh)
    monkeypatch.setattr(solver, "select_cells", select_cells)
    solver.efficiency_scan(pg.morse(), [1.0, 0.5, 0.25], 4, 12.0, -1.6, 21.7)
    assert [p[1:] for p in probes if p[1] == 1.0] == (
        [(1.0, n) for n in (102, 50, 76, 90, 96, 94, 92)]
        + [(1.0, s, kept) for s, kept in
           ((1.0, 44), (0.5, 40), (0.75, 40), (0.875, 40), (0.9375, 44))])
    kinds = [p[0] for p in probes]
    assert (kinds.count("fgh"), kinds.count("scale")) == (23, 15)


@pytest.mark.parametrize("limit, step",
                         [(4096, 2), (100, 2), (16.0, 0.0625)])
def test_smallest_is_the_brute_force_threshold(limit, step):
    # the scan's two lattices (even grid sizes to 4096, dyadic margin scales
    # to 16) and a limit that is no power-of-two multiple of a start; the
    # search may start anywhere, on or off the lattice, past the limit too
    values = [step * i for i in range(1, round(limit / step) + 1)]
    for t in values + [v - step / 2 for v in values] + [limit + step]:
        want = values[bisect.bisect_left(values, t)] if t <= limit else None
        starts = {step / 2, t - step, t - step / 2, t, t + step, limit,
                  2 * limit}
        for start in sorted(s for s in starts if s > 0):
            probed = []

            def passes(v):
                probed.append(v)
                return v >= t

            if t > limit:
                with pytest.raises(BudgetExceededError):
                    solver._smallest(passes, start, limit, step)
            else:
                assert solver._smallest(passes, start, limit, step) == want
            assert len(set(probed)) == len(probed)  # never probes twice
            assert all(0 < v <= limit and (v / step).is_integer()
                       for v in probed)
