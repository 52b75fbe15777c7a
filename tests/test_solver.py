"""Generalized eigensolver, convergence counting, pruned assembly."""

import bisect
import math
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
@pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 977])  # about INV_BLOCK
def test_cholesky_inverse_and_condition_bound(n, dtype):
    s = _random_metric(n, dtype, n)
    exact_inv = np.linalg.inv(np.linalg.cholesky(s))
    cond = np.linalg.cond(s, 1)
    a = s.copy()
    a[np.triu_indices(n, 1)] = np.nan  # only the lower triangle is read
    l_inv = vn_basis._cholesky_inverse(a)
    assert l_inv is a and l_inv.dtype == s.dtype  # in S's own memory
    assert np.all(np.triu(l_inv, 1) == 0)
    np.testing.assert_allclose(l_inv, exact_inv, rtol=0,
                               atol=1e-12 * cond * np.abs(exact_inv).max())
    mag = np.abs(l_inv)
    factor, bound = vn_basis._factor(s.copy())
    assert np.array_equal(factor, l_inv)
    assert bound == float(np.abs(s).sum(0).max()
                          * mag.sum(0).max() * mag.sum(1).max())
    exact = np.linalg.norm(s, 1) * np.linalg.norm(np.linalg.inv(s), 1)
    # never below the condition number, at most n times it (up to roundoff)
    assert exact * (1 - 1e-12) <= bound <= n * exact * (1 + 1e-12)
    c, root_cond = vn_basis.metric_root(s.copy, "pencil metric whitened")
    assert root_cond == bound and np.array_equal(c, l_inv.conj().T)


def test_metric_root_calls_lapack_only_on_small_blocks(monkeypatch):
    # a desk-size metric (976 kept cells) is factored and inverted by GEMMs;
    # LAPACK's Cholesky and inverse see only diagonal blocks below INV_BLOCK
    rows = []
    for name in ("cholesky", "inv", "eigh"):
        original = getattr(np.linalg, name)

        def record(m, *args, _original=original, **kwargs):
            rows.append(m.shape[0])
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    s = _random_metric(976, float, 3)
    c, cond = vn_basis.metric_root(s.copy, "pencil metric whitened")
    assert cond < vn_basis.COND_SWITCH and c.shape == s.shape
    # 976 halves to eight 122-row leaves, each one Cholesky and one inverse
    assert rows == [122] * 16 and max(rows) < vn_basis.INV_BLOCK


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


@pytest.mark.parametrize("want_vectors", [False, True])
@pytest.mark.parametrize("switch", [1e8, 1.0])  # Cholesky, whitening
def test_solve_reads_the_callers_pencil_and_repeats(switch, want_vectors,
                                                    monkeypatch):
    monkeypatch.setattr(vn_basis, "COND_SWITCH", switch)
    h, s, d = _random_pencil(9, 1e3, 7)
    h_in, s_in = h.copy(), s.copy()
    prob = pg.GeneralizedProblem(h, s)
    first = pg.solve_generalized(prob, want_vectors=want_vectors)
    assert np.array_equal(h, h_in) and np.array_equal(s, s_in)
    again = pg.solve_generalized(prob, want_vectors=want_vectors)
    assert np.array_equal(first.energies, again.energies)
    np.testing.assert_allclose(first.energies, d, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 127, 300])
def test_congruence_lower_triangle_is_the_dense_formula(n, dtype):
    # with the triangular Cholesky root, n on either side of INV_BLOCK and no
    # multiple of it, the lower triangle written over H is that of C^H H C,
    # also for a real H in a complex metric
    rng = np.random.default_rng(n)
    h = rng.standard_normal((n, n))
    c, cond = vn_basis.metric_root(_random_metric(n, dtype, n + 1).copy, "")
    dense = c.conj().T @ h @ c
    a = vn_basis.congruence(h.copy(), c, cond)
    np.testing.assert_allclose(np.tril(a), np.tril(dense), rtol=0,
                               atol=1e-12 * np.abs(dense).max())
    # a bound above COND_SWITCH comes with a whitening root, n x k and not
    # triangular, which is reduced whole
    w, u = np.linalg.eigh(_random_metric(n, dtype, n + 2))
    c = u[:, n // 2:] / np.sqrt(w[n // 2:])
    dense = c.conj().T @ h @ c
    a = vn_basis.congruence(h.copy(), c, np.inf)
    np.testing.assert_allclose(a, dense, rtol=0,
                               atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("dtype", [float, complex])
def test_whitened_pencil_matches_the_eigh_formula(dtype):
    # S of rank 23 < n = 30 keeps k = 23 modes; the whitening fallback
    # leaves the caller's H and S unwritten and its levels are those of
    # C^H H C with C = U W^-1/2 on the kept eigenpairs of S
    rng = np.random.default_rng(11)
    n, k = 30, 23
    a, h = rng.standard_normal((n, k)), rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, k))
    s = a @ a.conj().T
    h_in, s_in = h.copy(), s.copy()
    w, u = np.linalg.eigh(s)
    c = u[:, -k:] / np.sqrt(w[-k:])
    dense = c.conj().T @ h @ c
    with pytest.warns(UserWarning, match="dropping 7 modes"):
        out = pg.solve_generalized(pg.GeneralizedProblem(h, s))
    assert np.array_equal(h, h_in) and np.array_equal(s, s_in)
    np.testing.assert_allclose(out.energies, np.linalg.eigvalsh(dense),
                               rtol=0, atol=1e-12)


def test_empty_pencil_raises_before_lapack(capfd):
    pipe = pg.Pipeline(pg.morse(), (pg.Grid1D(-1.6, 21.7, 100),), "bvn",
                       n_x=10)
    with pytest.raises(ValueError, match="empty pencil"):
        pipe.solve(pg.PruneMask(np.zeros(100, dtype=bool)))
    assert "DPOCON" not in capfd.readouterr().err


@pytest.mark.parametrize("switch", [1e8, 1.0])  # Cholesky, whitening
def test_integer_pencil_is_solved_in_floats(switch, monkeypatch):
    # S is factored in its own memory, which must not truncate to integers
    monkeypatch.setattr(vn_basis, "COND_SWITCH", switch)
    h, s = np.diag([1, 2, 3]), np.array([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    out = pg.solve_generalized(pg.GeneralizedProblem(h, s))
    np.testing.assert_allclose(out.energies, [1 - 3**-0.5, 1 + 3**-0.5, 3],
                               rtol=1e-14)
    c, _ = vn_basis.metric_root(s.copy, "overlap pseudo-inverted")
    np.testing.assert_allclose(c @ c.conj().T @ s, np.eye(3), atol=1e-15)


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
    lat = pg.VnLattice(grid, 4)
    g, s, _ = pg.build_basis(lat, "pvn")
    out = pg.solve_generalized(pg.assemble_bvn(h, (g,), (s,)))
    np.testing.assert_allclose(out.energies, fgh, rtol=1e-10, atol=1e-12)


def test_unpruned_bvn_reproduces_fgh():
    grid = pg.Grid1D(-1.6, 21.7, 64)
    spec = pg.morse()
    h = pg.hamiltonian_fgh((grid,), spec)
    lat = pg.VnLattice(grid, 8)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    prob = pg.assemble_bvn(h, (b,), (s_inv,), None)
    out = pg.solve_generalized(prob)
    np.testing.assert_allclose(out.energies[:20],
                               np.linalg.eigvalsh(h.to_dense())[:20],
                               rtol=1e-8, atol=1e-10)


def test_pruned_bvn_keeps_low_levels():
    grid = pg.Grid1D(-1.6, 21.7, 100)
    spec = pg.morse()
    h = pg.hamiltonian_fgh((grid,), spec)
    lat = pg.VnLattice(grid, 10, alpha=0.5)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask = pg.select_cells((lat,), spec, 12.0)
    prob = pg.assemble_bvn(h, (b,), (s_inv,), mask)
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
    lat = pg.VnLattice(gx, 4)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    h_op = pg.hamiltonian_fgh(grid, spec)
    mask = pg.PruneMask(kept=np.ones(144, dtype=bool))
    prob = pg.assemble_bvn(h_op, (b, b), (s_inv, s_inv), mask)
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
    lat = pg.VnLattice(gx, 4)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    h_op = pg.hamiltonian_fgh(grid, spec)
    bad = pg.PruneMask(kept=np.ones(63, dtype=bool))
    with pytest.raises(ValueError):
        pg.assemble_bvn(h_op, (b, b), (s_inv, s_inv), bad)


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


@pytest.mark.parametrize("hbars, digits, e_max, bvn", [
    ([1.0], 3, 5.0, [18]), ([1.0], 3, 6.0, [20]), ([1.0], 3, 7.0, [22]),
    ([1.0], 3, 8.0, [20]), ([1.0, 0.5, 0.25], 4, 12.0, [44, 74, 132])])
def test_efficiency_lattice_grid_holds_the_fgh_grid(monkeypatch, hbars,
                                                    digits, e_max, bvn):
    # pruned bvn is a Ritz projection inside its own k*k grid, so that grid
    # needs at least the points fgh needed at the same hbar: at e_max 5-7,
    # sqrt(n_target) alone would give 64 points against fgh's 68-76
    grids = {}

    def pipeline(spec, grid, basis, **kw):
        grids[spec.hbar, basis] = grid[0].N
        return pg.Pipeline(spec, grid, basis, **kw)

    monkeypatch.setattr(solver, "Pipeline", pipeline)
    points = pg.efficiency_scan(pg.morse(), hbars, digits, e_max, -1.6, 21.7)
    assert [p.basis_size for p in points if p.method == "bvn"] == bvn
    for p in points:
        if p.method == "fgh":
            assert grids[p.hbar, "bvn"] >= p.basis_size


def test_efficiency_point_ratio():
    pt = pg.EfficiencyPoint(hbar=1.0, method="bvn", basis_size=28, n_levels=18)
    assert pt.ratio == pytest.approx(28 / 18)


def test_efficiency_scan_probe_sequence(monkeypatch):
    # at hbar=1 the grid search starts at the classical grid 82, gallops up
    # by 2, 4 and 8 to 96 and bisects to 94; the margin scale halves from 1
    # and bisects, each scale's mask solved only when it keeps at least the
    # 24 reference levels' worth of cells and no earlier scale kept the same
    probes = []

    def solve_fgh(axes, spec, n_states=None):
        probes.append(("fgh", spec.hbar, axes[0].N))
        return pg.solve_fgh(axes, spec, n_states=n_states)

    def select_cells(lats, spec, e_cut, auto_scale=1.0):
        mask = pg.select_cells(lats, spec, e_cut, auto_scale)
        probes.append(("scale", spec.hbar, auto_scale, mask.n_kept))
        return mask

    def solve_generalized(problem, n_states=None, want_vectors=False):
        probes.append(("pencil", problem.size))
        return pg.solve_generalized(problem, n_states, want_vectors)

    monkeypatch.setattr(solver, "solve_fgh", solve_fgh)
    monkeypatch.setattr(solver, "select_cells", select_cells)
    monkeypatch.setattr(solver, "solve_generalized", solve_generalized)
    solver.efficiency_scan(pg.morse(), [1.0, 0.5, 0.25], 4, 12.0, -1.6, 21.7)
    assert [p[1:] for p in probes if p[0] != "pencil" and p[1] == 1.0] == (
        [(1.0, n) for n in (82, 84, 88, 96, 92, 94)]
        + [(1.0, s, kept) for s, kept in
           ((1.0, 44), (0.5, 40), (0.75, 40), (0.875, 40), (0.9375, 44))])
    kinds = [p[0] for p in probes]
    assert (kinds.count("fgh"), kinds.count("scale")) == (15, 15)
    # a kept set is solved once: at hbar=1 the scales 0.75 and 0.875 reuse
    # the 40 cells of 0.5 and 0.9375 the 44 of 1, at hbar=1/2 one more repeats
    assert kinds.count("pencil") == 11
    assert [p[1] for p in probes if p[0] == "pencil"][:2] == [44, 40]


@pytest.mark.parametrize("limit, step",
                         [(4096, 2), (100, 2), (16.0, 0.0625)])
def test_smallest_is_the_brute_force_threshold(limit, step):
    # the scan's two lattices (even grid sizes to 4096, dyadic margin scales
    # to 16) and a limit that is no power-of-two multiple of a start; the
    # search may start anywhere, on or off the lattice, past the limit too,
    # and gallop by any first distance, below one step or past the limit
    values = [step * i for i in range(1, round(limit / step) + 1)]
    for t in values + [v - step / 2 for v in values] + [limit + step]:
        want = values[bisect.bisect_left(values, t)] if t <= limit else None
        starts = {step / 2, t - step, t - step / 2, t, t + step, limit,
                  2 * limit}
        for start in sorted(s for s in starts if s > 0):
            for first in (step / 3, step, start / 32, start, limit):
                probed = []

                def passes(v):
                    probed.append(v)
                    return v >= t

                if t > limit:
                    with pytest.raises(BudgetExceededError):
                        solver._smallest(passes, start, limit, step, first)
                else:
                    assert solver._smallest(passes, start, limit, step,
                                            first) == want
                assert len(set(probed)) == len(probed)  # never probes twice
                assert all(0 < v <= limit and (v / step).is_integer()
                           for v in probed)


def test_smallest_from_one_by_one_halves_and_doubles():
    # the margin search's recipe (start 1, first distance 1, dyadic scales
    # to 16) probes exactly as a search that halves from 1 while it passes
    # or doubles until it does, then bisects
    def halve_or_double(passes, step=0.0625, limit=16.0):
        hi = 1.0
        if passes(hi):
            lo = step * (hi // (2 * step))
            while lo > 0 and passes(lo):
                hi, lo = lo, step * (lo // (2 * step))
        else:
            while hi < limit:
                lo, hi = hi, min(2 * hi, limit)
                if passes(hi):
                    break
            else:
                return
        while hi - lo > step:
            mid = step * math.ceil((lo + hi) / (2 * step))
            lo, hi = (lo, mid) if passes(mid) else (mid, hi)

    for t in [0.0625 * i for i in range(1, 258)]:
        probed, want = [], []
        halve_or_double(lambda v: want.append(v) or v >= t)
        try:
            solver._smallest(lambda v: probed.append(v) or v >= t,
                             1.0, 16.0, 0.0625, 1.0)
        except BudgetExceededError:
            assert t > 16.0
        assert probed == want
