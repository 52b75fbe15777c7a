"""Acceptance gate: one reported pass/fail line per criterion.

Each test prints a single `[acceptance] ...` line with the measured
quantity, the tolerance it is held to, and the wall time against the
stated budget. Tolerances are fixed here, not computed from the run.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

import phasegrid as pg
from phasegrid.vn_basis import balanced_factors
from pencil_oracle import grid_pencil


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"{tag}: {detail}"


# spec, grid axis, dimension, n_x, alpha, e_cut and margin scale: the
# morse_bvn config at scale 1 (44 of 100 cells) and triangle_desk (976/4096)
MECHANISM = {
    "morse": (pg.morse(), pg.Grid1D(-1.6, 21.7, 100), 1, 10, 0.5, 12.0, 1.0),
    "desk": (pg.triangle2d(), pg.Grid1D(-8.0, 16.0, 64), 2, 8, None, 0.4,
             1.5),
}


@functools.lru_cache(maxsize=None)
def _grid_levels(case: str) -> np.ndarray:
    """Every level of a MECHANISM case's dense grid Hamiltonian, solved once
    per run: C06 and C13 share the 4096-point desk reference."""
    spec, axis, dim = MECHANISM[case][:3]
    return pg.solve_fgh((axis,) * dim, spec).energies


def test_c01_pvn_spectrum_equals_fgh():
    """Every pvn eigenvalue matches fgh to 1e-8 relative, N in {8,16,32}."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (8, 16, 32):
        grid = pg.harmonic_square_grid(n)
        h = pg.hamiltonian_fgh((grid,), pg.harmonic())
        fgh = np.linalg.eigvalsh(h.to_dense())
        lat = pg.VnLattice(grid, balanced_factors(n)[0])
        g, s, _ = pg.build_basis(lat, "pvn")
        pvn = pg.solve_generalized(grid_pencil(h, (g,), (s,))).energies
        worst = max(worst, float(np.max(np.abs(pvn - fgh) / np.abs(fgh))))
    dt = time.perf_counter() - t0
    _report("C01 pvn == fgh spectrum",
            worst <= 1e-8 and dt < 1.0,
            f"max rel dev {worst:.2e} (tol 1e-8), {dt:.2f} s (budget 1 s)")


def _n16_pieces():
    grid = pg.harmonic_square_grid(16)
    spec = pg.harmonic()
    h = pg.hamiltonian_fgh((grid,), spec)
    lat = pg.VnLattice(grid, 4)
    pair = pg.build_basis(lat, "pvn")[:2]
    return grid, spec, h, lat, pair


def test_c02_baseline_gap_and_kinetic_ladder():
    """vn baseline err >= 1e-2 at the tracked level; kinetic ladder to 1e-8."""
    t0 = time.perf_counter()
    grid, spec, h, lat, (g, s) = _n16_pieces()
    h_vn, s_vn = pg.continuous_vn_matrices(lat, spec)
    vn = pg.solve_generalized(pg.GeneralizedProblem(h_vn, s_vn))
    vn_err = abs(vn.energies[7] - 7.5)
    t_mat = pg.kinetic_matrix(grid, 1.0)
    t_ref = np.linalg.eigvalsh(t_mat)
    t_op = pg.FghOperator((t_mat,), np.zeros(grid.N))
    t_pvn = pg.solve_generalized(
        grid_pencil(t_op, (g,), (s,))).energies
    scale = max(abs(t_ref[-1]), 1.0)
    ladder_dev = float(np.max(np.abs(t_pvn - t_ref))) / scale
    dt = time.perf_counter() - t0
    _report("C02 continuous-lattice gap + kinetic ladder",
            vn_err >= 1e-2 and ladder_dev <= 1e-8 and dt < 5.0,
            f"vn |E7-7.5| {vn_err:.2e} (floor 1e-2), kinetic ladder dev "
            f"{ladder_dev:.2e} (tol 1e-8), {dt:.2f} s (budget 5 s)")


@pytest.mark.xfail(strict=True,
                   reason="N=16 grid floor for the tracked level is 9.55e-5; "
                          "1e-5 is not reachable at this grid size")
def test_c02_tracked_level_error_below_1e5():
    """pvn |E7 - 7.5| <= 1e-5 at N=16: held red, floor is ~9.5e-5."""
    _, _, h, _, (g, s) = _n16_pieces()
    pvn = pg.solve_generalized(grid_pencil(h, (g,), (s,))).energies
    err = abs(pvn[7] - 7.5)
    print(f"[acceptance] C02 tracked-level 1e-5 clause: measured "
          f"|E7-7.5| = {err:.3e} vs required 1e-5", flush=True)
    assert err <= 1e-5


def test_c03_morse_grid_all_bound_levels():
    """All 24 bound levels to 4 significant digits on the 100-point box."""
    t0 = time.perf_counter()
    spec = pg.morse()
    out = pg.solve_fgh((pg.Grid1D(-1.6, 21.7, 100),), spec)
    ref = pg.analytic_levels(spec)
    n_ok = pg.count_converged(out.energies, ref, digits=4, e_max=12.0)
    worst = float(np.max(np.abs(out.energies[:24] - ref) / np.abs(ref)))
    dt = time.perf_counter() - t0
    _report("C03 morse fgh 24 bound levels",
            ref.size == 24 and n_ok == 24 and dt < 5.0,
            f"{n_ok}/24 levels at 4 digits (worst rel {worst:.2e}), "
            f"{dt:.2f} s (budget 5 s)")


def test_c04_morse_pruned_basis_size_and_accuracy():
    """Pruned 10x10 lattice: 44..52 kept and all 24 levels at 4 digits."""
    t0 = time.perf_counter()
    spec = pg.morse()
    grid = pg.Grid1D(-1.6, 21.7, 100)
    lat = pg.VnLattice(grid, 10, alpha=0.5)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask = pg.select_cells((lat,), spec, 12.0)
    prob = grid_pencil(pg.hamiltonian_fgh((grid,), spec),
                       (b,), (s_inv,), mask)
    out = pg.solve_generalized(prob)
    ref = pg.analytic_levels(spec)
    n_ok = pg.count_converged(out.energies, ref, digits=4, e_max=12.0)
    dt = time.perf_counter() - t0
    _report("C04 morse pruned bvn",
            44 <= mask.n_kept <= 52 and n_ok == 24 and dt < 5.0,
            f"kept {mask.n_kept} (window [44, 52]), {n_ok}/24 levels at "
            f"4 digits, {dt:.2f} s (budget 5 s)")


def test_c05_efficiency_ratio_trend():
    """bvn ratio strictly decreasing over hbar, final < 1.5, fgh >= bvn."""
    t0 = time.perf_counter()
    points = pg.efficiency_scan(pg.morse(), [1.0, 0.5, 0.25], digits=3,
                                e_max=11.25, x_min=-1.6, length=21.7)
    bvn = [p.ratio for p in points if p.method == "bvn"]
    fgh = [p.ratio for p in points if p.method == "fgh"]
    decreasing = all(b > a for b, a in zip(bvn, bvn[1:]))
    dominated = all(f >= b for f, b in zip(fgh, bvn))
    dt = time.perf_counter() - t0
    _report("C05 efficiency trend over hbar",
            decreasing and bvn[-1] < 1.5 and dominated and dt < 600.0,
            f"bvn ratios {[round(r, 3) for r in bvn]} (strictly decreasing, "
            f"final < 1.5), fgh {[round(r, 3) for r in fgh]} >= bvn, "
            f"{dt:.1f} s (budget 600 s)")


def test_c06_triangle_2d_pruned_vs_grid_reference():
    """64x64 well: <= 40% of the cells reproduce every low level to 1e-3."""
    t0 = time.perf_counter()
    spec = pg.triangle2d()
    gx = pg.Grid1D(-8.0, 16.0, 64)
    grid = (gx, gx)
    e_cut = 0.4
    ref = _grid_levels("desk")  # the dense eigvalsh of this grid
    ref = ref[ref < e_cut]
    lat = pg.VnLattice(gx, 8)
    b, s_inv, _ = pg.build_basis(lat, "bvn")
    mask = pg.select_cells((lat, lat), spec, e_cut, 1.5)
    h_op = pg.hamiltonian_fgh(grid, spec)
    prob = grid_pencil(h_op, (b, b), (s_inv, s_inv), mask)
    out = pg.solve_generalized(prob)
    dev = float(np.max(np.abs(out.energies[:ref.size] - ref)))
    frac = mask.n_kept / mask.size
    dt = time.perf_counter() - t0
    _report("C06 triangle well pruned 2-d",
            ref.size >= 80 and frac <= 0.40 and dev < 1e-3 and dt < 900.0,
            f"{ref.size} reference levels below {e_cut}, kept "
            f"{mask.n_kept}/{mask.size} ({100 * frac:.1f}% <= 40%), max "
            f"|dE| {dev:.2e} (tol 1e-3), {dt:.1f} s (budget 900 s)")


def test_c07_state_count_exact_vs_enumeration():
    """Exact binomial count equals enumeration for g <= 12, D <= 4."""
    t0 = time.perf_counter()
    mismatches = 0
    for d in range(1, 5):
        for g in range(13):
            count = sum(1 for combo in itertools.product(range(g + 1),
                                                         repeat=d)
                        if sum(combo) <= g)
            if count != pg.state_count_exact(g, d):
                mismatches += 1
    cross = pg.state_count_exact(30, 2)
    dt = time.perf_counter() - t0
    _report("C07 state counting",
            mismatches == 0 and cross == 496 and dt < 10.0,
            f"0 mismatches over g<=12, D<=4 ({mismatches} found), "
            f"C(32,2) check {cross} == 496, {dt:.2f} s (budget 10 s)")


def test_c08_mc_volume_vs_simplex_law():
    """Harmonic MC within 3 sigma of v^D/D!; anharmonic sum strictly below."""
    t0 = time.perf_counter()
    spec = pg.harmonic()
    v = 2.0 * math.pi * 8.0
    zs = []
    for d in (1, 2, 3):
        est = pg.mc_phase_volume(spec, d, 8.0, 10**6 // d, seed=1234)
        exact = v**d / math.factorial(d)
        zs.append((est.value - exact) / est.std_error)
    harmonic_ok = all(abs(z) <= 3.0 for z in zs)
    morse = pg.morse()
    v1 = pg.phase_area_1d(morse, 8.0)
    est2 = pg.mc_phase_volume(morse, 2, 8.0, 500000, seed=99)
    below = est2.value + 3.0 * est2.std_error < v1**2 / 2.0
    dt = time.perf_counter() - t0
    _report("C08 MC phase-space volume",
            harmonic_ok and below and dt < 120.0,
            f"harmonic z-scores {[round(z, 2) for z in zs]} (|z| <= 3), "
            f"morse-sum 2-d {est2.value:.1f} < simplex {v1**2 / 2.0:.1f} "
            f"by > 3 sigma, {dt:.1f} s (budget 120 s)")


def test_c09_packing_ratio_quarter_pi():
    """Orbit-to-box area ratio of the quadratic well is pi/4."""
    t0 = time.perf_counter()
    # the D = 1 box ratio that scaling.csv writes
    ratio = pg.scaling_report(pg.harmonic(), (1,), 8.0,
                              n_samples=1000)[0].box_ratio
    dev = abs(ratio - math.pi / 4)
    dt = time.perf_counter() - t0
    _report("C09 packing ratio",
            dev <= 1e-6 and dt < 1.0,
            f"|ratio - pi/4| = {dev:.2e} (tol 1e-6), {dt:.2f} s (budget 1 s)")


def test_c10_linear_algebra_identities():
    """Dual-basis identities to 1e-8; eigenvalues congruence-invariant."""
    t0 = time.perf_counter()
    setups = [
        (pg.harmonic_square_grid(16), 4, 4, None),
        (pg.harmonic_square_grid(36), 6, 6, None),
        (pg.Grid1D(-1.6, 21.7, 100), 10, 10, 0.5),
    ]
    worst = 0.0
    for grid, nx, npp, alpha in setups:
        lat = pg.VnLattice(grid, nx, alpha=alpha)
        g, s, _ = pg.build_basis(lat, "pvn")
        b, s_inv, _ = pg.build_basis(lat, "bvn")
        eye = np.eye(lat.size)
        worst = max(worst,
                    float(np.max(np.abs(g.conj().T @ b - eye))),
                    float(np.max(np.abs(b.conj().T @ b - s_inv))),
                    float(np.max(np.abs(s - g.conj().T @ g))))
    rng = np.random.default_rng(42)
    n = 12
    a = rng.standard_normal((n, n))
    h0 = a + a.T
    base = pg.solve_generalized(pg.GeneralizedProblem(h0, np.eye(n)))
    cong = 0.0
    for _ in range(5):
        t = rng.standard_normal((n, n)) + np.eye(n)
        h1 = t.T @ h0 @ t
        s1 = t.T @ t
        out = pg.solve_generalized(pg.GeneralizedProblem(h1, s1))
        cong = max(cong, float(np.max(np.abs(out.energies - base.energies)
                                      / np.maximum(np.abs(base.energies),
                                                   1e-30))))
    dt = time.perf_counter() - t0
    _report("C10 dual-basis identities + congruence",
            worst <= 1e-8 and cong <= 1e-9 and dt < 10.0,
            f"identity residual {worst:.2e} (tol 1e-8), congruence rel dev "
            f"{cong:.2e} (tol 1e-9), {dt:.2f} s (budget 10 s)")


def test_c11_efficiency_classical_limit():
    """C05 down to hbar = 1/16: (bvn ratio - 1) shrinks about as sqrt(hbar)."""
    t0 = time.perf_counter()
    hbars = [1.0, 0.5, 0.25, 0.125, 0.0625]
    points = pg.efficiency_scan(pg.morse(), hbars, digits=3, e_max=11.25,
                                x_min=-1.6, length=21.7)
    bvn = [p.ratio for p in points if p.method == "bvn"]
    factors = [(b - 1.0) / (a - 1.0) for a, b in zip(bvn, bvn[1:])]
    decreasing = all(b < a for a, b in zip(bvn, bvn[1:]))
    # measured: final ratio 1.132, factors 0.64-0.73 around sqrt(1/2) = 0.707
    in_window = all(0.6 <= f <= 0.8 for f in factors)
    dt = time.perf_counter() - t0
    _report("C11 efficiency classical limit",
            decreasing and bvn[-1] < 1.15 and in_window and dt < 60.0,
            f"bvn ratios {[round(r, 3) for r in bvn]} (strictly decreasing, "
            f"final < 1.15), (ratio - 1) factors "
            f"{[round(f, 3) for f in factors]} (window [0.6, 0.8]), "
            f"{dt:.1f} s (budget 60 s)")


def _lowdin_columns(lat):
    """W = G S^(-1/2): the Loewdin-orthonormalized real Gaussians (metric I).

    A test oracle only: the package projects onto G (pvn) and B (bvn), and
    this third set shows that it is the biorthogonal partner, not any
    recombination of the Gaussians, whose pruning keeps the low levels.
    """
    g = pg.build_basis(lat, "pvn")[0]
    w, u = np.linalg.eigh(g.T @ g)
    return g @ (u / np.sqrt(w)) @ u.T


@pytest.mark.parametrize("case", sorted(MECHANISM))
def test_c13_pruning_keeps_levels_in_the_biorthogonal_set_only(case):
    """At one mask, bvn is >= 10x closer to the grid than pvn and Loewdin.

    The budget covers the grid reference too, unless C06 solved it first.
    """
    t0 = time.perf_counter()
    spec, axis, dim, n_x, alpha, e_cut, scale = MECHANISM[case]
    axes = (axis,) * dim
    ref = _grid_levels(case)
    bvn = pg.Pipeline(spec, axes, "bvn", n_x=n_x, alpha=alpha)
    pvn = pg.Pipeline(spec, axes, "pvn", n_x=n_x, alpha=alpha)
    mask = pg.select_cells(bvn.lattices, spec, e_cut, scale)
    w = _lowdin_columns(bvn.lattices[0])
    lowdin = grid_pencil(pg.hamiltonian_fgh(axes, spec), (w,) * dim,
                         (np.eye(w.shape[1]),) * dim, mask)
    levels = {"bvn": bvn.solve(mask).energies,
              "pvn": pvn.solve(mask).energies,
              "Loewdin": pg.solve_generalized(lowdin).energies}
    n_below = int(np.count_nonzero(ref < e_cut))
    err = {k: float(np.max(np.abs(e[:n_below] - ref[:n_below])))
           for k, e in levels.items()}
    # all three are Ritz values of the grid Hamiltonian on a subspace:
    # level i of each lies at or above the grid's level i
    above = min(float(np.min(e - ref[:e.size])) for e in levels.values())
    factor = min(err["pvn"], err["Loewdin"]) / err["bvn"]
    dt = time.perf_counter() - t0
    _report(f"C13 pruned bvn vs pvn and Loewdin, {case}",
            factor >= 10.0 and above >= -1e-10 and dt < 120.0,
            f"kept {mask.n_kept}/{mask.size}, max |E - E_fgh| below {e_cut}: "
            + ", ".join(f"{k} {v:.2e}" for k, v in err.items())
            + f" (pvn and Loewdin >= 10x bvn: {factor:.1f}x), min E_i - "
            f"E_fgh,i {above:.1e} (>= -1e-10), {dt:.1f} s (budget 120 s)")
