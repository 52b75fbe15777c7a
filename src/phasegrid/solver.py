"""Generalized eigenproblems in nonorthogonal bases and basis-size scans.

The grid Hamiltonian H is re-expressed in a Gaussian (pvN) or biorthogonal
(bvN) basis as H' U = S' U E. Because the bases span the same space as the
grid, the unpruned spectra coincide with the grid spectrum; pruning removes
bvN columns and the eigenvalues below the cutoff survive. `Pipeline` runs
the whole chain (grid, lattice, basis, pruned pencil, eigensolve) for every
basis; the command line and the efficiency scan both go through it.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, NotAvailableError
from .fourier_grid import FghOperator2D, Grid1D, hamiltonian_fgh, solve_fgh
from .potentials import PotentialSpec, analytic_levels
from .pruner import PruneMask, select_cells
from .spectra import Spectrum
from .vn_basis import (VnLattice, balanced_factors, build_basis,
                       continuous_vn_matrices, positive_modes)

# solve_generalized whitens a metric whose LAPACK cond estimate exceeds this
COND_SWITCH = 1e8


@dataclass(frozen=True)
class GeneralizedProblem:
    """Pencil (H, S) with S the basis overlap (metric).

    H and S need to be Hermitian only up to roundoff: `solve_generalized`
    symmetrizes both, once.
    """

    h: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.s.shape or self.h.shape[0] != self.h.shape[1]:
            raise ValueError("H and S must be square and congruent")

    @property
    def size(self) -> int:
        return self.h.shape[0]


def assemble_pvn(h_grid: np.ndarray, g: np.ndarray,
                 s: np.ndarray) -> GeneralizedProblem:
    """Project the grid Hamiltonian onto G, whose overlap S is the metric."""
    return GeneralizedProblem(g.conj().T @ (h_grid @ g), s)


def assemble_bvn(h_grid: np.ndarray, b: np.ndarray, s_inv: np.ndarray,
                 mask: PruneMask | None = None) -> GeneralizedProblem:
    """Project onto (a kept subset of) the biorthogonal columns of B.

    The metric of the biorthogonal functions is S^-1, restricted to the
    kept rows and columns.
    """
    if mask is None:
        bk = b
        s = s_inv
    else:
        idx = mask.indices
        bk = b[:, idx]
        s = s_inv[np.ix_(idx, idx)]
    return GeneralizedProblem(bk.conj().T @ (h_grid @ bk), s)


def assemble_bvn_2d(h_op: FghOperator2D, bx: np.ndarray, by: np.ndarray,
                    sx_inv: np.ndarray, sy_inv: np.ndarray,
                    mask: PruneMask) -> GeneralizedProblem:
    """Two-dimensional pruned projection with a Kronecker-factored basis.

    Kept cell k = (cx, cy) is the column kron(By[:, cy], Bx[:, cx]), which is
    never formed. With W[x] = By^H (Ty + diag v[:, x]) By and Sy = By^H By,
    the rows of one cy = a take one GEMM over the grid x,
    H[rows] = Bx[:, cx_rows]^H (W[x, a, cy] Bx[:, cx] + Sy[a, cy] (Tx Bx)[:, cx]),
    and S[k, k'] = Sy_inv[cy, cy'] Sx_inv[cx, cx'], so memory stays
    O(n_kept^2 + Ny^2 Nx). `solve_generalized` symmetrizes the pencil.
    """
    ncx = bx.shape[1]
    idx = mask.indices
    if mask.size != ncx * by.shape[1]:
        raise ValueError("mask length does not match the product basis size")
    cx, cy = idx % ncx, idx // ncx
    v2d = h_op.v_diag.reshape(by.shape[0], bx.shape[0])
    w = np.tensordot(v2d, by.conj()[:, :, None] * by[:, None, :], axes=(0, 0))
    w += by.conj().T @ h_op.ty @ by
    sy = by.conj().T @ by
    bxk, tbxk = bx[:, cx], (h_op.tx @ bx)[:, cx]
    h = np.empty((idx.size, idx.size), np.result_type(bx, by, h_op.tx))
    s = np.empty((idx.size, idx.size), np.result_type(sx_inv, sy_inv))
    for a in np.unique(cy):  # idx ascends: the rows of one cy are a block
        lo, hi = np.searchsorted(cy, [a, a + 1])
        op = w[:, a, cy] * bxk + sy[a, cy] * tbxk
        h[lo:hi] = bxk[:, lo:hi].conj().T @ op
        s[lo:hi] = sx_inv[np.ix_(cx[lo:hi], cx)] * sy_inv[a, cy]
    return GeneralizedProblem(h, s)


def solve_generalized(problem: GeneralizedProblem,
                      n_states: int | None = None,
                      want_vectors: bool = False) -> Spectrum:
    """Solve H U = S U E for a Hermitian pencil with positive metric.

    A metric whose Cholesky factor exists and whose LAPACK condition
    estimate stays within COND_SWITCH goes through the Cholesky-based
    generalized solver. Otherwise the problem is solved in the subspace
    that `positive_modes` keeps, whitened; each dropped direction is
    warned about. Eigenvectors are computed only when want_vectors is set.
    """
    if problem.size == 0:
        raise ValueError("empty pencil: no basis function to solve for")
    import scipy.linalg  # deferred: the scaling path never needs it

    # private Fortran-ordered copies, which LAPACK overwrites in place
    h = 0.5 * np.add(problem.h, problem.h.conj().T, order="F")
    s = 0.5 * np.add(problem.s, problem.s.conj().T, order="F")
    try:
        pocon = scipy.linalg.get_lapack_funcs("pocon", (s,))
        s_norm = np.linalg.norm(s, 1)  # taken before the factor exists
        rc, _ = pocon(scipy.linalg.cholesky(s), s_norm)  # ~ 1 / cond_1(S)
    except scipy.linalg.LinAlgError:
        rc = 0.0
    if rc * COND_SWITCH >= 1.0:
        white, a, b = None, h, s
    else:
        w, u, _ = positive_modes(s, "pencil metric whitened")
        white = u / np.sqrt(w)
        a, b = white.conj().T @ h @ white, None
    out = scipy.linalg.eigh(a, b, eigvals_only=not want_vectors,
                            overwrite_a=True, overwrite_b=True)
    if not want_vectors:
        return Spectrum(out[:n_states])
    vals, vecs = out
    vecs = vecs if white is None else white @ vecs
    return Spectrum(vals[:n_states], vecs[:, :n_states])


class Pipeline:
    """One basis solve, built once and solved for any number of masks.

    basis is "fgh" (the grid itself), "vn" (raw Gaussians, analytic
    integrals), "pvn" (periodized Gaussians) or "bvn" (their biorthogonal
    partners). Every non-grid basis puts an n_x x n_p lattice (`shape`,
    balanced factors of the axis size by default) on each grid axis; a 2-d
    grid supports fgh and bvn only. The lattices, the real basis bundles,
    the grid Hamiltonian and `info` (cond_s) are made here, so repeated
    `solve` calls with different masks reuse them.
    """

    def __init__(self, spec: PotentialSpec, grid, basis: str,
                 shape: tuple | None = None, alpha: float | None = None):
        axes = (grid,) if isinstance(grid, Grid1D) else (grid.gx, grid.gy)
        if basis not in ("fgh", "vn", "pvn", "bvn"):
            raise ValueError(f"unknown basis {basis!r}")
        if len(axes) > 1 and basis in ("vn", "pvn"):
            raise NotAvailableError(f"basis '{basis}' supports only 1-d grids")
        self.spec, self.grid, self.basis = spec, grid, basis
        self.lattices, self.bundles, self.info, self.h_grid = (), (), {}, None
        if basis == "fgh":
            return
        n_x, n_p = shape or balanced_factors(axes[0].N)
        self.lattices = tuple(VnLattice.from_grid(g, n_x, n_p, hbar=spec.hbar,
                                                  alpha=alpha) for g in axes)
        if basis == "vn":
            return
        self.bundles = tuple(build_basis(lat, g)
                             for lat, g in zip(self.lattices, axes))
        self.info["cond_s"] = max(b.cond_S for b in self.bundles)
        self.h_grid = hamiltonian_fgh(grid, spec)

    def solve(self, mask: PruneMask | None = None,
              n_states: int | None = None) -> Spectrum:
        """Lowest n_states levels (all by default) on the kept bvn cells.

        mask applies to bvn only; a 2-d bvn solve requires one.
        """
        if self.basis == "fgh":
            return solve_fgh(self.grid, self.spec, n_states=n_states)
        if self.basis == "vn":
            h, s = continuous_vn_matrices(self.lattices[0], self.spec)
            problem = GeneralizedProblem(h, s)
        elif self.basis == "pvn":
            b = self.bundles[0]
            problem = assemble_pvn(self.h_grid, b.G, b.S)
        elif len(self.bundles) == 1:
            b = self.bundles[0]
            problem = assemble_bvn(self.h_grid, b.B, b.S_inv, mask)
        elif mask is None:
            raise ValueError("a 2-d bvn solve needs a prune mask")
        else:
            bx, by = self.bundles
            problem = assemble_bvn_2d(self.h_grid, bx.B, by.B, bx.S_inv,
                                      by.S_inv, mask)
        return solve_generalized(problem, n_states=n_states)


def matching_tolerance(value: float, digits: int) -> float:
    """Absolute tolerance for agreement to `digits` significant digits.

    The usual relative-error criterion: |delta| <= 0.5 * 10^(1-digits) *
    |value|. A reference of exactly zero falls back to the decimal-place
    tolerance 0.5 * 10^-digits.
    """
    if value == 0.0:
        return 0.5 * 10.0 ** (-digits)
    return 0.5 * 10.0 ** (1 - digits) * abs(value)


def count_converged(test, reference, digits: int, e_max: float) -> int:
    """Length of the leading run of levels matching the reference.

    Compares level i of `test` to level i of `reference` for every
    reference level below e_max; a level matches when it agrees to `digits`
    significant digits (relative error at most half a unit in the last
    counted digit). The count stops at the first miss so accidental
    agreement further up cannot inflate it.
    """
    t = np.asarray(test, dtype=float)
    r = np.asarray(reference, dtype=float)
    r = r[r < e_max]
    n = 0
    for i in range(r.size):
        if i >= t.size or abs(t[i] - r[i]) > matching_tolerance(r[i], digits):
            break
        n += 1
    return n


@dataclass(frozen=True)
class EfficiencyPoint:
    """Smallest basis reproducing the target levels, for one method."""

    hbar: float
    method: str
    basis_size: int
    n_levels: int

    @property
    def ratio(self) -> float:
        return self.basis_size / self.n_levels


# Fixed search recipe, so scans are reproducible. Grid sizes double from
# N_START until the levels converge (above N_BUDGET the scan gives up), then
# bisect to the smallest even size. The pruned scan runs on its own square
# k x k lattice whose grid momentum range covers the classical p at e_max
# with P_PAD headroom, and bisects the margin scale down to SCALE_TOL.
N_START = 16
N_BUDGET = 4096
P_PAD = 1.25
SCALE_TOL = 0.0625


def _fgh_converges(x_min, length, spec, n, ref, digits, e_max):
    grid = Grid1D(x_min, length, n)
    out = Pipeline(spec, grid, "fgh").solve()
    return count_converged(out.energies, ref, digits, e_max) == ref.size


def _min_pruned_size(x_min, length, spec, ref, digits, e_max, points):
    """Fewest kept bvn cells reproducing ref, over the margin scale.

    The pipeline lives only for this call, so no two hbar bases coexist.
    """
    p_max = math.sqrt(2.0 * spec.mass * e_max)
    n_target = length * P_PAD * p_max / (math.pi * spec.hbar)
    # even k, so the k*k grid has an even number of points
    k = 2 * max(1, round(math.sqrt(n_target) / 2))
    grid = Grid1D(x_min, length, k * k)
    pipe = Pipeline(spec, grid, "bvn", shape=(k, k))

    def bvn_converges(scale):
        mask = select_cells(pipe.lattices, spec, e_max, scale)
        if mask.n_kept < ref.size:
            return False, mask.n_kept
        out = pipe.solve(mask)
        ok = count_converged(out.energies, ref, digits, e_max) == ref.size
        return ok, mask.n_kept

    s_lo, s_hi = 0.0, 1.0
    ok, kept = bvn_converges(s_hi)
    tries = 0
    while not ok:
        tries += 1
        if tries > 4:
            raise BudgetExceededError(
                f"margin search failed at hbar={spec.hbar}", partial=points)
        s_lo, s_hi = s_hi, 2.0 * s_hi
        ok, kept = bvn_converges(s_hi)
    while s_hi - s_lo > SCALE_TOL:
        mid = 0.5 * (s_lo + s_hi)
        ok_mid, kept_mid = bvn_converges(mid)
        if ok_mid:
            s_hi, kept = mid, kept_mid
        else:
            s_lo = mid
    return kept


def efficiency_scan(spec: PotentialSpec, hbars: Sequence[float], digits: int,
                    e_max: float, x_min: float, length: float) -> list:
    """Minimal grid and minimal pruned-basis sizes across hbar values.

    The box [x_min, x_min + length] stays fixed while hbar varies. For each
    hbar the analytic levels below e_max are the reference; the scan
    reports one point per method with the basis size and the size-per-level
    ratio. Exhausting the grid-size budget raises a budget error carrying
    the points finished so far.
    """
    points = []
    for hb in hbars:
        sp = replace(spec, hbar=hb)
        ref = analytic_levels(sp, n_max=N_BUDGET)  # no scanned grid holds more
        ref = ref[ref < e_max]
        if ref.size == 0:
            raise ValueError(f"no levels below {e_max} at hbar={hb}")

        n = N_START
        while not _fgh_converges(x_min, length, sp, n, ref, digits, e_max):
            n *= 2
            if n > N_BUDGET:
                raise BudgetExceededError(
                    f"grid budget {N_BUDGET} exceeded at hbar={hb}",
                    partial=points)
        lo, hi = n // 2, n
        while hi - lo > 2:
            mid = (lo + hi) // 2
            mid += mid % 2
            if _fgh_converges(x_min, length, sp, mid, ref, digits, e_max):
                hi = mid
            else:
                lo = mid
        points.append(EfficiencyPoint(hb, "fgh", hi, int(ref.size)))

        kept = _min_pruned_size(x_min, length, sp, ref, digits, e_max, points)
        points.append(EfficiencyPoint(hb, "bvn", kept, int(ref.size)))
    return points
