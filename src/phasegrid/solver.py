"""Generalized eigenproblems in nonorthogonal bases and basis-size scans.

The grid Hamiltonian H is re-expressed in a Gaussian (pvN) or biorthogonal
(bvN) basis as H' U = S' U E. Because the bases span the same space as the
grid, the unpruned spectra coincide with the grid spectrum; pruning removes
bvN columns and the eigenvalues below the cutoff survive.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import BudgetExceededError, IllConditionedError
from .fourier_grid import (FghOperator2D, Grid1D, hamiltonian_fgh, solve_fgh)
from .potentials import PotentialSpec, analytic_levels
from .pruner import PruneMask, PruneRule, select_cells
from .spectra import Spectrum, make_spectrum
from .vn_basis import VnLattice, build_basis


@dataclass(frozen=True)
class GeneralizedProblem:
    """Pencil (H, S) with S the basis overlap (metric)."""

    h: np.ndarray
    s: np.ndarray
    basis_label: str

    def __post_init__(self):
        if self.h.shape != self.s.shape or self.h.shape[0] != self.h.shape[1]:
            raise ValueError("H and S must be square and congruent")

    @property
    def size(self) -> int:
        return self.h.shape[0]


def assemble_pvn(h_grid: np.ndarray, g: np.ndarray) -> GeneralizedProblem:
    """Project the grid Hamiltonian onto the Gaussian columns of G."""
    hg = h_grid @ g
    h = g.conj().T @ hg
    s = g.conj().T @ g
    return GeneralizedProblem(0.5 * (h + h.conj().T), 0.5 * (s + s.conj().T),
                              "pvn")


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
    hb = h_grid @ bk
    h = bk.conj().T @ hb
    return GeneralizedProblem(0.5 * (h + h.conj().T), 0.5 * (s + s.conj().T),
                              "bvn")


def assemble_bvn_2d(h_op, bx: np.ndarray, by: np.ndarray,
                    sx_inv: np.ndarray, sy_inv: np.ndarray,
                    mask: PruneMask) -> GeneralizedProblem:
    """Two-dimensional pruned projection with a Kronecker-factored basis.

    The kept columns of kron(By, Bx) are materialized individually (never
    the full product), the Hamiltonian is applied through `h_op` (dense
    matrix or operator with an apply method), and the metric entries
    factorize as Sy_inv[cy, cy'] * Sx_inv[cx, cx'].
    """
    nx = bx.shape[1]
    idx = mask.indices
    if mask.size != nx * by.shape[1]:
        raise ValueError("mask length does not match the product basis size")
    cx = idx % nx
    cy = idx // nx
    bk = np.einsum("yk,xk->yxk", by[:, cy], bx[:, cx])
    bk = bk.reshape(by.shape[0] * bx.shape[0], idx.size)
    hb = h_op.apply(bk) if isinstance(h_op, FghOperator2D) else h_op @ bk
    h = bk.conj().T @ hb
    s = sy_inv[np.ix_(cy, cy)] * sx_inv[np.ix_(cx, cx)]
    return GeneralizedProblem(0.5 * (h + h.conj().T), 0.5 * (s + s.conj().T),
                              "bvn")


def solve_generalized(problem: GeneralizedProblem,
                      n_states: int | None = None,
                      want_vectors: bool = False,
                      cond_switch: float = 1e8,
                      rcond: float = 1e-12) -> Spectrum:
    """Solve H U = S U E for a Hermitian pencil with positive metric.

    A metric whose Cholesky factor exists and whose LAPACK condition
    estimate stays within cond_switch goes through the Cholesky-based
    generalized solver. Otherwise the metric is eigendecomposed, directions
    below rcond * lambda_max are discarded and the problem is solved in the
    whitened subspace; a significantly negative metric eigenvalue is
    rejected. Eigenvectors are computed only when want_vectors is set.
    """
    h = 0.5 * (problem.h + problem.h.conj().T)
    s = 0.5 * (problem.s + problem.s.conj().T)
    try:
        c = scipy.linalg.cholesky(s)
        pocon = scipy.linalg.get_lapack_funcs("pocon", (c,))
        rc, _ = pocon(c, np.linalg.norm(s, 1))  # estimate of 1 / cond_1(S)
    except scipy.linalg.LinAlgError:
        rc = 0.0
    if rc * cond_switch >= 1.0:
        white, a, b = None, h, s
    else:
        w, u = np.linalg.eigh(s)
        if w[-1] <= 0:
            raise IllConditionedError("metric has no positive direction")
        if w[0] < -rcond * w[-1]:
            raise IllConditionedError(
                f"metric eigenvalue {w[0]:.3e} is negative beyond roundoff")
        keep = w > rcond * w[-1]
        white = u[:, keep] / np.sqrt(w[keep])
        a, b = white.conj().T @ h @ white, None
    out = scipy.linalg.eigh(a, b, eigvals_only=not want_vectors)
    vals, vecs = out if want_vectors else (out, None)
    if want_vectors:
        vecs = (vecs if white is None else white @ vecs)[:, :n_states]
    return make_spectrum(vals[:n_states], problem.basis_label, problem.size,
                         vectors=vecs)


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
    t = np.asarray(getattr(test, "energies", test), dtype=float)
    r = np.asarray(getattr(reference, "energies", reference), dtype=float)
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


@dataclass(frozen=True)
class EfficiencyPolicy:
    """Fixed search recipe so scans are reproducible.

    The grid box is held fixed while hbar varies. Grid sizes double from
    n_start until the levels converge, then bisect to the smallest even
    size. The pruned scan runs on its own square k x k lattice whose grid
    momentum range covers the classical p at e_max with p_pad headroom, and
    bisects the scale of the per-cell selection margin down to scale_tol.
    """

    x_min: float
    box_length: float
    n_start: int = 16
    n_budget: int = 4096
    p_pad: float = 1.25
    scale_tol: float = 0.0625
    rcond: float = 1e-12

    def __post_init__(self):
        if self.n_start < 2 or self.n_start % 2:
            raise ValueError("n_start must be even and >= 2")
        if self.n_budget < self.n_start:
            raise ValueError("n_budget below n_start")


def _fgh_converges(policy, spec, n, ref, digits, e_max):
    grid = Grid1D(policy.x_min, policy.box_length, n)
    out = solve_fgh(grid, spec)
    return count_converged(out.energies, ref, digits, e_max) == ref.size


def efficiency_scan(spec: PotentialSpec, hbars: Sequence[float], digits: int,
                    e_max: float, policy: EfficiencyPolicy) -> list:
    """Minimal grid and minimal pruned-basis sizes across hbar values.

    For each hbar the analytic levels below e_max are the reference; the
    scan reports one point per method with the basis size and the
    size-per-level ratio. Exhausting the grid-size budget raises a budget
    error carrying the points finished so far.
    """
    points = []
    for hb in hbars:
        sp = replace(spec, hbar=hb)
        ref = analytic_levels(sp)
        ref = ref[ref < e_max]
        if ref.size == 0:
            raise ValueError(f"no levels below {e_max} at hbar={hb}")

        n = policy.n_start
        while not _fgh_converges(policy, sp, n, ref, digits, e_max):
            n *= 2
            if n > policy.n_budget:
                raise BudgetExceededError(
                    f"grid budget {policy.n_budget} exceeded at hbar={hb}",
                    partial=points)
        lo, hi = n // 2, n
        while hi - lo > 2:
            mid = (lo + hi) // 2
            mid += mid % 2
            if _fgh_converges(policy, sp, mid, ref, digits, e_max):
                hi = mid
            else:
                lo = mid
        n_min = hi
        points.append(EfficiencyPoint(hb, "fgh", n_min, int(ref.size)))

        p_max = math.sqrt(2.0 * sp.mass * e_max)
        n_target = policy.box_length * policy.p_pad * p_max / (math.pi * hb)
        # even k, so the k*k grid has an even number of points
        k = 2 * max(1, round(math.sqrt(n_target) / 2))
        grid = Grid1D(policy.x_min, policy.box_length, k * k)
        h_grid = hamiltonian_fgh(grid, sp)
        lattice = VnLattice.from_grid(grid, k, k, hbar=hb)
        basis = build_basis(lattice, grid, rcond=policy.rcond,
                            allow_pseudo=True)

        def bvn_converges(scale):
            mask = select_cells(lattice, sp,
                                PruneRule(e_max, "auto", auto_scale=scale))
            if mask.n_kept < ref.size:
                return False, mask.n_kept
            prob = assemble_bvn(h_grid, basis.B, basis.S_inv, mask)
            out = solve_generalized(prob)
            ok = count_converged(out.energies, ref, digits, e_max) == ref.size
            return ok, mask.n_kept

        s_lo, s_hi = 0.0, 1.0
        ok, kept = bvn_converges(s_hi)
        tries = 0
        while not ok:
            tries += 1
            if tries > 4:
                raise BudgetExceededError(
                    f"margin search failed at hbar={hb}", partial=points)
            s_lo, s_hi = s_hi, 2.0 * s_hi
            ok, kept = bvn_converges(s_hi)
        while s_hi - s_lo > policy.scale_tol:
            mid = 0.5 * (s_lo + s_hi)
            ok_mid, kept_mid = bvn_converges(mid)
            if ok_mid:
                s_hi, kept = mid, kept_mid
            else:
                s_lo = mid
        points.append(EfficiencyPoint(hb, "bvn", kept, int(ref.size)))
    return points
