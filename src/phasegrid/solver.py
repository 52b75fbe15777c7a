"""Generalized eigenproblems in nonorthogonal bases and basis-size scans.

The grid Hamiltonian H is re-expressed in a Gaussian (pvN) or biorthogonal
(bvN) basis as H' U = S' U E. Because the bases span the same space as the
grid, the unpruned spectra coincide with the grid spectrum; pruning removes
bvN columns and the eigenvalues below the cutoff survive. One Kronecker
assembly, `assemble_bvn`, serves both bases and every grid: pvN projects
onto G with metric S, bvN onto B with metric S^-1, and a 1-d grid is the
2-d path with a one-point y axis. `Pipeline` runs the whole chain (grid,
lattice, basis, pruned pencil, eigensolve) for every basis; the command
line and the efficiency scan both go through it.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, NotAvailableError
from .fourier_grid import FghOperator, Grid1D, hamiltonian_fgh, solve_fgh
from .potentials import PotentialSpec, analytic_levels
from .pruner import PruneMask, select_cells
from .spectra import BASES, Spectrum
from .vn_basis import (VnLattice, balanced_factors, build_basis, carve,
                       congruence, continuous_vn_matrices, metric_root,
                       workspace)


class GeneralizedProblem:
    """Pencil (H, S) with S the basis overlap (metric), built when needed.

    `h(work)` and `s(work)` each return a new array that their caller owns
    and may overwrite; work is a buffer from the problem's `workspace()`,
    from which a builder carves its temporaries (it makes one if none is
    given). GeneralizedProblem(h, s) holds two dense arrays and never lets
    them be written: `h()` and `s()` copy them.
    `GeneralizedProblem.deferred(size, build_h, build_s, workspace)` holds
    two functions that build new arrays, so the eigensolve can make S,
    factor it in its own memory and free it before H exists, and the one
    that makes the buffer they need; `assemble_bvn` returns one. H and S
    need to be Hermitian only up to roundoff: nothing symmetrizes them, and
    LAPACK reads one triangle of S and of C^H H C.
    """

    def __init__(self, h: np.ndarray, s: np.ndarray):
        if h.shape != s.shape or h.shape[0] != h.shape[1]:
            raise ValueError("H and S must be square and congruent")
        self.size = h.shape[0]
        self.h = lambda work=None: h.copy()
        self.s = lambda work=None: s.copy()
        self.workspace = lambda: workspace(self.size,
                                           np.result_type(h, s, 1.0))

    @classmethod
    def deferred(cls, size: int, build_h, build_s,
                 make_workspace) -> "GeneralizedProblem":
        problem = cls.__new__(cls)
        problem.size, problem.h, problem.s = size, build_h, build_s
        problem.workspace = make_workspace
        return problem


def assemble_bvn(h_op: FghOperator, cols: tuple, metrics: tuple,
                 mask: PruneMask | None = None) -> GeneralizedProblem:
    """Projection onto the kept columns of a Kronecker basis, built lazily.

    cols and metrics hold each axis's grid columns B and their overlap
    M = B^H B: (G, S) for pvn, (B, S^-1) for bvn. mask=None keeps every cell.
    A mask must keep each cell with its mirror (`VnLattice.mirror`) on every
    axis, or the real columns do not span the kept complex Gaussians;
    `Pipeline.solve` checks that, and the mask's length is checked here. H
    and S are built only when the returned problem's `h()` and `s()` are
    called, each time anew.
    Kept cell k = (cx, cy) is the column kron(By[:, cy], Bx[:, cx]), which is
    never formed. With W[x] = By^H (Ty + diag v[:, x]) By and Sy = By^H By,
    the rows of one cy = a take row a of every W[x], and
    H[rows, cols] = Bx[:, cx_rows]^H (W[x, a, cy] Bx[:, cx] + Sy[a, cy] (Tx Bx)[:, cx])
    is filled tile by tile: t columns at a time, for which Tx Bx[:, cx] is
    formed once, and within them at most t rows of one cy at a time, each
    tile one GEMM over x that writes into H. S[k, k'] = My[cy, cy'] Mx[cx,
    cx'] is filled t rows at a time. The Nx x t operands and the gathered
    rows are views of the problem's `workspace()` buffer, which holds three
    of them and so sets t, so beside H or S nothing larger than one
    INV_BLOCK-row block is allocated. A 1-d grid gets a one-point
    y axis, By = My = [[1]] and Ty = [[0]], which reduces H to
    Bk^H (diag v + Tx) Bk and S to Mx[kept, kept]. S is exactly symmetric,
    H only up to roundoff.
    """
    ts = h_op.ts
    if len(cols) == 1:
        one = np.ones((1, 1))
        cols, metrics, ts = (*cols, one), (*metrics, one), (*ts, 0 * one)
    (bx, by), (mx, my), (tx, ty) = cols, metrics, ts
    ncx, size = bx.shape[1], bx.shape[1] * by.shape[1]
    if mask is not None and mask.size != size:
        raise ValueError("mask length does not match the product basis size")
    idx = np.arange(size) if mask is None else mask.indices
    n, (cx, cy) = idx.size, (idx % ncx, idx // ncx)
    # idx ascends: the rows of one cy are a block
    starts = np.flatnonzero(np.diff(cy, prepend=-1))
    blocks = tuple(zip(starts, np.append(starts[1:], n)))
    h_type, s_type = np.result_type(bx, by, tx), np.result_type(mx, my)
    # the gathers read C-contiguous arrays of the pencil's type (np.take
    # copies any other source whole): a column-major G, or a real axis
    # beside a complex one, is copied here once
    bx, tx = (np.ascontiguousarray(m, h_type) for m in (bx, tx))
    mx = np.ascontiguousarray(mx, s_type)
    bxh = bx.conj()  # H's rows gather from it: bx itself when real
    tall = max(bx.shape)  # bounds the grid rows and cell columns of a tile

    def tiles(work, dtype):
        """t, the room for three Nx x t tiles, and the (lo, hi) row tiles:
        at most t rows of one cy."""
        t = work.nbytes // np.dtype(dtype).itemsize // (3 * tall)
        return t, [(lo, min(lo + t, hi)) for start, hi in blocks
                   for lo in range(start, hi, t)]

    def build_s(work=None):
        work = problem.workspace() if work is None else work
        s = np.empty((n, n), s_type)
        _, rows = tiles(work, s_type)
        for lo, hi in rows:
            mxr = carve(work, s_type, (hi - lo, mx.shape[1]))[0]
            np.take(mx, cx[lo:hi], axis=0, out=mxr, mode="clip")
            np.take(mxr, cx, axis=1, out=s[lo:hi], mode="clip")
            s[lo:hi] *= my[cy[lo], cy]
        return s

    def build_h(work=None):
        work = problem.workspace() if work is None else work
        v_xy, byc = h_op.v_diag.reshape(by.shape[0], bx.shape[0]).T, by.conj()
        tyy, sy = byc.T @ ty @ by, byc.T @ by
        h = np.empty((n, n), h_type)
        t, rows = tiles(work, h_type)
        nx = bx.shape[0]
        for clo in range(0, n, t):
            chi = min(clo + t, n)
            c0, c1 = cy[clo], cy[chi - 1] + 1  # the cy that these columns take
            col, cols, ccy = (nx, chi - clo), cx[clo:chi], cy[clo:chi]
            spare, op, third = carve(work, h_type, (nx * t,), col, (nx * t,))
            bx.take(cols, axis=1, out=op, mode="clip")
            # Tx Bx[:, cols] = (Bx[:, cols]^T Tx)^T as Tx is symmetric: a
            # GEMM with few rows runs faster than one with few columns
            op_t, tbx_t = (m[:op.size].reshape(col[::-1])
                           for m in (third, spare))
            np.copyto(op_t, op.T)
            np.matmul(op_t, tx, out=tbx_t)
            tbxt = third[:op.size].reshape(col)
            np.copyto(tbxt, tbx_t.T)
            # the spare tile holds W's factors, Sy's and each row tile's Bx
            tmp, a = spare[:op.size].reshape(col), None
            for lo, hi in rows:
                if cy[lo] != a:  # row a of every W[x], on these columns
                    if a is not None:  # op holds Bx[:, cols] for the first
                        bx.take(cols, axis=1, out=op, mode="clip")
                    a = cy[lo]
                    w = v_xy @ (byc[:, a, None] * by[:, c0:c1]) + tyy[a, c0:c1]
                    op *= w.astype(h_type, copy=False).take(
                        ccy - c0, axis=1, out=tmp, mode="clip")
                    op += np.multiply(tbxt, sy[a, ccy], out=tmp)
                bxr = spare[:nx * (hi - lo)].reshape(nx, hi - lo)
                bxh.take(cx[lo:hi], axis=1, out=bxr, mode="clip")
                np.matmul(bxr.T, op, out=h[lo:hi, clo:chi])
        return h

    # room for tiles one column wide, in a type that holds both pencils
    dtype = np.result_type(h_type, s_type, 1.0)
    problem = GeneralizedProblem.deferred(
        n, build_h, build_s, lambda: workspace(n, dtype, 3 * tall))
    return problem


# the names perfbench/tracer.py wraps, kept only until ROADMAP item 10
assemble_pvn = assemble_bvn_2d = assemble_bvn


def solve_generalized(problem: GeneralizedProblem,
                      n_states: int | None = None,
                      want_vectors: bool = False) -> Spectrum:
    """Solve H U = S U E for a Hermitian pencil with positive metric.

    The pencil is built in the order the solve reads it: `metric_root`
    makes S with `problem.s` and turns it into C, C^H S C = I; only then is
    `problem.h()` made, and `congruence` reduces it to C^H H C, whose lower
    triangle LAPACK reads. Building, factoring and reducing take every
    temporary from one `problem.workspace()` buffer, made here once, so
    the solve holds two pencils and one INV_BLOCK-row block at most until
    the eigensolve. Eigenvectors U = C Y are computed only when
    want_vectors is set. The caller's arrays are never written.
    """
    if problem.size == 0:
        raise ValueError("empty pencil: no basis function to solve for")
    work = problem.workspace()
    c, cond = metric_root(lambda: problem.s(work), "pencil metric whitened",
                          work)
    a = congruence(problem.h(work), c, cond, work)
    del work
    if not want_vectors:
        del c
        return Spectrum(np.linalg.eigvalsh(a)[:n_states])
    vals, vecs = np.linalg.eigh(a)
    del a
    return Spectrum(vals[:n_states], c @ vecs[:, :n_states])


class Pipeline:
    """One basis solve, built once and solved for any number of masks.

    basis is "fgh" (the grid itself), "vn" (raw Gaussians, analytic
    integrals), "pvn" (periodized Gaussians) or "bvn" (their biorthogonal
    partners). The grid is the tuple of its Grid1D axes, one per dimension
    of the potential. Every non-grid basis puts the lattice with n_x
    positions (the smaller balanced factor of the axis size by default) on
    each axis; a 2-d grid supports every basis but vn. pvn and bvn are one
    `assemble_bvn` projection of the grid Hamiltonian that differs only in
    each axis's (columns, metric) pair: (G, S) or (B, S^-1), which
    `build_basis` returns for the basis. The lattices, those pairs, the grid
    Hamiltonian and `info` are made here, so repeated `solve` calls with
    different masks reuse them. info's cond_s is the largest axis overlap's
    `build_basis` bound on cond_1(S).
    """

    def __init__(self, spec: PotentialSpec, axes: tuple, basis: str,
                 n_x: int | None = None, alpha: float | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if len(axes) > 1 and basis == "vn":
            raise NotAvailableError(f"basis '{basis}' supports only 1-d grids")
        self.spec, self.axes, self.basis = spec, axes, basis
        self.lattices, self.pairs, self.info, self.h_grid = (), (), {}, None
        if basis == "fgh":
            return
        if n_x is None:
            n_x = balanced_factors(axes[0].N)[0]
        self.lattices = tuple(VnLattice(g, n_x, spec.hbar, alpha)
                              for g in axes)
        if basis == "vn":
            return
        # equal lattices (a 2-d grid's same axis twice) share one pair
        built = {lat: build_basis(lat, basis)
                 for lat in dict.fromkeys(self.lattices)}
        self.pairs = tuple(built[lat][:2] for lat in self.lattices)
        self.info["cond_s"] = max(cond for _, _, cond in built.values())
        self.h_grid = hamiltonian_fgh(axes, spec)

    def solve(self, mask: PruneMask | None = None,
              n_states: int | None = None) -> Spectrum:
        """Lowest n_states levels (all by default) on the kept cells.

        mask applies to pvn and bvn; without one every cell is kept. It
        must keep each cell with its mirror on every axis.
        """
        if self.basis == "fgh":
            return solve_fgh(self.axes, self.spec, n_states=n_states)
        if self.basis == "vn":
            h, s = continuous_vn_matrices(self.lattices[0], self.spec)
            problem = GeneralizedProblem(h, s)
        else:
            if mask is not None:
                lats = self.lattices[::-1]  # the flat index runs x fastest
                shape = [lat.size for lat in lats]
                if mask.size != math.prod(shape):
                    raise ValueError(f"mask of {mask.size} cells does not "
                                     f"match the basis of {math.prod(shape)}")
                kept = mask.kept.reshape(shape)
                if not all(np.array_equal(kept, kept.take(lat.mirror, axis))
                           for axis, lat in enumerate(lats)):
                    raise ValueError(
                        "mask keeps a cell without its mirror (same x, "
                        "opposite p): the real basis would not span the "
                        "kept Gaussians")
            cols, metrics = zip(*self.pairs)
            problem = assemble_bvn(self.h_grid, cols, metrics, mask)
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


# Fixed search recipe, so scans are reproducible. `_smallest` runs both
# searches. The grid size starts at the classical grid n_cl = length *
# 2 p_max / h, whose momentum range just covers the classical p at e_max;
# it gallops by n_cl/32, 2 n_cl/32, ... (past N_BUDGET the scan gives up)
# and bisects to the smallest even size that converges. The pruned scan
# runs on its own square k x k lattice, k^2 ~ n_target = P_PAD n_cl (grid
# momenta cover the classical p with P_PAD headroom) and never below that
# fgh size; its margin scale starts at 1, gallops by 1, 2, 4, ... (so it
# halves or doubles), stays at most SCALE_MAX and bisects to SCALE_TOL.
N_BUDGET = 4096
P_PAD = 1.25
SCALE_MAX = 16.0
SCALE_TOL = 0.0625


def _smallest(passes, start, limit, step, first):
    """Smallest multiple of step in (0, limit] at which passes holds.

    passes must be monotone (false up to some value, true above it) and
    limit a multiple of step. The first probe is start, rounded down onto
    the lattice and capped at limit. From there the search gallops: it
    steps by `first` (rounded down onto the lattice, at least one step),
    doubling the distance after each step, down while passes holds (a step
    to 0 or below ends the run) or up, capped at limit, until it holds,
    raising BudgetExceededError once limit has failed. Then the last
    bracket (lo, hi] is bisected until hi - lo <= step.
    """
    hi = min(step * max(1, math.floor(start / step)), limit)
    dist = step * max(1, math.floor(first / step))
    if passes(hi):
        while (lo := hi - dist) > 0 and passes(lo):
            hi, dist = lo, 2 * dist
        lo = max(lo, 0)
    else:
        while hi < limit:
            lo, hi, dist = hi, min(hi + dist, limit), 2 * dist
            if passes(hi):
                break
        else:
            raise BudgetExceededError(f"nothing passes up to {limit}")
    while hi - lo > step:
        mid = step * math.ceil((lo + hi) / (2 * step))
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def efficiency_scan(spec: PotentialSpec, hbars: Sequence[float], digits: int,
                    e_max: float, x_min: float, length: float) -> list:
    """Minimal grid and minimal pruned-basis sizes across hbar values.

    The box [x_min, x_min + length] stays fixed while hbar varies. For each
    hbar the analytic levels below e_max are the reference; the scan
    reports one point per method with the basis size and the size-per-level
    ratio. A search that runs past its limit raises a budget error carrying
    the points finished so far.
    """
    points = []
    for hb in hbars:
        sp = replace(spec, hbar=hb)
        ref = analytic_levels(sp, n_max=N_BUDGET)  # no scanned grid holds more
        ref = ref[ref < e_max]
        if ref.size == 0:
            raise ValueError(f"no levels below {e_max} at hbar={hb}")

        def converges(pipe, mask=None):
            out = pipe.solve(mask)
            return count_converged(out.energies, ref, digits, e_max) == ref.size

        def grid_passes(n):
            return converges(Pipeline(sp, (Grid1D(x_min, length, n),), "fgh"))

        p_max = math.sqrt(2.0 * sp.mass * e_max)
        n_target = length * P_PAD * p_max / (math.pi * hb)
        n_cl = n_target / P_PAD  # the classical grid: no momentum headroom
        try:
            n = _smallest(grid_passes, n_cl, N_BUDGET, 2, n_cl / 32)
        except BudgetExceededError:
            raise BudgetExceededError(
                f"grid budget {N_BUDGET} exceeded at hbar={hb}",
                partial=points) from None
        points.append(EfficiencyPoint(hb, "fgh", n, int(ref.size)))

        # even k, so the k*k grid has an even number of points, and never
        # coarser than the n-point grid fgh needed
        k = 2 * max(round(math.sqrt(n_target) / 2),
                    math.ceil(math.sqrt(n) / 2))
        pipe = Pipeline(sp, (Grid1D(x_min, length, k * k),), "bvn", n_x=k)
        kept, judged = {}, {}  # scale -> kept cells; kept set -> converges

        def margin_passes(scale):
            mask = select_cells(pipe.lattices, sp, e_max, scale)
            kept[scale] = mask.n_kept
            key = mask.indices.tobytes()  # nested sets: scales share masks
            if mask.n_kept >= ref.size and key not in judged:
                judged[key] = converges(pipe, mask)
            return judged.get(key, False)

        try:
            scale = _smallest(margin_passes, 1.0, SCALE_MAX, SCALE_TOL, 1.0)
        except BudgetExceededError:
            raise BudgetExceededError(
                f"margin search failed at hbar={hb}", partial=points) from None
        points.append(EfficiencyPoint(hb, "bvn", kept[scale], int(ref.size)))
        del pipe  # no two hbar bases coexist
    return points
