"""Generalized eigenproblems in nonorthogonal bases and basis-size scans.

A Gaussian (pvN) or biorthogonal (bvN) basis spans the grid's space, so
its pencil H' U = S' U E has the grid spectrum; pruning bvN columns keeps
the eigenvalues below the cutoff. One Kronecker assembly, `assemble_bvn`,
serves both bases and every grid from each axis's columns, metric and
kinetic matrix. `Pipeline` runs the whole chain (lattice, basis, pruned
pencil, eigensolve) for every basis, the command line's and the
efficiency scan's.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, NotAvailableError
from .fourier_grid import (Grid1D, kinetic_matrix, potential_matrix,
                           solve_fgh)
from .potentials import PotentialSpec, analytic_levels
from .pruner import PruneMask, select_cells
from .spectra import BASES, Spectrum
from .vn_basis import (VnLattice, balanced_factors, build_basis, carve,
                       congruence, continuous_vn_matrices, metric_root,
                       project, workspace)


class GeneralizedProblem:
    """Pencil (H, S) with S the basis overlap (metric), built when needed.

    `h(work)` and `s(work)` each return a new array that their caller may
    overwrite, carving temporaries from work, a buffer from `workspace()`.
    GeneralizedProblem(h, s) holds float copies of two dense arrays and
    raises ValueError on a complex one. `deferred(size, build_h, build_s,
    workspace)` holds the builders and the buffer's maker, so the
    eigensolve can make and factor S before H exists; `assemble_bvn`
    returns one, whose H is S's Kronecker gather of the kinetic matrices
    plus the potential. H and S need to be symmetric only up to roundoff:
    nothing symmetrizes them, and LAPACK reads one triangle of S and of
    C^T H C.
    """

    def __init__(self, h: np.ndarray, s: np.ndarray):
        if np.iscomplexobj(h) or np.iscomplexobj(s):
            raise ValueError("complex H or S: real pencils only")
        h, s = np.array(h, float), np.array(s, float)
        if h.shape != s.shape or h.shape[0] != h.shape[1]:
            raise ValueError("H and S must be square and congruent")
        self.size = h.shape[0]
        self.h = lambda work: h.copy()
        self.s = lambda work: s.copy()
        self.workspace = lambda: workspace(self.size)

    @classmethod
    def deferred(cls, size: int, build_h, build_s,
                 make_workspace) -> "GeneralizedProblem":
        problem = cls.__new__(cls)
        problem.size, problem.h, problem.s = size, build_h, build_s
        problem.workspace = make_workspace
        return problem


def assemble_bvn(v_diag, cols: tuple, metrics: tuple, kinetics: tuple,
                 mask: PruneMask | None = None) -> GeneralizedProblem:
    """Projection onto the kept columns of a Kronecker basis, built lazily.

    v_diag is the potential at the grid points; each axis has its real
    columns B, their overlap M = B^T B and kinetic matrix K = B^T T B:
    (G, S, K) for pvn, (B, S^-1, K) for bvn. A complex factor raises
    ValueError. mask=None keeps every cell; a mask must keep each cell with
    its mirror on every axis (`Pipeline.solve` checks that, and its length
    is checked here). Kept cell k = (cx, cy) is the column
    kron(By[:, cy], Bx[:, cx]), never formed: S[k, k'] = Mx[cx, cx'] My[cy, cy']
    and H[k, k'] = Kx[cx, cx'] My[cy, cy'] + sum_x Bx[x, cx] Bx[x, cx'] W[x, cy, cy']
    with W[x] = Ky + By^T diag(v[x, :]) By. One gather fills S and H's
    kinetic half, t rows of one cy at a time; the potential is added t
    columns at a time, each tile of at most t rows one GEMM over x. Every
    Nx x t operand is a view of the `workspace()` buffer, which holds three,
    so beside H or S nothing larger is allocated. A 1-d grid gets a
    one-point y axis (By = My = [[1]], Ky = [[0]]).
    """
    if len(cols) == 1:
        one = np.ones((1, 1))
        cols, metrics = (*cols, one), (*metrics, one)
        kinetics = (*kinetics, 0 * one)
    for name, factors in (("columns", cols), ("metric", metrics),
                          ("kinetic matrix", kinetics)):
        if any(map(np.iscomplexobj, factors)):
            raise ValueError(f"complex {name}: real factors only")
    (bx, by), (mx, my), (kx, ky) = cols, metrics, kinetics
    ncx, size = bx.shape[1], bx.shape[1] * by.shape[1]
    if mask is not None and mask.size != size:
        raise ValueError("mask length does not match the product basis size")
    idx = np.arange(size) if mask is None else mask.indices
    n, (cx, cy) = idx.size, (idx % ncx, idx // ncx)
    # idx ascends: the rows of one cy are a block
    starts = np.flatnonzero(np.diff(cy, prepend=-1))
    blocks = tuple(zip(starts, np.append(starts[1:], n)))
    # the gathers read C-contiguous float arrays (np.take copies any other
    # source whole)
    bx, kx, mx = (np.ascontiguousarray(m, float) for m in (bx, kx, mx))
    nx, tall = bx.shape[0], max(bx.shape)  # tall bounds a tile's side

    def tiles(work):
        """t, the room for three tall x t tiles, and the row tiles."""
        t = work.size // (3 * tall)
        return t, [(lo, min(lo + t, hi)) for start, hi in blocks
                   for lo in range(start, hi, t)]

    def gather(m, work):
        """A new n x n array of m[cx, cx'] My[cy, cy'] on the kept cells."""
        out = np.empty((n, n))
        for lo, hi in tiles(work)[1]:
            rows = carve(work, (hi - lo, m.shape[1]))[0]
            np.take(m, cx[lo:hi], axis=0, out=rows, mode="clip")
            np.take(rows, cx, axis=1, out=out[lo:hi], mode="clip")
            out[lo:hi] *= my[cy[lo], cy]
        return out

    def build_h(work):
        h = gather(kx, work)
        v_xy = v_diag.reshape(by.shape[0], nx).T
        t, rows = tiles(work)
        for clo in range(0, n, t):
            chi = min(clo + t, n)
            c0, c1 = cy[clo], cy[chi - 1] + 1  # the cy that these columns take
            col, cols, ccy = (nx, chi - clo), cx[clo:chi], cy[clo:chi]
            (op, wcols), a = carve(work, col, col), None
            for lo, hi in rows:
                if cy[lo] != a:  # Bx[:, cols] times row a of every W[x]
                    a = cy[lo]
                    w = v_xy @ (by[:, a, None] * by[:, c0:c1]) + ky[a, c0:c1]
                    bx.take(cols, axis=1, out=op, mode="clip")
                    op *= w.take(ccy - c0, axis=1, out=wcols, mode="clip")
                _, bxr, prod = carve(work, col, (nx, hi - lo),
                                     (hi - lo, chi - clo))
                bx.take(cx[lo:hi], axis=1, out=bxr, mode="clip")
                h[lo:hi, clo:chi] += np.matmul(bxr.T, op, out=prod)
        return h

    # room for three tiles one column wide
    return GeneralizedProblem.deferred(
        n, build_h, lambda work: gather(mx, work),
        lambda: workspace(n, 3 * tall))


# the names perfbench/tracer.py wraps, kept only until ROADMAP item 10
assemble_pvn = assemble_bvn_2d = assemble_bvn


def solve_generalized(problem: GeneralizedProblem,
                      n_states: int | None = None,
                      want_vectors: bool = False) -> Spectrum:
    """Solve H U = S U E for a symmetric pencil with positive metric.

    The pencil is built in the order the solve reads it: `metric_root`
    makes S with `problem.s` and turns it into C, C^T S C = I; only then is
    `problem.h()` made, and `congruence` reduces it to C^T H C, whose lower
    triangle LAPACK reads. Building, factoring and reducing take every
    temporary from one `problem.workspace()` buffer, made here once, so
    the solve holds two pencils and one INV_BLOCK-row block at most until
    the eigensolve. U = C Y is computed only when want_vectors is set,
    n_states below 1 raises and the caller's arrays are never written.
    """
    if n_states is not None and n_states < 1:
        raise ValueError(f"n_states = {n_states}: must be at least 1")
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
    `assemble_bvn` projection that differs only in each axis's `factors`:
    (G, S, K) or (B, S^-1, K), the pair `build_basis` returns and
    K = B^T T B, projected in T's memory once per distinct lattice. They,
    `v_diag`, the lattices and `info` are made here, so repeated `solve`
    calls reuse them. info's cond_s is the largest axis overlap's
    `build_basis` bound on cond_1(S).
    """

    def __init__(self, spec: PotentialSpec, axes: tuple, basis: str,
                 n_x: int | None = None, alpha: float | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if len(axes) > 1 and basis == "vn":
            raise NotAvailableError(f"basis '{basis}' supports only 1-d grids")
        self.spec, self.axes, self.basis = spec, axes, basis
        self.lattices, self.factors, self.info, self.v_diag = (), (), {}, None
        if basis == "fgh":
            return
        if n_x is None:
            n_x = balanced_factors(axes[0].N)[0]
        self.lattices = tuple(VnLattice(g, n_x, spec.hbar, alpha)
                              for g in axes)
        if basis == "vn":
            return
        self.v_diag = potential_matrix(axes, spec)
        # equal lattices (a 2-d grid's same axis twice) share one basis
        built = {}
        for lat in dict.fromkeys(self.lattices):
            cols, metric, cond = build_basis(lat, basis)
            t = kinetic_matrix(lat.axis, spec.mass, spec.hbar)
            built[lat] = (cols, metric, project(t, cols)), cond
        self.factors = tuple(built[lat][0] for lat in self.lattices)
        self.info["cond_s"] = max(cond for _, cond in built.values())

    def solve(self, mask: PruneMask | None = None,
              n_states: int | None = None) -> Spectrum:
        """Lowest n_states levels (all by default) on the kept cells.

        mask applies to pvn and bvn (fgh and vn raise for one); without one
        every cell is kept. It must keep each cell with its mirror.
        """
        if mask is not None and self.basis in ("fgh", "vn"):
            raise ValueError(f"basis '{self.basis}' takes no mask")
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
            problem = assemble_bvn(self.v_diag, *zip(*self.factors), mask)
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
