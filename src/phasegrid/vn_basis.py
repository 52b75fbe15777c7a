"""Phase-space Gaussian lattice, overlap matrices and the biorthogonal dual.

A lattice of n_x * n_p Gaussians tiles the phase-space rectangle of a grid
with exactly one function per Planck cell (cell area a*dp = h). Sampling the
Gaussians on the grid gives the matrix G whose columns span the same space
as the periodic sinc basis; S = G^dag G is the overlap of the periodized
Gaussians and B = G S^-1 samples their biorthogonal partners.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, NotAvailableError
from .fourier_grid import Grid1D, axis_product
from .potentials import PotentialSpec

# relative eigenvalue floor of every metric that `positive_modes` inverts
RCOND = 1e-12
# metric_root whitens a metric whose 1-norm condition number bound exceeds this
COND_SWITCH = 1e8
# _cholesky_inverse's LAPACK block bound, every metric GEMM's row block, the
# rows of the one working buffer a pencil solve carves its temporaries from
# (`workspace`) and the Gaussian pairs build_basis evaluates at once
INV_BLOCK = 128


def balanced_factors(n: int) -> tuple:
    """Factor n = n_x * n_p with the sides as close to square as possible."""
    if n <= 0:
        raise ValueError("n must be positive")
    d = int(math.isqrt(n))
    while n % d:
        d -= 1
    return d, n // d


@dataclass(frozen=True)
class VnLattice:
    """Phase-space cells with Gaussian centers, one per point of a grid axis.

    n_x positions (dividing the N points) by n_p = N / n_x momenta; cell m
    has position index n = m % n_x and momentum index l = m // n_x. Centers
    sit at cell midpoints; p_l = dp * (l - (n_p-1)/2) makes rows l and
    n_p-1-l exact negatives in floating point (see `mirror`). The width
    alpha defaults to dp/(2*a*hbar), the unit cell's aspect ratio.
    """

    axis: Grid1D
    n_x: int
    hbar: float = 1.0
    alpha: float | None = None

    def __post_init__(self):
        if self.n_x <= 0 or self.axis.N % self.n_x:
            raise ValueError(f"n_x = {self.n_x} is not a positive divisor of "
                             f"the grid size {self.axis.N}")
        for name in ("hbar", "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} = {value} is not finite")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.dp / (2.0 * self.a * self.hbar))
        elif not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def n_p(self) -> int:
        return self.axis.N // self.n_x

    @property
    def size(self) -> int:
        return self.axis.N

    @property
    def a(self) -> float:
        """Position spacing."""
        return self.axis.L / self.n_x

    @property
    def p_half(self) -> float:
        """Momentum half-extent of the covered rectangle."""
        return math.pi * self.hbar * self.size / self.axis.L

    @property
    def dp(self) -> float:
        """Momentum spacing; a * dp = 2*pi*hbar by construction."""
        return 2.0 * self.p_half / self.n_p

    @property
    def centers_x(self) -> np.ndarray:
        return self.axis.x_min + self.a * (np.arange(self.n_x) + 0.5)

    @property
    def centers_p(self) -> np.ndarray:
        return self.dp * (np.arange(self.n_p) - (self.n_p - 1) / 2)

    @property
    def mirror(self) -> np.ndarray:
        """Index of the cell at the same x and opposite p, for every cell."""
        m = np.arange(self.size)
        return m % self.n_x + self.n_x * (self.n_p - 1 - m // self.n_x)

    @property
    def centers(self) -> np.ndarray:
        """(size, 2) array of (x_c, p_c), position index fastest."""
        return axis_product([self.centers_x, self.centers_p])


def build_G(lattice: VnLattice, cells=slice(None)) -> np.ndarray:
    """Complex matrix G[i, j] = g_m(x_i) over the lattice's grid points, one
    column per cell m of `cells` (every cell by default).

    g_m(x) = (2a/pi)^(1/4) exp(-a (x-x_c)^2 - i p_c (x-x_c)/hbar) is the
    continuous-normalized Gaussian of cell m; the momentum phase sign is
    fixed by convention and only conjugates the basis globally.
    """
    c = lattice.centers[cells]
    x = lattice.axis.points[:, None]
    xc = c[:, 0][None, :]
    pc = c[:, 1][None, :]
    return ((2.0 * lattice.alpha / math.pi) ** 0.25
            * np.exp(-lattice.alpha * (x - xc) ** 2
                     - 1j * pc * (x - xc) / lattice.hbar))


def build_overlap(g: np.ndarray) -> np.ndarray:
    """Overlap S = G^dag G of the periodized Gaussians (exact on the grid),
    exactly symmetric for a real G (numpy forms G^T G as one product)."""
    return g.conj().T @ g


def positive_modes(s: np.ndarray, what: str):
    """Kept eigenpairs (w, u) of a Hermitian metric: the whitening rule.

    No positive direction, or an eigenvalue below -RCOND * lambda_max,
    raises; the modes at or below RCOND * lambda_max are dropped with the
    warning "<what>: dropping N" at the line that called `build_basis` or
    `solve_generalized`.
    """
    w, u = np.linalg.eigh(s)
    if w[-1] <= 0:
        raise IllConditionedError("metric has no positive direction")
    if w[0] < -RCOND * w[-1]:
        raise IllConditionedError(
            f"metric eigenvalue {w[0]:.3e} is negative beyond roundoff")
    keep = w > RCOND * w[-1]
    if not keep.all():
        warnings.warn(
            f"{what}: dropping {int((~keep).sum())} modes below rcond "
            f"(cond ~ {w[-1] / w[0] if w[0] > 0 else np.inf:.3e})",
            stacklevel=4)
        w, u = w[keep], u[:, keep]
    return w, u


def workspace(n: int, dtype=float, least: int = 0) -> np.ndarray:
    """The flat buffer of one INV_BLOCK x n block (and at least `least`
    numbers) that the steps of an n x n pencil solve carve their
    temporaries from (`carve`), so that none of them allocates a block."""
    return np.empty(max(INV_BLOCK * n, least), dtype)


def carve(work: np.ndarray, dtype, *shapes) -> list:
    """C-contiguous arrays of the given shapes and dtype laid one after
    another over the memory of the flat buffer `work` (a real view of a
    complex buffer holds twice as many numbers); reshape raises for a
    buffer too short."""
    flat, at, out = work.view(dtype), 0, []
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[at:at + size].reshape(shape))
        at += size
    return out


def _cholesky_inverse(a: np.ndarray, work: np.ndarray | None = None):
    """L^-1 of S = L L^H written over a = S, of which only the lower
    triangle is read; returns a, zero above the diagonal.

    With S = [[S11, .], [S21, S22]], X11 = L11^-1 comes first, then
    L21 = S21 X11^H, S22 - L21 L21^H (on its lower block triangle), its
    inverse factor X22 and X21 = -X22 L21 X11. LAPACK sees only diagonal
    blocks below INV_BLOCK rows; every other step is a GEMM on INV_BLOCK
    rows that writes into the `workspace` buffer work (made here if none
    is given) and is copied back into a, so beside a nothing larger than
    those LAPACK blocks is allocated (a complex a also conjugates its
    GEMM operands into new arrays). A non-positive S raises LinAlgError
    and leaves a partly overwritten.
    """
    n = a.shape[0]
    if n < INV_BLOCK:
        a[...] = np.tril(np.linalg.inv(np.linalg.cholesky(a)))
        return a
    work = workspace(n, a.dtype) if work is None else work
    k = n // 2
    x11 = _cholesky_inverse(a[:k, :k], work)
    for lo in range(k, n, INV_BLOCK):  # L21 over S21, then S22 - L21 L21^H
        hi = min(lo + INV_BLOCK, n)
        l21, s22 = carve(work, a.dtype, (hi - lo, k), (hi - lo, hi - k))
        a[lo:hi, :k] = np.matmul(a[lo:hi, :k], x11.conj().T, out=l21)
        # a[lo:hi, :k] itself, not its copy l21: numpy takes the first
        # block's product with its own transpose as one SYRK
        a[lo:hi, k:hi] -= np.matmul(a[lo:hi, :k], a[k:hi, :k].conj().T,
                                    out=s22)
    _cholesky_inverse(a[k:, k:], work)
    a[:k, k:] = 0
    for hi in range(n, k, -INV_BLOCK):  # X21 over L21, bottom up
        lo = max(hi - INV_BLOCK, k)
        y, x21 = carve(work, a.dtype, (hi - lo, k), (hi - lo, k))
        np.matmul(a[lo:hi, k:hi], a[k:hi, :k], out=y)
        np.negative(np.matmul(y, x11, out=x21), out=a[lo:hi, :k])
    return a


def _factor(s: np.ndarray, work: np.ndarray | None = None):
    """(L^-1, cond) of a positive metric S = L L^H, L^-1 written over s
    (the factor reads its lower triangle); (None, inf) without a factor.

    cond = ||S||_1 ||L^-1||_1 ||L^-1||_inf >= ||S||_1 ||L^-H L^-1||_1, and
    each L^-1 norm is at most sqrt(n) ||L^-1||_2, so cond_1(S) <= cond <=
    n cond_1(S). ||S||_1 is summed by column blocks before L^-1 overwrites
    S, |L^-1| INV_BLOCK - 1 rows at a time; row 0 of the block's buffer
    carries the column sums so far, so they add up in row order, as one
    sum over axis 0 would. Both blocks, like `_cholesky_inverse`'s, are
    views of the `workspace` buffer work (made here if none is given).
    """
    s = s.astype(np.result_type(s, 1.0), copy=False)  # integers in floats
    n = s.shape[0]
    work = workspace(n, s.dtype) if work is None else work
    s_norm = 0.0
    for lo in range(0, n, INV_BLOCK):
        cols = s[:, lo:lo + INV_BLOCK]
        mag = np.abs(cols, out=carve(work, float, cols.shape)[0])
        s_norm = max(s_norm, mag.sum(0).max())
    try:
        l_inv = _cholesky_inverse(s, work)
    except np.linalg.LinAlgError:
        return None, float("inf")
    step = min(n, INV_BLOCK - 1)
    buf = carve(work, float, (step + 1, n))[0]
    buf[0] = 0.0
    row_max = 0.0
    for lo in range(0, n, step):
        rows = l_inv[lo:lo + step]
        mag = np.abs(rows, out=buf[1:1 + rows.shape[0]])
        row_max = max(row_max, mag.sum(1).max())
        buf[0] = buf[:1 + mag.shape[0]].sum(0)
    return l_inv, float(s_norm * buf[0].max() * row_max)


def metric_root(make_s, what: str, work: np.ndarray | None = None):
    """(C, cond) with C^H S C = I: the one inverse of a positive metric S.

    make_s() returns a new S that metric_root may overwrite; cond is its
    `_factor` bound, which takes its blocks from work. Up to COND_SWITCH,
    C = L^-H, upper triangular, in S's own memory; above it C = U W^-1/2
    whitens the modes of a second S that `positive_modes` keeps.
    """
    l_inv, cond = _factor(make_s(), work)
    if cond <= COND_SWITCH:
        return l_inv.conj().T, cond
    del l_inv
    w, u = positive_modes(make_s(), what)
    return u / np.sqrt(w), cond


def congruence(h: np.ndarray, c: np.ndarray, cond: float,
               work: np.ndarray | None = None) -> np.ndarray:
    """C^H H C for the root C and bound cond that `metric_root` returned.

    A whitening root (n x k) takes the plain product. Up to COND_SWITCH,
    X = C^H is lower triangular and the lower triangle of X H X^H is written
    over H: row blocks of Y = X H come bottom up, X[r, :hi] H[:hi], reading
    rows of H not yet written, then A[r, :hi] = Y[r, :hi] X[:hi, :hi]^H:
    INV_BLOCK rows per GEMM, X's zero half skipped. Each GEMM writes into
    the `workspace` buffer work (made here if none is given) and is copied
    into H, so beside H and C nothing is allocated for a real C (a complex
    one conjugates each block of C into a new array).
    """
    if not cond <= COND_SWITCH:  # metric_root's test: a NaN bound whitens
        return c.conj().T @ (h @ c)
    h = h.astype(np.result_type(h, c), copy=False)  # a real H, complex S
    n = h.shape[0]
    work = workspace(n, h.dtype) if work is None else work
    for hi in range(n, 0, -INV_BLOCK):
        lo = max(hi - INV_BLOCK, 0)
        y = carve(work, h.dtype, (hi - lo, n))[0]
        h[lo:hi] = np.matmul(c[:hi, lo:hi].conj().T, h[:hi], out=y)
    for lo in range(0, n, INV_BLOCK):
        hi = min(lo + INV_BLOCK, n)
        a = carve(work, h.dtype, (hi - lo, hi))[0]
        h[lo:hi, :hi] = np.matmul(h[lo:hi, :hi], c[:hi, :hi], out=a)
    return h


def _real_columns(lattice: VnLattice) -> np.ndarray:
    """The real G whose mirror-closed cell subsets span as `build_G`'s.

    g at -p is the conjugate of g at +p, so a cell and its mirror become the
    unitary pair sqrt(2) Re g, sqrt(2) Im g of the lower-index partner g (a
    p = 0 cell keeps Re g). One complex Gaussian per pair is evaluated,
    INV_BLOCK pairs at a time, into the columns of one column-major N x N
    array (the layout every product with G reads). Entries below
    sqrt(tiny) in magnitude are zeroed, INV_BLOCK columns at a time: a
    product of two is subnormal and slows the BLAS, and S moves by far
    less than its rounding (at most N sqrt(tiny) max|G|).
    """
    pair = lattice.mirror
    lower = np.flatnonzero(np.arange(lattice.size) <= pair)
    g = np.empty((lattice.axis.N, lattice.size), order="F")
    for lo in range(0, lower.size, INV_BLOCK):
        cells = lower[lo:lo + INV_BLOCK]
        twin = pair[cells] != cells
        gc = build_G(lattice, cells)
        g[:, cells] = np.where(twin, math.sqrt(2.0), 1.0) * gc.real
        g[:, pair[cells][twin]] = math.sqrt(2.0) * gc.imag[:, twin]
    for lo in range(0, lattice.size, INV_BLOCK):  # contiguous column blocks
        cols = g[:, lo:lo + INV_BLOCK]
        cols[np.abs(cols) < math.sqrt(np.finfo(float).tiny)] = 0.0
    return g


def build_basis(lattice: VnLattice, basis: str):
    """The real pair a basis projects with, and the `_factor` bound on
    cond_1(S): (G, S, cond) for "pvn", (B, S^-1, cond) for "bvn".

    G comes from `_real_columns` and S = G^T G; pvn factors a copy of S for
    the bound alone and never whitens. For bvn, `metric_root` turns S in its
    own memory into C, S^-1 = C C^T (exactly symmetric: numpy forms it as
    one product) and B = G S^-1, so G^T B = I and B^T B = S^-1; G is dropped
    once B exists. Neither path holds more than three N x N arrays.
    """
    if basis not in ("pvn", "bvn"):
        raise ValueError(f"basis {basis!r} has no grid columns")
    g = _real_columns(lattice)
    if basis == "pvn":
        s = build_overlap(g)
        return g, s, _factor(s.copy())[1]
    c, cond = metric_root(lambda: build_overlap(g),
                          "overlap pseudo-inverted")
    s_inv = c @ c.conj().T
    del c
    return g @ s_inv, s_inv, cond


def continuous_vn_matrices(lattice: VnLattice, spec: PotentialSpec):
    """Analytic Hamiltonian and overlap of the raw (non-periodized) Gaussians.

    Closed-form integrals over the infinite line; only the harmonic potential
    is supported. This is the baseline the periodized basis is compared
    against. h and s are Hermitian up to roundoff; nothing symmetrizes them.
    """
    if spec.kind != "harmonic":
        raise NotAvailableError(
            "analytic Gaussian integrals are implemented for the harmonic "
            "potential only")
    mass, hbar = spec.mass, spec.hbar
    omega = spec.params["omega"]
    alpha = lattice.alpha
    c = lattice.centers
    x1, x2 = c[:, 0][:, None], c[:, 0][None, :]
    p1, p2 = c[:, 1][:, None], c[:, 1][None, :]
    dx = x1 - x2
    dpm = p1 - p2
    s = np.exp(-0.5 * alpha * dx**2 - dpm**2 / (8.0 * alpha * hbar**2)
               - 0.5j * (p1 + p2) * dx / hbar)
    # moments of the complex Gaussian weight g1* g2
    z0 = 0.5 * (x1 + x2) + 1j * dpm / (4.0 * alpha * hbar)
    var = 1.0 / (4.0 * alpha)
    ex2 = z0**2 + var
    e11 = ex2 - (x1 + x2) * z0 + x1 * x2  # <(x-x1)(x-x2)>
    em1 = z0 - x1
    em2 = z0 - x2
    p_sq = s * (4.0 * hbar**2 * alpha**2 * e11
                + 2j * hbar * alpha * (p2 * em1 - p1 * em2) + p1 * p2)
    x_sq = s * ex2
    h = p_sq / (2.0 * mass) + 0.5 * mass * omega**2 * x_sq
    return h, s
