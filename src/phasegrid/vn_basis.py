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
# rows below which _lower_inverse hands a triangle to np.linalg.inv
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
    """Rectangular lattice of phase-space cells with Gaussian centers.

    Cell m corresponds to position index n = m % n_x and momentum index
    l = m // n_x (position index fastest). Centers sit at cell midpoints;
    p_l = dp * (l - (n_p-1)/2) makes rows l and n_p-1-l exact negatives in
    floating point (see `mirror`). The width alpha defaults to
    dp/(2*a*hbar), which matches the Gaussian aspect ratio to the unit cell.
    """

    x_min: float
    L: float
    n_x: int
    n_p: int
    hbar: float = 1.0
    alpha: float | None = None

    def __post_init__(self):
        if self.n_x <= 0 or self.n_p <= 0:
            raise ValueError("lattice dimensions must be positive")
        if self.L <= 0 or self.hbar <= 0:
            raise ValueError("L and hbar must be positive")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.dp / (2.0 * self.a * self.hbar))
        elif not self.alpha > 0:
            raise ValueError("alpha must be positive")

    @property
    def size(self) -> int:
        return self.n_x * self.n_p

    @property
    def a(self) -> float:
        """Position spacing."""
        return self.L / self.n_x

    @property
    def p_half(self) -> float:
        """Momentum half-extent of the covered rectangle."""
        return math.pi * self.hbar * self.size / self.L

    @property
    def dp(self) -> float:
        """Momentum spacing; a * dp = 2*pi*hbar by construction."""
        return 2.0 * self.p_half / self.n_p

    @property
    def centers_x(self) -> np.ndarray:
        return self.x_min + self.a * (np.arange(self.n_x) + 0.5)

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

    @classmethod
    def from_grid(cls, grid: Grid1D, n_x: int, hbar: float = 1.0,
                  alpha: float | None = None) -> "VnLattice":
        """The n_x x (N / n_x) lattice on the grid's box, a cell per point."""
        if n_x <= 0 or grid.N % n_x:
            raise ValueError(f"n_x = {n_x} is not a positive divisor of the "
                             f"grid size {grid.N}")
        return cls(grid.x_min, grid.L, n_x, grid.N // n_x, hbar, alpha)


@dataclass(frozen=True)
class BasisMatrices:
    """Sampled basis G, overlap S = G^dag G, its inverse and B = G S^-1."""

    G: np.ndarray
    S: np.ndarray
    S_inv: np.ndarray
    B: np.ndarray
    cond_S: float  # the `metric_root` bound on cond_1(S)


def build_G(lattice: VnLattice, grid: Grid1D) -> np.ndarray:
    """N x N complex matrix G[i, m] = g_m(x_i) over the grid points.

    g_m(x) = (2a/pi)^(1/4) exp(-a (x-x_c)^2 - i p_c (x-x_c)/hbar) is the
    continuous-normalized Gaussian of cell m; the momentum phase sign is
    fixed by convention and only conjugates the basis globally.
    """
    if lattice.size != grid.N:
        raise ValueError("lattice size must equal the grid size")
    x = grid.points[:, None]
    xc = lattice.centers[:, 0][None, :]
    pc = lattice.centers[:, 1][None, :]
    return ((2.0 * lattice.alpha / math.pi) ** 0.25
            * np.exp(-lattice.alpha * (x - xc) ** 2
                     - 1j * pc * (x - xc) / lattice.hbar))


def build_overlap(g: np.ndarray) -> np.ndarray:
    """Overlap S = G^dag G of the periodized Gaussians (exact on the grid)."""
    s = g.conj().T @ g
    return 0.5 * (s + s.conj().T)


def positive_modes(s: np.ndarray, what: str):
    """Kept eigenpairs (w, u) of a Hermitian metric: the whitening rule.

    No positive direction, or an eigenvalue below -RCOND * lambda_max,
    raises; the modes at or below RCOND * lambda_max are dropped with the
    warning "<what>: dropping N" at the line that called `invert_overlap`
    or `solve_generalized`.
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


def _lower_inverse(l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a lower-triangular matrix, by recursive 2 x 2 blocks.

    With L = [[L11, 0], [L21, L22]], the inverse is [[X11, 0], [X21, X22]]
    with Xii = Lii^-1 and X21 = -X22 L21 X11: two GEMMs per level, and
    np.linalg.inv (LU) only on diagonal blocks below INV_BLOCK rows. Each
    level writes into out (zero above the diagonal), so the only other
    array alive is one GEMM result, a quarter of L.
    """
    if out is None:
        out = np.zeros_like(l)
    n = l.shape[0]
    if n < INV_BLOCK:
        out[...] = np.tril(np.linalg.inv(l))
        return out
    k = n // 2
    _lower_inverse(l[:k, :k], out[:k, :k])
    _lower_inverse(l[k:, k:], out[k:, k:])
    t = out[k:, k:] @ l[k:, :k]
    np.negative(t, out=t)
    np.matmul(t, out[:k, :k], out=out[k:, :k])
    return out


def _cond1_bound(s_norm: float, l_inv: np.ndarray) -> float:
    """Upper bound s_norm ||L^-1||_1 ||L^-1||_inf on cond_1(S), where
    S = L L^H and s_norm = ||S||_1.

    ||S^-1||_1 = ||L^-H L^-1||_1 <= ||L^-1||_inf ||L^-1||_1, and each factor
    is at most sqrt(n) ||L^-1||_2, so the bound lies between cond_1(S) and
    n ||S||_1 ||S^-1||_2 <= n cond_1(S).
    """
    mag = np.abs(l_inv)
    return float(s_norm * mag.sum(0).max() * mag.sum(1).max())


def metric_root(s: np.ndarray, what: str):
    """(C, cond) with C^H S C = I: the one inverse of a positive metric S.

    cond is the `_cond1_bound` of the Cholesky factor S = L L^H (only the
    lower triangle is read), inf without one, so cond_1(S) <= cond <=
    n cond_1(S). Up to COND_SWITCH, C = L^-H; above it C = U W^-1/2 whitens
    the modes of the Hermitian part of S that `positive_modes` keeps.
    """
    # before L exists: its n x n temporary, freed after L, would fragment
    # the heap and raise peak RSS
    s_norm = np.linalg.norm(s, 1)
    try:  # L dies as soon as its inverse exists
        l_inv = _lower_inverse(np.linalg.cholesky(s))
    except np.linalg.LinAlgError:
        l_inv = None
    cond = float("inf") if l_inv is None else _cond1_bound(s_norm, l_inv)
    if cond <= COND_SWITCH:
        return l_inv.conj().T, cond
    del l_inv
    w, u = positive_modes(0.5 * (s + s.conj().T), what)
    return u / np.sqrt(w), cond


def invert_overlap(s: np.ndarray):
    """(S_inv, cond): S^-1 = C C^H with C from `metric_root`, exactly
    symmetric for a real S (numpy forms C C^T as one symmetric product)."""
    c, cond = metric_root(s, "overlap pseudo-inverted")
    return c @ c.conj().T, cond


def build_bvn(g: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """Grid-sampled biorthogonal functions B = G S^-1 (so G^dag B = I)."""
    if g.shape[1] != s_inv.shape[0]:
        raise ValueError("G and S_inv shapes disagree")
    return g @ s_inv


def build_basis(lattice: VnLattice, grid: Grid1D) -> BasisMatrices:
    """Real (G, S, S_inv, B) bundle; mirror-closed cell subsets span as build_G.

    g at -p is the conjugate of g at +p, so a cell and its mirror become the
    unitary pair sqrt(2) Re g, sqrt(2) Im g of the lower-index partner g (a
    p = 0 cell keeps Re g). G^dag B = I and B^dag B = S^-1 still hold.
    Entries of G below sqrt(tiny) in magnitude are zeroed first: a product
    of two is subnormal and slows the BLAS, and S moves by far less than
    its rounding (at most N sqrt(tiny) max|G|).
    """
    m = np.arange(lattice.size)
    pair = lattice.mirror
    gc = build_G(lattice, grid)[:, np.minimum(m, pair)]
    g = np.where(m == pair, 1.0, math.sqrt(2.0)) * np.where(
        m <= pair, gc.real, gc.imag)
    g[np.abs(g) < math.sqrt(np.finfo(float).tiny)] = 0.0
    s = build_overlap(g)
    s_inv, cond = invert_overlap(s)
    return BasisMatrices(g, s, s_inv, build_bvn(g, s_inv), cond)


def continuous_vn_matrices(lattice: VnLattice, spec: PotentialSpec):
    """Analytic Hamiltonian and overlap of the raw (non-periodized) Gaussians.

    Closed-form integrals over the infinite line; only the harmonic potential
    is supported. This is the baseline the periodized basis is compared
    against.
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
    return 0.5 * (h + h.conj().T), 0.5 * (s + s.conj().T)
