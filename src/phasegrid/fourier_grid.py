"""Fourier grid (periodic sinc DVR) representation and reference eigensolve.

Wavefunctions live on N evenly spaced points of a periodic box of length L.
The underlying basis functions are periodic sinc (Dirichlet) functions; the
potential is diagonal at the grid points and the kinetic matrix has the
standard closed form for the symmetric wavenumber range j = -N/2+1 .. N/2.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericFailureError, SingularPointError
from .potentials import PotentialSpec, evaluate
from .spectra import Spectrum, make_spectrum

DENSE_2D_LIMIT = 5000


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic coordinate grid with phase-space box metadata.

    Points are x_min + dx*n for n = 0..N-1 with dx = L/N. The grid resolves
    wavenumbers up to K = pi/dx (momenta up to P = pi*hbar/dx), so N points
    span a phase-space rectangle of area 2*L*P = N*h.
    """

    x_min: float
    L: float
    N: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("box length L must be positive")
        if self.N <= 0 or self.N % 2 != 0:
            raise ValueError("N must be a positive even integer")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.N)

    @property
    def k_max(self) -> float:
        """Wavenumber half-extent K = pi/dx."""
        return math.pi / self.dx

    def p_max(self, hbar: float = 1.0) -> float:
        """Momentum half-extent P = pi*hbar/dx."""
        return math.pi * hbar / self.dx


@dataclass(frozen=True)
class Grid2D:
    """Tensor product of two 1-d grids.

    Flat ordering is row-major with x fastest: flat = iy * gx.N + ix, i.e.
    vec.reshape(gy.N, gx.N)[iy, ix] recovers the (ix, iy) grid value.
    """

    gx: Grid1D
    gy: Grid1D

    @property
    def size(self) -> int:
        return self.gx.N * self.gy.N

    @property
    def points(self) -> np.ndarray:
        """(size, 2) array of (x, y) pairs in flat ordering."""
        x = np.tile(self.gx.points, self.gy.N)
        y = np.repeat(self.gy.points, self.gx.N)
        return np.column_stack([x, y])

    def flat_index(self, ix: int, iy: int) -> int:
        return iy * self.gx.N + ix


def theta_eval(grid: Grid1D, n: int, x):
    """Periodic sinc basis function theta_n evaluated at x (scalar or array).

    Closed form exp(i*A/2) * sin(N*A/2) / (sqrt(L*N) * sin(A/2)) with
    A = 2*pi*(x - x_n)/L; equals sqrt(N/L) where A is a multiple of 2*pi.
    The expression is L-periodic, so x outside the box needs no wrapping.
    """
    if not 0 <= n < grid.N:
        raise ValueError(f"basis index {n} outside 0..{grid.N - 1}")
    x = np.asarray(x, dtype=float)
    a = 2.0 * math.pi * (x - (grid.x_min + grid.dx * n)) / grid.L
    # reduce to |b| <= pi; for even N the closed form is unchanged
    b = a - 2.0 * math.pi * np.round(a / (2.0 * math.pi))
    sb = np.sin(0.5 * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(b == 0.0, float(grid.N), np.sin(0.5 * grid.N * b) / sb)
    out = np.exp(0.5j * b) * ratio / math.sqrt(grid.L * grid.N)
    return complex(out) if out.ndim == 0 else out


def kinetic_matrix(grid: Grid1D, mass: float, hbar: float = 1.0) -> np.ndarray:
    """Dense kinetic energy matrix of the periodic sinc basis.

    T_ii = (hbar^2/2m) K^2/3 (1 + 2/N^2),
    T_ij = (hbar^2/2m) (2K^2/N^2) (-1)^(j-i) / sin^2(pi (j-i)/N).
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    n = grid.N
    k = grid.k_max
    d = np.subtract.outer(np.arange(n), np.arange(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (2.0 * k**2 / n**2) * ((-1.0) ** d) / np.sin(math.pi * d / n) ** 2
    t = np.where(d == 0, (k**2 / 3.0) * (1.0 + 2.0 / n**2), off)
    return (hbar**2 / (2.0 * mass)) * t


def kinetic_matrix_fft_oracle(grid: Grid1D, mass: float, hbar: float = 1.0) -> np.ndarray:
    """Kinetic matrix assembled from plane-wave modes (independent check).

    Builds T = Phi diag(hbar^2 k_j^2 / 2m) Phi^dagger over the modes
    k_j = 2*pi*j/L, j = -N/2+1 .. N/2, and drops the vanishing imaginary part.
    """
    n = grid.N
    js = np.arange(-n // 2 + 1, n // 2 + 1)
    k = 2.0 * math.pi * js / grid.L
    phi = np.exp(2j * math.pi * np.multiply.outer(np.arange(n), js) / n) / math.sqrt(n)
    t = (phi * (hbar**2 * k**2 / (2.0 * mass))) @ phi.conj().T
    return t.real


def potential_matrix(grid, spec: PotentialSpec) -> np.ndarray:
    """Diagonal of the potential matrix, V(x_i) in grid ordering."""
    if isinstance(grid, Grid2D):
        if spec.dimension != 2:
            raise ValueError(f"{spec.kind} potential is not two-dimensional")
        diag = evaluate(spec, grid.points)
    else:
        if spec.dimension != 1:
            raise ValueError(f"{spec.kind} potential is not one-dimensional")
        diag = evaluate(spec, grid.points)
    diag = np.asarray(diag, dtype=float)
    if not np.all(np.isfinite(diag)):
        raise SingularPointError(
            "potential is singular on a grid point; offset the grid so no "
            "point hits the singularity")
    return diag


class FghOperator2D:
    """Matrix-free 2-d grid Hamiltonian using its Kronecker structure.

    Applies kron(Ty, Ix) + kron(Iy, Tx) + diag(v) to stacked column vectors
    without forming the dense matrix. Reentrant: holds only immutable arrays.
    """

    def __init__(self, grid: Grid2D, tx: np.ndarray, ty: np.ndarray, v_diag: np.ndarray):
        self.grid = grid
        self.tx = tx
        self.ty = ty
        self.v_diag = v_diag
        self._v2d = v_diag.reshape(grid.gy.N, grid.gx.N)

    @property
    def shape(self):
        return (self.grid.size, self.grid.size)

    @property
    def dtype(self):
        return np.result_type(self.tx, self.v_diag)

    def apply(self, m: np.ndarray) -> np.ndarray:
        """H @ m for m of shape (size,) or (size, k)."""
        single = m.ndim == 1
        cols = m[:, None] if single else m
        ny, nx = self.grid.gy.N, self.grid.gx.N
        arr = np.ascontiguousarray(cols.T).reshape(-1, ny, nx)
        out = np.einsum("ab,kbc->kac", self.ty, arr)
        out += arr @ self.tx  # Tx symmetric
        out += self._v2d[None, :, :] * arr
        flat = out.reshape(-1, self.grid.size).T
        return flat[:, 0] if single else flat

    def matvec(self, v):  # scipy LinearOperator protocol
        return self.apply(v)

    def to_dense(self) -> np.ndarray:
        nx, ny = self.grid.gx.N, self.grid.gy.N
        h = np.kron(self.ty, np.eye(nx)) + np.kron(np.eye(ny), self.tx)
        h[np.diag_indices_from(h)] += self.v_diag
        return h


def hamiltonian_fgh(grid, spec: PotentialSpec, mass: float | None = None,
                    hbar: float | None = None, assembly: str = "auto"):
    """Grid Hamiltonian T + V.

    1-d grids always return a dense symmetric matrix. 2-d grids return a
    dense matrix when assembly is "dense" (or "auto" below DENSE_2D_LIMIT
    points) and an FghOperator2D otherwise.
    """
    mass = spec.mass if mass is None else mass
    hbar = spec.hbar if hbar is None else hbar
    if isinstance(grid, Grid1D):
        h = kinetic_matrix(grid, mass, hbar)
        h[np.diag_indices_from(h)] += potential_matrix(grid, spec)
        return h
    tx = kinetic_matrix(grid.gx, mass, hbar)
    ty = kinetic_matrix(grid.gy, mass, hbar)
    op = FghOperator2D(grid, tx, ty, potential_matrix(grid, spec))
    if assembly == "matfree":
        return op
    if assembly == "dense" or (assembly == "auto" and grid.size <= DENSE_2D_LIMIT):
        return op.to_dense()
    if assembly == "auto":
        return op
    raise ValueError(f"unknown assembly mode {assembly!r}")


def solve_fgh(grid, spec: PotentialSpec, mass: float | None = None,
              hbar: float | None = None, n_states: int | None = None,
              want_vectors: bool = False) -> Spectrum:
    """Eigenvalues (ascending) of the grid Hamiltonian.

    Dense path everywhere; for 2-d grids above DENSE_2D_LIMIT points a
    Lanczos solve on the matrix-free operator returns the lowest n_states.
    """
    size = grid.N if isinstance(grid, Grid1D) else grid.size
    if n_states is not None and n_states > size:
        raise ValueError("n_states exceeds the basis size")
    h = hamiltonian_fgh(grid, spec, mass, hbar)
    if isinstance(h, FghOperator2D):
        if n_states is None:
            raise ValueError("matrix-free solve requires n_states")
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator(h.shape, matvec=h.apply, matmat=h.apply, dtype=float)
        try:
            vals, vecs = eigsh(op, k=n_states, which="SA")
        except Exception as exc:  # ArpackNoConvergence and friends
            raise NumericFailureError(f"Lanczos eigensolve failed: {exc}") from exc
        return make_spectrum(vals, "fgh", size, vecs if want_vectors else None)
    try:
        if want_vectors:
            vals, vecs = scipy.linalg.eigh(h)
        else:
            vals = scipy.linalg.eigh(h, eigvals_only=True)
            vecs = None
    except scipy.linalg.LinAlgError as exc:
        raise NumericFailureError(f"dense eigensolve failed: {exc}") from exc
    if n_states is not None:
        vals = vals[:n_states]
        vecs = vecs[:, :n_states] if vecs is not None else None
    return make_spectrum(vals, "fgh", size, vecs)


def harmonic_square_grid(n: int, mass: float = 1.0, omega: float = 1.0,
                         hbar: float = 1.0) -> Grid1D:
    """Symmetric box whose phase-space rectangle is square in oscillator units.

    Matching position extent L to momentum extent 2P (scaled by sqrt(m*omega))
    with 2*L*P = N*h fixed gives L = sqrt(2*pi*hbar*N/(m*omega)). Points are
    placed at cell midpoints so the grid maps onto itself under x -> -x; for
    the even-parity oscillator this placement is markedly more accurate than
    putting a point on the box edge.
    """
    length = math.sqrt(2.0 * math.pi * hbar * n / (mass * omega))
    dx = length / n
    return Grid1D(x_min=-0.5 * (length - dx), L=length, N=n)
