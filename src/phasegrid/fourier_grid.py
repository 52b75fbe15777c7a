"""Fourier grid (periodic sinc DVR) representation and reference eigensolve.

Wavefunctions live on N evenly spaced points of a periodic box of length L.
The underlying basis functions are periodic sinc (Dirichlet) functions; the
potential is diagonal at the grid points and the kinetic matrix has the
standard closed form for the symmetric wavenumber range j = -N/2+1 .. N/2.
A grid in several dimensions is the tuple of its Grid1D axes; its Hamiltonian
is one FghOperator, the per-axis kinetic matrices plus the potential diagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError, SingularPointError
from .potentials import PotentialSpec, evaluate
from .spectra import Spectrum

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
        for name in ("x_min", "L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"grid {name} = {getattr(self, name)} is not finite")
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


def axis_product(blocks) -> np.ndarray:
    """Rows of the flat product of per-axis arrays, first axis fastest.

    blocks holds one array per axis whose rows are that axis's entries
    (grid points, or (x, p) cell centers). Flat row k = i_0 + n_0 * (i_1 +
    n_1 * ...) joins row i_d of every block d, so the 2-d grid's values sit
    at vec.reshape(n_1, n_0)[i_1, i_0].
    """
    blocks = [np.reshape(b, (len(b), -1)) for b in blocks]
    sizes = [len(b) for b in blocks]
    index = np.unravel_index(np.arange(math.prod(sizes)), sizes[::-1])[::-1]
    return np.column_stack([b[i] for b, i in zip(blocks, index)])


def kinetic_matrix(grid: Grid1D, mass: float, hbar: float = 1.0) -> np.ndarray:
    """Dense kinetic energy matrix of the periodic sinc basis.

    T_ii = (hbar^2/2m) K^2/3 (1 + 2/N^2),
    T_ij = (hbar^2/2m) (2K^2/N^2) (-1)^(j-i) / sin^2(pi (j-i)/N).
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    n = grid.N
    k = grid.k_max
    d = np.arange(n - 1, -n, -1)  # T_ij depends on d = i - j alone
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (2.0 * k**2 / n**2) * ((-1.0) ** d) / np.sin(math.pi * d / n) ** 2
    t = (hbar**2 / (2.0 * mass)) * np.where(
        d == 0, (k**2 / 3.0) * (1.0 + 2.0 / n**2), off)
    # window s holds d = n-1-s .. -s, so the reversed windows are T's rows
    return np.lib.stride_tricks.sliding_window_view(t, n)[::-1].copy()


def potential_matrix(axes: tuple, spec: PotentialSpec) -> np.ndarray:
    """Diagonal of the potential matrix, V at the `axis_product` points."""
    ndim = len(axes)
    if spec.dimension != ndim:
        raise ValueError(f"{spec.kind} potential is not {ndim}-dimensional")
    points = axis_product([g.points for g in axes])
    diag = np.asarray(evaluate(spec, points), dtype=float)
    if not np.all(np.isfinite(diag)):
        raise SingularPointError(
            "potential is singular on a grid point; offset the grid so no "
            "point hits the singularity")
    return diag


class FghOperator:
    """Grid Hamiltonian sum_d T_d + diag(v) kept in its Kronecker structure.

    ts holds one kinetic matrix per axis and v_diag the potential at the
    `axis_product` points, so T_d acts on the flat index's d-th digit, the
    first axis fastest. `apply` never forms the dense matrix; `to_dense`
    does. Reentrant: holds only immutable arrays.
    """

    def __init__(self, ts: tuple, v_diag: np.ndarray):
        self.ts = tuple(ts)
        self.v_diag = v_diag

    @property
    def shape(self):
        return (self.v_diag.size, self.v_diag.size)

    def apply(self, m: np.ndarray) -> np.ndarray:
        """H @ m for m of shape (size,) or (size, k)."""
        single = m.ndim == 1
        cols = m[:, None] if single else m
        grid_shape = tuple(len(t) for t in reversed(self.ts))
        arr = np.ascontiguousarray(cols.T).reshape(-1, *grid_shape)
        out = self.v_diag.reshape(grid_shape) * arr
        for d, t in enumerate(self.ts):  # each T_d symmetric
            out += np.moveaxis(np.moveaxis(arr, -1 - d, -1) @ t, -1, -1 - d)
        flat = out.reshape(-1, self.v_diag.size).T
        return flat[:, 0] if single else flat

    def to_dense(self) -> np.ndarray:
        """The matrix, one new array: each T_d is added where every other
        digit of row and column agrees, through a strided view of h."""
        sizes = [len(t) for t in self.ts]
        h = np.zeros(self.shape)
        row, col = h.strides
        for d, t in enumerate(self.ts):
            slower, faster = math.prod(sizes[d + 1:]), math.prod(sizes[:d])
            n = len(t)
            # (slower digits, faster digits, row digit d, column digit d)
            np.lib.stride_tricks.as_strided(
                h, (slower, faster, n, n),
                (faster * n * (row + col), row + col, faster * row,
                 faster * col))[...] += t
        h[np.diag_indices_from(h)] += self.v_diag
        return h


# the name perfbench/tracer.py wraps, kept only until ROADMAP item 10
FghOperator2D = FghOperator


def hamiltonian_fgh(axes: tuple, spec: PotentialSpec) -> FghOperator:
    """Grid Hamiltonian T + V on the grid whose axes are given, matrix-free."""
    ts = tuple(kinetic_matrix(g, spec.mass, spec.hbar) for g in axes)
    return FghOperator(ts, potential_matrix(axes, spec))


def solve_fgh(axes: tuple, spec: PotentialSpec,
              n_states: int | None = None) -> Spectrum:
    """Eigenvalues (ascending) of the grid Hamiltonian.

    Dense path on 1-d grids and 2-d grids up to DENSE_2D_LIMIT points,
    keeping the lowest n_states (all by default; below 1 raises); above it
    Lanczos on the operator returns the lowest n_states, which it needs.
    """
    if n_states is not None and n_states < 1:
        raise ValueError(f"n_states = {n_states}: must be at least 1")
    h = hamiltonian_fgh(axes, spec)
    if len(axes) > 1 and h.shape[0] > DENSE_2D_LIMIT:
        if n_states is None:
            raise ValueError("matrix-free solve requires n_states")
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator(h.shape, matvec=h.apply, matmat=h.apply, dtype=float)
        try:
            vals = eigsh(op, k=n_states, which="SA", return_eigenvectors=False)
        except Exception as exc:  # ArpackNoConvergence and friends
            raise NumericFailureError(f"Lanczos eigensolve failed: {exc}") from exc
        return Spectrum(np.sort(vals))  # descending without eigenvectors
    try:
        vals = np.linalg.eigvalsh(h.to_dense())
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"dense eigensolve failed: {exc}") from exc
    return Spectrum(vals[:n_states])


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
