"""Basis names and the result container shared by the grid and phase-space
solvers; it loads without them, so a config check can name the bases."""

from dataclasses import dataclass

import numpy as np

# the bases a Pipeline solves in
BASES = ("fgh", "vn", "pvn", "bvn")


@dataclass
class Spectrum:
    """Ascending real eigenvalues plus optional eigenvectors.

    eigenvectors, when present, holds one column of basis coefficients per
    energy, in the same order.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray | None = None
