"""Result container shared by the grid and phase-space solvers."""

from dataclasses import dataclass

import numpy as np


@dataclass
class Spectrum:
    """Ascending real eigenvalues plus optional eigenvectors.

    eigenvectors, when present, holds one column of basis coefficients per
    energy, in the same order.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray | None = None
