"""Energy-based selection of phase-space cells.

A cell is kept when the classical Hamiltonian at its center lies below the
cutoff plus a margin. The margin absorbs the variation of H over a finite
cell: it is estimated per cell from the local gradient, times a scale, so
cells whose center sits just above the cutoff but whose cell still dips
below it are retained. Scale 0 is the sharp cut H_cl <= e_cut.
"""

from dataclasses import dataclass

import numpy as np

from .fourier_grid import axis_product
from .potentials import PotentialSpec, evaluate


@dataclass(frozen=True)
class PruneMask:
    """Boolean keep flags over the flattened cell index."""

    kept: np.ndarray

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.kept))

    @property
    def size(self) -> int:
        return self.kept.size

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.kept)


def cell_table(lats: tuple, spec: PotentialSpec):
    """Centers and classical energies of every cell, flattened.

    lats holds one VnLattice per dimension. Returns (centers, h_cl):
    centers has one row per cell with columns (x, p) per dimension, i.e.
    (x, px, y, py) in 2-D; the flat cell index runs with the first
    dimension fastest (`axis_product`), matching the Kronecker column order
    of the basis matrices.
    """
    if len(lats) != spec.dimension:
        raise ValueError(
            f"{len(lats)} lattice(s) for a {spec.dimension}-D potential")
    centers = axis_product([lat.centers for lat in lats])
    kin = (centers[:, 1::2] ** 2).sum(axis=1) / (2.0 * spec.mass)
    return centers, kin + evaluate(spec, centers[:, 0::2])


def _gradient_margins(lats: tuple, spec: PotentialSpec,
                      centers: np.ndarray) -> np.ndarray:
    """Per-cell linearized variation of H over half a cell in each direction.

    sum_d |dH/dx_d| a_d/2 + |dH/dp_d| dp_d/2, with the potential gradient
    taken by central differences.
    """
    margins = np.zeros(centers.shape[0])
    xs, ps = centers[:, 0::2], centers[:, 1::2]
    for d, lat in enumerate(lats):
        h = 1e-6 * np.maximum(1.0, np.abs(xs[:, d]))
        xp = xs.copy()
        xm = xs.copy()
        xp[:, d] += h
        xm[:, d] -= h
        dv = (evaluate(spec, xp) - evaluate(spec, xm)) / (2.0 * h)
        margins += np.abs(dv) * (lat.a / 2.0)
        margins += np.abs(ps[:, d] / spec.mass) * (lat.dp / 2.0)
    return margins


def select_cells(lats: tuple, spec: PotentialSpec, e_cut: float,
                 auto_scale: float = 1.0) -> PruneMask:
    """Keep cells with h_cl <= e_cut + auto_scale * gradient margin.

    The margin does not depend on e_cut, so the kept set is monotone in
    e_cut, and in auto_scale.
    """
    if auto_scale < 0:
        raise ValueError("auto_scale must be nonnegative")
    centers, h_cl = cell_table(lats, spec)
    bound = e_cut
    if auto_scale > 0:  # 0 times the infinite margin beside a pole is nan
        bound = e_cut + auto_scale * _gradient_margins(lats, spec, centers)
    return PruneMask(kept=h_cl <= bound)
