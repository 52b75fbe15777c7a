"""Energy-based selection of phase-space cells.

A cell is kept when the classical Hamiltonian at its center lies below the
cutoff plus a margin. The margin absorbs the variation of H over a finite
cell; "auto" estimates it per cell from the local gradient, so cells whose
center sits just above the cutoff but whose cell still dips below it are
retained.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .potentials import PotentialSpec, evaluate
from .vn_basis import VnLattice


@dataclass(frozen=True)
class PruneRule:
    """Cutoff energy plus margin policy ('auto' or a fixed float >= 0)."""

    e_cut: float
    margin: Union[float, str] = "auto"
    auto_scale: float = 1.0

    def __post_init__(self):
        if isinstance(self.margin, str):
            if self.margin != "auto":
                raise ValueError(f"unknown margin policy {self.margin!r}")
        elif self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.auto_scale < 0:
            raise ValueError("auto_scale must be nonnegative")


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


def _as_lattices(lattices) -> tuple:
    if isinstance(lattices, VnLattice):
        return (lattices,)
    return tuple(lattices)


def cell_table(lattices, spec: PotentialSpec):
    """Centers and classical energies of every cell, flattened.

    Returns (centers, h_cl): centers has one row per cell with columns
    (x, p) per dimension, i.e. (x, px, y, py) in 2-D; the flat cell index
    runs with the first dimension fastest, matching the Kronecker column
    order of the basis matrices.
    """
    lats = _as_lattices(lattices)
    if len(lats) != spec.dimension:
        raise ValueError(
            f"{len(lats)} lattice(s) for a {spec.dimension}-D potential")
    sizes = [lat.size for lat in lats]
    # per-axis cell index of every flat cell, first axis fastest
    cell = np.unravel_index(np.arange(np.prod(sizes)), sizes[::-1])[::-1]
    centers = np.column_stack([lat.centers[i] for lat, i in zip(lats, cell)])
    kin = (centers[:, 1::2] ** 2).sum(axis=1) / (2.0 * spec.mass)
    return centers, kin + evaluate(spec, centers[:, 0::2])


def _auto_margins(lats, spec: PotentialSpec, centers: np.ndarray,
                  scale: float) -> np.ndarray:
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
    return scale * margins


def select_cells(lattices, spec: PotentialSpec, rule: PruneRule) -> PruneMask:
    """Keep cells whose center energy is within margin of the cutoff.

    With a fixed margin the kept set is monotone in e_cut; the auto margin
    is independent of e_cut so monotonicity still holds.
    """
    lats = _as_lattices(lattices)
    centers, h_cl = cell_table(lats, spec)
    if isinstance(rule.margin, str):
        margins = _auto_margins(lats, spec, centers, rule.auto_scale)
    else:
        margins = np.full(h_cl.shape, float(rule.margin))
    return PruneMask(kept=h_cl <= rule.e_cut + margins)
