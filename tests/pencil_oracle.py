"""Hand-built pencils and Gaussians for the tests.

`Pipeline` projects each axis's kinetic matrix in place (`vn_basis.project`);
the tests form K = B^T T B with the plain dense product instead, so every
hand-built pencil also checks the assembly against that oracle. The real
mirror pairs `build_basis` evaluates are checked against the complex
Gaussians they recombine, `complex_gaussians`.
"""

import math

import numpy as np

import phasegrid as pg


def grid_pencil(h_op, cols, metrics, mask=None):
    """`assemble_bvn` of the FghOperator h_op on per-axis columns and
    metrics, each axis's kinetic matrix projected as B^T T B."""
    kinetics = tuple(b.T @ t @ b for t, b in zip(h_op.ts, cols))
    return pg.assemble_bvn(h_op.v_diag, cols, metrics, kinetics, mask)


def complex_gaussians(lattice, cells=slice(None)) -> np.ndarray:
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
