"""Numpy kernel for Monte Carlo hit counting."""

import numpy as np

from .potentials import evaluate


def shell_mask(xs, ps, spec, energy):
    """Mask of samples with sum_d p_d^2/2m + V(x_d) <= energy.

    xs, ps: (n, D) float arrays of pre-drawn coordinates and momenta, which
    the kernel consumes: ps is left holding p^2 and xs holding V(x), and
    each row sum goes into the array's first column, so beside them it
    holds the mask. Both sums are bit-identical to np.sum(..., axis=1) of
    p * p and V(x).
    """
    np.multiply(ps, ps, out=ps)
    kin = _row_sum(ps)
    kin /= 2.0 * spec.mass
    evaluate(spec, xs, out=xs)
    kin += _row_sum(xs)
    return kin <= energy


def _row_sum(a):
    """np.sum(a, axis=1) for an (n, D) array, bit for bit; overwrites a.

    np.sum adds fewer than 8 columns left to right, which one pass per
    column does in a's column 0 without the slow short-axis reduction, and
    returns that column; from 8 columns on it sums pairwise, so those go
    to np.sum itself.
    """
    if a.shape[1] >= 8:
        return np.sum(a, axis=1)
    out = a[:, 0]
    for d in range(1, a.shape[1]):
        out += a[:, d]
    return out


def mc_count_hits(xs, ps, spec, energy):
    """Number of samples inside the separable energy shell; consumes xs, ps."""
    return int(np.count_nonzero(shell_mask(xs, ps, spec, energy)))

