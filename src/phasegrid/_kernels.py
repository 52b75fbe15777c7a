"""Numpy kernels for Monte Carlo hit counting and level-tuple enumeration."""

import numpy as np

from .potentials import evaluate

# most prefix sums built in one enumeration step
BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# Monte Carlo hit counting
# ---------------------------------------------------------------------------

def shell_mask(xs, ps, spec, energy):
    """Mask of samples with sum_d p_d^2/2m + V(x_d) <= energy.

    xs, ps: (n, D) arrays of pre-drawn coordinates and momenta.
    """
    kin = np.sum(ps**2, axis=1) / (2.0 * spec.mass)
    pot = sum(evaluate(spec, xs[:, d]) for d in range(xs.shape[1]))
    return kin + pot <= energy


def mc_count_hits(xs, ps, spec, energy):
    """Number of samples inside the separable energy shell."""
    return int(np.count_nonzero(shell_mask(xs, ps, spec, energy)))


# ---------------------------------------------------------------------------
# Brute-force state counting
# ---------------------------------------------------------------------------

def count_tuples_below(levels, ndim, e_max, budget=10**8):
    """Count ordered ndim-tuples of levels with total <= e_max.

    Returns (count, nodes_visited, budget_exceeded). Levels must be sorted
    ascending. A node is one prefix sum over the first ndim-1 dimensions;
    the last dimension is counted by bisection. Prefixes are expanded
    depth first in blocks sized so that the remaining budget can still
    reach the last dimension, so running out of budget returns the tuples
    completed so far, and nodes_visited never exceeds the budget.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size:
        # a usable level leaves room for the other ndim-1 dims at the floor
        top = e_max - (ndim - 1) * levels[0]
        levels = levels[:np.searchsorted(levels, top, side="right")]
    n = levels.size
    if n == 0:
        return 0, 0, False
    lo = levels[0]
    count = 0
    nodes = 0
    stack = [(ndim, np.zeros(1))]  # (dims still open, prefix sums)
    while stack:
        left, sums = stack.pop()
        if left == 1:
            count += int(np.searchsorted(levels, e_max - sums, side="right").sum())
            continue
        room = (budget - nodes) // n - (left - 2)
        take = min(sums.size, room, max(1, BLOCK // n))
        if take < 1:
            return count, nodes, True
        if take < sums.size:
            stack.append((left, sums[take:]))
        nodes += take * n
        new = (sums[:take, None] + levels).ravel()
        # left-1 dims stay open, each at least lo
        new = new[new + (left - 1) * lo <= e_max]
        if new.size:
            stack.append((left - 1, new))
    return count, nodes, False
