"""Numpy kernels against plain-Python oracles."""

import itertools

import numpy as np

from phasegrid import _kernels
import phasegrid as pg


def test_mc_hits_against_python_loop():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=(500, 1))
    ps = rng.uniform(-2.0, 2.0, size=(500, 1))
    got = _kernels.mc_count_hits(xs, ps, pg.harmonic(), 1.3)
    expect = 0
    for x, p in zip(xs[:, 0], ps[:, 0]):
        if p * p / 2.0 + 0.5 * x * x <= 1.3:
            expect += 1
    assert got == expect


def test_tuple_count_against_itertools():
    # (levels, ndim, e_max, budget, exceeded); a tight budget stops the walk
    # with the tuples completed so far, never more nodes than the budget
    cases = [
        ([0.3, 0.9, 1.1, 2.4], 3, 3.0, 10**8, False),
        ([0.3, 0.9, 1.1, 2.4], 3, 3.0, 4, True),
        ([0.3, 0.9, 1.1, 2.4], 3, 3.0, 8, True),
        (np.arange(8.0), 4, 12.0, 100, True),
        (np.arange(8.0), 4, 12.0, 10**4, False),
        (np.arange(6.0), 1, 3.5, 0, False),
        (np.arange(6.0), 5, 1e9, 50, True),
    ]
    for levels, d, e_max, budget, exceeds in cases:
        levels = np.asarray(levels, dtype=float)
        expect = sum(1 for combo in itertools.product(levels, repeat=d)
                     if sum(combo) <= e_max)
        count, nodes, exceeded = _kernels.count_tuples_below(levels, d, e_max,
                                                             budget)
        assert exceeded == exceeds
        assert nodes <= budget
        assert count <= expect
        if not exceeded:
            assert count == expect
