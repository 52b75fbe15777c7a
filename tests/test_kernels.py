"""Numpy kernels against plain-Python oracles."""

import math
import tracemalloc

import numpy as np

from phasegrid import _kernels
import phasegrid as pg


def test_mc_hits_against_python_loop():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=(500, 1))
    ps = rng.uniform(-2.0, 2.0, size=(500, 1))
    expect = 0  # counted first: the kernel consumes xs and ps
    for x, p in zip(xs[:, 0], ps[:, 0]):
        if p * p / 2.0 + 0.5 * x * x <= 1.3:
            expect += 1
    assert _kernels.mc_count_hits(xs, ps, pg.harmonic(), 1.3) == expect


def test_shell_mask_matches_summed_formula():
    # the per-axis formula the kernel replaced, bit for bit, up to D = 4
    # coulomb1d, sampled where it is finite (x > 0), fills V(x) by
    # assignment rather than in place
    rng = np.random.default_rng(8)
    specs = (pg.harmonic(mass=2.0, omega=1.5), pg.morse(),
             pg.coulomb1d(charge=1.3, mass=3.0))
    for spec in specs:
        x_lo = 0.5 if spec.kind == "coulomb1d" else -2.5
        for d in (1, 2, 3, 4):
            xs = rng.uniform(x_lo, 8.5, size=(4000, d))
            ps = rng.uniform(-6.0, 6.0, size=(4000, d))
            total = (np.sum(ps**2, axis=1) / (2.0 * spec.mass)
                     + sum(pg.evaluate(spec, xs[:, k]) for k in range(d)))
            # at a sample's own total, and one ulp below it, a sum that
            # differs from the formula in the last bit flips that sample
            for i in range(0, 4000, 400):
                for energy in (total[i], np.nextafter(total[i], -np.inf)):
                    got = _kernels.shell_mask(xs.copy(), ps.copy(), spec,
                                              energy)
                    assert np.array_equal(got, total <= energy), (spec.kind,
                                                                  d, i)


def test_shell_mask_makes_no_block_sized_temporary():
    # the kernel squares p, evaluates V(x) and sums each row in the arrays
    # it is given, so beside them it holds the mask (m bytes) and no more
    # than a few small array headers
    m, d = 20_000, 3
    rng = np.random.default_rng(9)
    for spec in (pg.harmonic(mass=2.0, omega=1.5), pg.morse()):
        xs = rng.uniform(-1.0, 4.0, size=(m, d))
        ps = rng.uniform(-6.0, 6.0, size=(m, d))
        tracemalloc.start()
        try:
            _kernels.shell_mask(xs, ps, spec, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m + 4096, (spec.kind, peak)


def test_row_sum_matches_np_sum():
    # left to right below 8 columns, numpy's pairwise order from 8 on; the
    # sum overwrites a, so the reference is summed from a copy taken first
    rng = np.random.default_rng(5)
    for d in range(1, 11):
        a = (rng.standard_normal((3000, d))
             * np.exp(rng.uniform(-20.0, 20.0, size=(3000, d))))
        want = np.sum(a.copy(), axis=1)
        assert np.array_equal(_kernels._row_sum(a), want), d


def test_mc_hits_3d_morse_against_python_loop():
    spec = pg.morse()
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1.0, 4.0, size=(1000, 3))
    ps = rng.uniform(-6.0, 6.0, size=(1000, 3))
    depth, beta, mass = (spec.params["depth"], spec.params["beta"],
                         spec.mass)
    expect = 0
    for x, p in zip(xs, ps):
        energy = sum(pk * pk for pk in p) / (2.0 * mass)
        energy += sum(depth * (1.0 - math.exp(-beta * xk)) ** 2 for xk in x)
        if energy <= 11.25:
            expect += 1
    assert 0 < expect < 1000
    assert _kernels.mc_count_hits(xs, ps, spec, 11.25) == expect
