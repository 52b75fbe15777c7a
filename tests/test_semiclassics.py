"""Phase-space volumes, state counting, and the scaling table."""

import functools
import itertools
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import _kernels, semiclassics
from phasegrid.errors import (BelowWellBottomError, DegenerateEstimateError,
                              NotAvailableError, UnboundedOrbitError)
from phasegrid.semiclassics import MC_BLOCK, MC_CHUNK, _walk


def test_turning_points_harmonic():
    spec = pg.harmonic(mass=2.0, omega=3.0)
    lo, hi = pg.turning_points(spec, 4.5)
    x_t = math.sqrt(2 * 4.5 / (2.0 * 9.0))
    assert lo == pytest.approx(-x_t)
    assert hi == pytest.approx(x_t)


def test_turning_points_morse():
    spec = pg.morse(depth=12.0, beta=0.5)
    e = 8.0
    lo, hi = pg.turning_points(spec, e)
    # V(x) = depth*(1-exp(-beta x))^2 = e has two explicit roots
    s = math.sqrt(e / 12.0)
    assert lo == pytest.approx(-math.log(1 + s) / 0.5)
    assert hi == pytest.approx(-math.log(1 - s) / 0.5)
    with pytest.raises(UnboundedOrbitError):
        pg.turning_points(spec, 13.0)  # above dissociation


def test_phase_area_harmonic_is_ellipse():
    # closed orbit of H = p^2/2m + m w^2 x^2 / 2 encloses area 2 pi E / w
    spec = pg.harmonic(mass=3.0, omega=0.7)
    for e in (0.5, 2.0, 8.0):
        assert pg.phase_area_1d(spec, e) == pytest.approx(2 * math.pi * e / 0.7,
                                                          rel=1e-9)


def test_phase_area_morse_closed_form():
    # independent closed form: the Morse action integral is
    # (2 pi sqrt(2 m depth) / beta) * (1 - sqrt(1 - E/depth))
    spec = pg.morse(depth=12.0, beta=0.5, mass=6.0)
    for e in (2.0, 8.0, 11.25):
        expect = (2 * math.pi * math.sqrt(2 * 6.0 * 12.0) / 0.5
                  * (1 - math.sqrt(1 - e / 12.0)))
        assert pg.phase_area_1d(spec, e) == pytest.approx(expect, rel=1e-7)


def _area_by_quadrature(spec, energy):
    # 2 * integral of sqrt(2m(E - V)) over the orbit, x = c + r sin(t)
    from scipy.integrate import quad
    xl, xr = pg.turning_points(spec, energy)
    c, r = 0.5 * (xl + xr), 0.5 * (xr - xl)

    def integrand(t):
        gap = max(energy - pg.evaluate(spec, c + r * math.sin(t)), 0.0)
        return math.sqrt(2.0 * spec.mass * gap) * r * math.cos(t)

    return 2.0 * quad(integrand, -0.5 * math.pi, 0.5 * math.pi, limit=200)[0]


def test_phase_area_closed_forms_match_quadrature():
    for spec, top in ((pg.harmonic(mass=3.0, omega=0.7), 20.0),
                      (pg.morse(depth=12.0, beta=0.5, mass=6.0), 11.9)):
        for e in np.linspace(top / 20, top, 20):
            assert pg.phase_area_1d(spec, e) == pytest.approx(
                _area_by_quadrature(spec, e), rel=1e-13, abs=0.0)


def test_phase_area_coulomb_matches_quadrature():
    # the Coulomb orbit runs from x = 0 to z/|E|: pi z sqrt(2m/|E|)
    spec = pg.coulomb1d(charge=1.3, mass=2.0)
    for e in np.linspace(-3.0 / 20, -3.0, 20):
        assert pg.phase_area_1d(spec, e) == pytest.approx(
            _area_by_quadrature(spec, e), rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_phase_area_tabulated_well_integrates_the_interpolant():
    # a harmonic well sampled every 0.005: linear interpolation raises V by
    # at most h^2/8, and the area falls short of 2 pi E by at most 4.1e-6
    # relative (at E = 0.5)
    xs = np.linspace(-5.0, 5.0, 2001)
    spec = pg.tabulated(xs, 0.5 * xs**2)
    for e in (0.5, 3.0, 8.0):
        assert pg.phase_area_1d(spec, e) == pytest.approx(
            2 * math.pi * e, rel=1e-5)


def test_phase_area_of_a_table_finds_its_intervals_once(monkeypatch):
    # the intervals both reject energies without a bounded orbit and carry
    # the area, so they are found once per call
    xs = np.linspace(-5.0, 5.0, 201)
    spec = pg.tabulated(xs, 0.5 * xs**2)
    calls = []
    find = semiclassics._allowed_intervals
    monkeypatch.setattr(semiclassics, "_allowed_intervals",
                        lambda *a: calls.append(a) or find(*a))
    assert pg.phase_area_1d(spec, 3.0) > 0 and len(calls) == 1
    with pytest.raises(BelowWellBottomError):
        pg.phase_area_1d(spec, -1.0)
    with pytest.raises(UnboundedOrbitError):
        pg.phase_area_1d(spec, 20.0)


def test_phase_area_tabulated_v_abs_x_is_exact():
    # V = |x| is linear between the three knots, so the interpolant is the
    # potential itself: 2 * 2 * integral_0^E sqrt(2m(E - x)) dx
    spec = pg.tabulated([-4.0, 0.0, 4.0], [4.0, 0.0, 4.0], mass=1.5)
    for e in (0.3, 1.0, 3.9):
        assert pg.phase_area_1d(spec, e) == pytest.approx(
            8.0 / 3.0 * math.sqrt(2 * 1.5) * e**1.5, rel=1e-14)


def _double_well():
    # harmonic wells (omega = sqrt 2) with bottoms 0 at x = -2 and 0.5 at
    # x = +2, each also as a table of its own on the same knots
    xs = np.linspace(-5.0, 5.0, 4001)
    left, right = (xs + 2.0) ** 2, (xs - 2.0) ** 2 + 0.5
    return (pg.tabulated(xs, np.minimum(left, right)), pg.tabulated(xs, left),
            pg.tabulated(xs, right))


def test_table_area_sums_every_well():
    # at E = 1 both wells hold an orbit: the area is their sum, and the
    # turning points and the box span the hull of both
    both, left, right = _double_well()
    assert abs(pg.phase_area_1d(both, 1.0) - pg.phase_area_1d(left, 1.0)
               - pg.phase_area_1d(right, 1.0)) <= 1e-12
    assert pg.phase_area_1d(left, 1.0) == pytest.approx(math.pi * math.sqrt(2),
                                                        rel=1e-5)
    lo, hi = pg.turning_points(both, 1.0)
    assert (lo, hi) == (pg.turning_points(left, 1.0)[0],
                        pg.turning_points(right, 1.0)[1])
    assert lo == pytest.approx(-3.0) and hi == pytest.approx(2.0 + 0.5**0.5)
    box = pg.minimal_box(both, 1.0, 2)
    assert (box.x_lo, box.x_hi) == (lo, hi)
    # below the right well's bottom only the left orbit remains
    assert pg.phase_area_1d(both, 0.4) == pg.phase_area_1d(left, 0.4)


@pytest.mark.filterwarnings("error")
def test_mc_default_box_holds_every_well():
    # the default box reaches both wells: it agrees with a wider box, and
    # in 1-d with the summed area
    both = _double_well()[0]
    wide = pg.PhaseSpaceBox(-4.0, 4.0, 1.5)
    for ndim in (1, 2):
        tight = pg.mc_phase_volume(both, ndim, 1.0, 400_000, seed=ndim)
        loose = pg.mc_phase_volume(both, ndim, 1.0, 400_000, seed=ndim,
                                   box=wide)
        assert abs(tight.value - loose.value) < 4.0 * math.hypot(
            tight.std_error, loose.std_error), ndim
        if ndim == 1:
            assert abs(tight.value - pg.phase_area_1d(both, 1.0)) < (
                4.0 * tight.std_error)


def test_minimal_box_harmonic():
    spec = pg.harmonic()
    box = pg.minimal_box(spec, 8.0)
    x_t = math.sqrt(16.0)
    p_t = math.sqrt(16.0)
    assert box.volume(1) == pytest.approx(4 * x_t * p_t)
    assert box.volume(3) == pytest.approx((4 * x_t * p_t) ** 3)


def test_packing_ratio_harmonic_is_quarter_pi():
    # the D = 1 box ratio of scaling.csv is the 1-d packing ratio itself
    row, = pg.scaling_report(pg.harmonic(), (1,), 8.0, n_samples=1000)
    assert row.box_ratio == pytest.approx(math.pi / 4, abs=1e-9)


def test_mc_volume_harmonic_matches_ellipse():
    spec = pg.harmonic()
    est = pg.mc_phase_volume(spec, 1, 8.0, 200000, seed=7)
    exact = 2 * math.pi * 8.0
    assert abs(est.value - exact) < 4 * est.std_error
    assert est.std_error < 0.02 * exact
    # deterministic for a fixed seed
    again = pg.mc_phase_volume(spec, 1, 8.0, 200000, seed=7)
    assert again.value == est.value


def test_mc_volume_separable_2d():
    # independent 1-d factors: V_2(E) for sum of two wells is below the
    # product bound but here we check against the exact simplex value
    spec = pg.harmonic()
    est = pg.mc_phase_volume(spec, 2, 6.0, 400000, seed=11)
    exact = (2 * math.pi * 6.0) ** 2 / 2.0
    assert abs(est.value - exact) < 4 * est.std_error


def _assert_serial_blocks(blocks, serial, block):
    """blocks, put back in order, are the serial chunks cut every `block` rows."""
    want = {}
    for xs, ps in serial:
        for i in range(0, len(xs), block):
            want[xs[i].tobytes()] = xs[i:i + block], ps[i:i + block]
    assert len(blocks) == len(want)
    for xs, ps in blocks:
        wx, wp = want.pop(xs[0].tobytes())
        assert np.array_equal(xs, wx) and np.array_equal(ps, wp)


def test_walker_replays_serial_uniform_draws(monkeypatch):
    # every block is its rows of the serial draws: rng.uniform for x, then
    # for p, chunk by chunk through the short last chunk, bit for bit, and
    # nothing is drawn beyond the n_samples rows
    assert type(np.random.default_rng(17).bit_generator) is np.random.PCG64
    spec, box = pg.harmonic(), pg.PhaseSpaceBox(-1.3, 2.9, 3.7)
    n_samples = MC_CHUNK + 7
    seen = []
    shell_mask = _kernels.shell_mask

    def spy(xs, ps, *args):
        seen.append((xs.copy(), ps.copy()))
        return shell_mask(xs, ps, *args)

    monkeypatch.setattr(_kernels, "shell_mask", spy)
    for ndim in (1, 2, 3):
        ref = np.random.default_rng(17)
        serial = [(ref.uniform(box.x_lo, box.x_hi, size=(n, ndim)),
                   ref.uniform(-box.p_max, box.p_max, size=(n, ndim)))
                  for n in (MC_CHUNK, 7)]
        # the walker alone, with block edges (every 10007 rows) that miss
        # the chunk edges
        seen.clear()
        assert _walk(17, box, ndim, n_samples,
                     lambda xs, ps: len(spy(xs, ps, spec, 8.0)),
                     10_007) == n_samples
        _assert_serial_blocks(seen, serial, 10_007)
        # mc_phase_volume's own walk, whose box cuts the shell and warns
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pg.mc_phase_volume(spec, ndim, 8.0, n_samples, seed=17, box=box)
        _assert_serial_blocks(seen, serial, MC_BLOCK)


def _cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.mark.parametrize("n_samples",
                         [1, MC_BLOCK - 1, MC_BLOCK + 1, MC_CHUNK + 7])
def test_mc_volume_does_not_depend_on_the_core_count(monkeypatch, n_samples):
    # the box cuts the E = 8 shell, so every run warns, whatever its size
    spec, box = pg.harmonic(), pg.PhaseSpaceBox(-3.0, 3.0, 3.0)
    seen = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = pg.mc_phase_volume(spec, 2, 8.0, n_samples, seed=5, box=box)
        seen.append((est.value, est.std_error,
                     [str(w.message) for w in caught]))
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0][2]) == 1


def test_mc_volume_does_not_depend_on_the_block_size(monkeypatch):
    # blocks of 1 << 14 and 1 << 15 rows cut the same stream at different
    # edges; the estimates are identical
    spec, walk = pg.morse(), semiclassics._walk
    for ndim in (1, 2, 3):
        seen = []
        for block in (1 << 14, 1 << 15):
            monkeypatch.setattr(semiclassics, "_walk",
                                functools.partial(walk, block=block))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                est = pg.mc_phase_volume(spec, ndim, 11.25, MC_CHUNK + 7,
                                         seed=ndim)
            seen.append((est.value, est.std_error,
                         [str(w.message) for w in caught]))
        assert seen[0] == seen[1], ndim


def test_shared_blocks_are_each_counted_once(monkeypatch):
    # eight workers on two or fewer cores, switching threads as often as
    # the interpreter allows: every block is claimed by exactly one worker,
    # so an order-free sum of one integer per block matches one core's
    box = pg.PhaseSpaceBox(-1.0, 1.0, 1.0)

    def count(xs, ps):
        return int(xs[0, 0] * 2**40) + 2**20 * xs.shape[0]

    _cpus(monkeypatch, 1)
    serial = _walk(5, box, 2, MC_CHUNK + 7, count, 512)
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _walk(5, box, 2, MC_CHUNK + 7, count, 512) == serial
    finally:
        sys.setswitchinterval(interval)


def test_worker_error_reaches_the_caller(monkeypatch):
    # the box reaches 2e-5 past the table: samples of 2 of the 17 blocks
    # leave it, so a worker that swallowed its error would quietly undercount
    xs = np.linspace(-2.0, 2.0, 41)
    spec = pg.tabulated(xs, 0.5 * xs**2)
    box = pg.PhaseSpaceBox(-2.0, 2.00002, 2.0)
    before = threading.active_count()
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="outside its table range"):
            pg.mc_phase_volume(spec, 2, 1.0, MC_CHUNK + 7, seed=3, box=box)
        assert threading.active_count() == before
    # the workers claim blocks from one shared iterator, so an error is
    # planted by block: in the first block of the stream (whichever worker
    # claims it), in the last one (the 7-row tail) or in every block; it is
    # raised only once the slow others have ended
    first = box.x_lo + np.random.default_rng(3).random() * (box.x_hi - box.x_lo)
    planted = {"first": lambda xs: xs[0, 0] == first,
               "last": lambda xs: xs.shape[0] == 7,
               "every": lambda xs: True}
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        for where, hit in planted.items():
            def count(xs, ps):
                if hit(xs):
                    raise KeyError("planted")
                time.sleep(0.01)
                return 0

            with pytest.raises(KeyError, match="planted"):
                _walk(3, box, 2, MC_CHUNK + 7, count)
            assert threading.active_count() == before, (cpus, where)


def test_fixed_box_hit_count_grows_with_energy():
    # at a fixed seed and box the accepted set only grows with E (the
    # default minimal box would move with E)
    spec, n = pg.morse(), 40_000
    box = pg.minimal_box(spec, 11.0)
    hits = []
    for e in np.linspace(2.0, 11.0, 19):
        est = pg.mc_phase_volume(spec, 2, e, n, seed=4, box=box)
        hits.append(round(est.value / box.volume(2) * n))
    assert all(b >= a for a, b in zip(hits, hits[1:]))
    assert hits[0] < hits[-1]


def test_mc_volume_degenerate_when_nothing_hits():
    # a box placed entirely outside the allowed region scores zero hits
    with (pytest.warns(UserWarning, match="truncates the energy shell"),
          pytest.raises(DegenerateEstimateError)):
        pg.mc_phase_volume(pg.harmonic(), 1, 8.0, 50, seed=0,
                           box=pg.PhaseSpaceBox(x_lo=100.0, x_hi=101.0,
                                                p_max=1.0))


def test_mc_volume_needs_1d_potential():
    box = pg.PhaseSpaceBox(x_lo=-1.0, x_hi=1.0, p_max=1.0)
    with pytest.raises(NotAvailableError):
        pg.mc_phase_volume(pg.triangle2d(), 1, 0.5, 2, seed=0, box=box)


def test_truncating_box_warns():
    spec = pg.harmonic()
    # the orbit at E = 8 reaches |x| = |p| = 4; each box cuts one of them
    cut_x = pg.PhaseSpaceBox(-2.0, 2.0, 4.0)
    cut_p = pg.PhaseSpaceBox(-4.0, 4.0, 2.0)
    for ndim in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pg.mc_phase_volume(spec, ndim, 8.0, 200000, seed=1)
        for box in (cut_x, cut_p):
            with pytest.warns(UserWarning,
                              match="the box truncates the energy shell"):
                pg.mc_phase_volume(spec, ndim, 8.0, 200000, seed=1, box=box)


def _grown(box, dx_lo=0.0, dx_hi=0.0, dp=0.0):
    return pg.PhaseSpaceBox(box.x_lo - dx_lo, box.x_hi + dx_hi,
                            box.p_max + dp)


def test_box_warns_iff_it_misses_the_minimal_box():
    # the check is exact, so it needs no samples: one is enough, and a run
    # whose only sample misses the shell still warns before it gives up
    xs = np.linspace(-6.0, 6.0, 2001)
    for spec, e in ((pg.harmonic(), 8.0), (pg.morse(), 11.25),
                    (pg.tabulated(xs, 0.5 * xs**2 - 1.0), 2.0)):
        for ndim in (1, 2, 3):
            tight = pg.minimal_box(spec, e, ndim)
            w = 1e-9 * (tight.x_hi - tight.x_lo)
            boxes = {tight: False, _grown(tight, w, w, w): False}
            for i in range(3):  # pull one face in by a hair
                cut = [0.0, 0.0, 0.0]
                cut[i] = -w
                boxes[_grown(tight, *cut)] = True
            for box, cuts in boxes.items():
                for n in (1, 1000):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            pg.mc_phase_volume(spec, ndim, e, n, seed=2,
                                               box=box)
                        except DegenerateEstimateError:
                            assert n == 1
                    assert len(caught) == cuts, (spec.kind, ndim, box)


def test_shifted_well_volume_matches_the_d_fold_shell():
    # V = x^2/2 - 1 puts the well bottom at -1: the D-fold shell below E is
    # the harmonic one below E + D, of volume (2 pi (E + D))^D / D!. A box
    # that ignored the shift (the 1-d orbit at E, |p| <= sqrt(2 (E + 1)))
    # would cut it and fall 5 % short at D = 2
    xs = np.linspace(-6.0, 6.0, 2001)
    spec, e = pg.tabulated(xs, 0.5 * xs**2 - 1.0), 2.0
    for ndim in (1, 2, 3):
        box = pg.minimal_box(spec, e, ndim)
        # x reaches the orbit at E + D - 1, p the bottom's momentum at E + D
        assert -box.x_lo == pytest.approx(math.sqrt(2.0 * (e + ndim)), 1e-5)
        assert box.x_hi == pytest.approx(math.sqrt(2.0 * (e + ndim)), 1e-5)
        assert box.p_max == pytest.approx(math.sqrt(2.0 * (e + ndim)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = pg.mc_phase_volume(spec, ndim, e, 400_000, seed=1)
        exact = (2.0 * math.pi * (e + ndim)) ** ndim / math.factorial(ndim)
        assert abs(est.value - exact) < 4.0 * est.std_error, ndim


def test_minimal_box_is_the_same_at_every_d_with_the_bottom_at_zero():
    for spec, e in ((pg.harmonic(mass=2.0, omega=0.7), 8.0),
                    (pg.morse(), 11.25)):
        for ndim in (1, 2, 3, 4):
            assert pg.minimal_box(spec, e, ndim) == pg.minimal_box(spec, e)


@pytest.mark.parametrize("spec,e,error", [
    (pg.coulomb1d(), -0.5, NotAvailableError),
    (pg.coulomb1d(), 0.5, NotAvailableError),
    (pg.morse(), 12.0, UnboundedOrbitError),
    (pg.morse(), 13.0, UnboundedOrbitError),
    (pg.harmonic(), 0.0, BelowWellBottomError),
    (pg.triangle2d(), 0.5, NotAvailableError)])
def test_mc_volume_raises_where_minimal_box_does(spec, e, error):
    # no box can bound these shells, so a caller's box does not help
    box = pg.PhaseSpaceBox(-1.0, 1.0, 1.0)
    with pytest.raises(error) as want:
        pg.minimal_box(spec, e, 2)
    for given in (None, box):
        with pytest.raises(error) as got:
            pg.mc_phase_volume(spec, 2, e, 100, seed=0, box=given)
        assert str(got.value) == str(want.value)


def test_state_count_exact_is_binomial():
    assert pg.state_count_exact(0, 3) == 1
    assert pg.state_count_exact(2, 2) == 6
    assert pg.state_count_exact(30, 2) == 496
    assert pg.state_count_exact(12, 4) == math.comb(16, 4)


def test_bruteforce_count_agrees_on_unit_ladder():
    for d in (1, 2, 3):
        for g in (0, 1, 5, 9):
            got = sum(1 for combo in itertools.product(range(g + 1), repeat=d)
                      if sum(combo) <= g)
            assert got == pg.state_count_exact(g, d)


def test_count_limits_power_law():
    g, d = 200, 2
    exact = pg.state_count_exact(g, d)
    lim_power, lim_fact = pg.state_count_limits(g, d)
    assert lim_power == pytest.approx(g**2 / 2.0)
    assert exact / lim_power == pytest.approx(1.0, rel=0.02)
    # opposite regime: many dimensions, few quanta
    g2, d2 = 2, 300
    exact2 = pg.state_count_exact(g2, d2)
    _, lim_fact2 = pg.state_count_limits(g2, d2)
    assert exact2 / lim_fact2 == pytest.approx(1.0, rel=0.02)


def test_scaling_report_structure():
    spec = pg.morse()
    rows = pg.scaling_report(spec, (1, 2), 8.0, n_samples=40000, seed=5)
    assert [r.ndim for r in rows] == [1, 2]
    v1 = pg.phase_area_1d(spec, 8.0)
    assert rows[0].v_simplex == pytest.approx(v1)
    assert rows[1].v_simplex == pytest.approx(v1**2 / 2.0)
    assert rows[1].v_exponential == pytest.approx(v1**2)
    pack = v1 / pg.minimal_box(spec, 8.0).volume(1)
    assert rows[0].box_ratio == pytest.approx(pack)
    assert rows[1].box_ratio == pytest.approx(pack**2 / 2.0)
    # in 1-d the MC estimate targets the orbit area itself; in 2-d the
    # simplex form v^2/2 is exact only for a linear area law (harmonic),
    # and the anharmonic well must fall measurably short of it
    assert abs(rows[0].v_mc - v1) < 5 * rows[0].v_mc_err
    assert rows[1].v_mc + 5 * rows[1].v_mc_err < rows[1].v_simplex
    assert all(r.n_exact >= 1 for r in rows)


@pytest.mark.filterwarnings("error")
def test_scaling_report_on_the_morse_well_warns_nothing():
    rows = pg.scaling_report(pg.morse(), (1, 2, 3), 11.25, n_samples=20_000)
    assert [r.ndim for r in rows] == [1, 2, 3]
