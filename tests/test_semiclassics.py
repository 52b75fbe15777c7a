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
    # a count that fails past x = 2: the box reaches 2e-5 beyond it, so
    # samples of 2 of the 17 blocks leave it, and a worker that swallowed
    # its error would quietly undercount
    count = _kernels.mc_count_hits

    def bounded(xs, ps, spec, energy):
        if xs.max() > 2.0:
            raise ValueError("sample past x = 2")
        return count(xs, ps, spec, energy)

    monkeypatch.setattr(_kernels, "mc_count_hits", bounded)
    box = pg.PhaseSpaceBox(-2.0, 2.00002, 2.0)
    before = threading.active_count()
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="past x = 2"):
            pg.mc_phase_volume(pg.harmonic(), 2, 1.0, MC_CHUNK + 7, seed=3,
                               box=box)
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
    for spec, e in ((pg.harmonic(), 8.0), (pg.morse(), 11.25)):
        tight = pg.minimal_box(spec, e)
        for ndim in (1, 2, 3):
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


WELLS = pytest.mark.parametrize("spec,e", [
    (pg.harmonic(mass=2.0, omega=0.7), 8.0), (pg.morse(), 11.25)],
    ids=["harmonic", "morse"])


@WELLS
def test_default_box_is_the_1d_box_at_every_d(spec, e):
    # both wells bottom out at V = 0, so the 1-d orbit box holds the D-fold
    # shell too: the default run is the run in minimal_box, sample for sample
    box = pg.minimal_box(spec, e)
    for ndim in (1, 2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            given = pg.mc_phase_volume(spec, ndim, e, 20_000, seed=ndim,
                                       box=box)
        assert pg.mc_phase_volume(spec, ndim, e, 20_000,
                                  seed=ndim) == given, ndim


@pytest.mark.filterwarnings("error")
@WELLS
def test_default_box_cuts_nothing_of_the_d_fold_shell(spec, e):
    # a box wider on every face counts the same volume, and the harmonic
    # shell's is the exact simplex (2 pi E / omega)^D / D!
    tight = pg.minimal_box(spec, e)
    pad = 0.2 * (tight.x_hi - tight.x_lo)
    wide = _grown(tight, pad, pad, 0.2 * tight.p_max)
    for ndim in (1, 2, 3):
        est = pg.mc_phase_volume(spec, ndim, e, 400_000, seed=ndim)
        loose = pg.mc_phase_volume(spec, ndim, e, 400_000, seed=ndim,
                                   box=wide)
        assert abs(est.value - loose.value) < 4.0 * math.hypot(
            est.std_error, loose.std_error), ndim
        if spec.kind == "harmonic":
            exact = ((2.0 * math.pi * e / spec.params["omega"]) ** ndim
                     / math.factorial(ndim))
        else:
            exact = pg.phase_area_1d(spec, e) if ndim == 1 else None
        if exact is not None:
            assert abs(est.value - exact) < 4.0 * est.std_error, ndim


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
        pg.minimal_box(spec, e)
    for given in (None, box):
        with pytest.raises(error) as got:
            pg.mc_phase_volume(spec, 2, e, 100, seed=0, box=given)
        assert str(got.value) == str(want.value)


def test_mc_volume_rejects_ndim_below_one():
    # checked before the box, so it comes first even where no box exists
    box = pg.PhaseSpaceBox(-1.0, 1.0, 1.0)
    for spec, e in ((pg.harmonic(), 8.0), (pg.coulomb1d(), -0.5)):
        for ndim in (0, -1):
            for given in (None, box):
                with pytest.raises(ValueError, match="^ndim must be >= 1$"):
                    pg.mc_phase_volume(spec, ndim, e, 100, seed=0, box=given)


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
