"""Phase-space volumes, state counting, and the scaling table."""

import math

import numpy as np
import pytest

import phasegrid as pg
from phasegrid.errors import (BudgetExceededError, DegenerateEstimateError,
                              NotAvailableError, UnboundedOrbitError)


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


def test_minimal_box_harmonic():
    spec = pg.harmonic()
    box = pg.minimal_box(spec, 8.0, 1)
    x_t = math.sqrt(16.0)
    p_t = math.sqrt(16.0)
    assert box.volume == pytest.approx(4 * x_t * p_t)
    box3 = pg.minimal_box(spec, 8.0, 3)
    assert box3.ndim == 3
    assert box3.volume == pytest.approx((4 * x_t * p_t) ** 3)


def test_packing_ratio_harmonic_is_quarter_pi():
    assert pg.packing_ratio_1d(pg.harmonic(), 8.0) == pytest.approx(
        math.pi / 4, abs=1e-9)


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


def test_mc_volume_degenerate_when_nothing_hits():
    # a box placed entirely outside the allowed region scores zero hits
    with pytest.raises(DegenerateEstimateError):
        pg.mc_phase_volume(pg.harmonic(), 1, 8.0, 50, seed=0,
                           box=pg.PhaseSpaceBox(x_lo=(100.0,), x_hi=(101.0,),
                                                p_max=(1.0,)))


def test_mc_volume_needs_1d_potential():
    box = pg.PhaseSpaceBox(x_lo=(-1.0,), x_hi=(1.0,), p_max=(1.0,))
    with pytest.raises(NotAvailableError):
        pg.mc_phase_volume(pg.triangle2d(), 1, 0.5, 2, seed=0, box=box)


def test_state_count_exact_is_binomial():
    assert pg.state_count_exact(0, 3) == 1
    assert pg.state_count_exact(2, 2) == 6
    assert pg.state_count_exact(30, 2) == 496
    assert pg.state_count_exact(12, 4) == math.comb(16, 4)


def test_bruteforce_count_agrees_on_unit_ladder():
    for d in (1, 2, 3):
        for g in (0, 1, 5, 9):
            levels = np.arange(g + 1, dtype=float)
            got = pg.state_count_bruteforce(levels, d, g + 0.5)
            assert got == pg.state_count_exact(g, d)


def test_bruteforce_respects_budget():
    levels = np.arange(40, dtype=float)
    with pytest.raises(BudgetExceededError) as err:
        pg.state_count_bruteforce(levels, 6, 1e9, budget=1000)
    assert err.value.partial > 0


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
    pack = rows[0].packing
    assert rows[1].box_ratio == pytest.approx(pack**2 / 2.0)
    # in 1-d the MC estimate targets the orbit area itself; in 2-d the
    # simplex form v^2/2 is exact only for a linear area law (harmonic),
    # and the anharmonic well must fall measurably short of it
    assert abs(rows[0].v_mc - v1) < 5 * rows[0].v_mc_err
    assert rows[1].v_mc + 5 * rows[1].v_mc_err < rows[1].v_simplex
    assert all(r.n_exact >= 1 for r in rows)
