"""Potential definitions, closed-form levels, classical Hamiltonian."""

import math
import tracemalloc

import numpy as np
import pytest

import phasegrid as pg
from phasegrid.errors import NotAvailableError, SingularPointError


def test_harmonic_evaluate_quadratic():
    spec = pg.harmonic(mass=2.0, omega=3.0)
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(pg.evaluate(spec, x), 0.5 * 2.0 * 9.0 * x**2,
                               rtol=0, atol=0)
    assert pg.evaluate(spec, 0.0) == 0.0


def test_morse_shape():
    spec = pg.morse(depth=12.0, beta=0.5, mass=6.0)
    assert pg.evaluate(spec, 0.0) == 0.0
    # dissociation plateau on the stretched side, steep wall on the other
    assert abs(pg.evaluate(spec, 40.0) - 12.0) < 1e-6
    assert pg.evaluate(spec, -2.0) > 12.0


def _formula(spec, x):
    """The harmonic and Morse wells as written, one temporary per step."""
    p = spec.params
    if spec.kind == "harmonic":
        return 0.5 * p["mass"] * p["omega"] ** 2 * x**2
    with np.errstate(over="ignore"):
        return p["depth"] * (1.0 - np.exp(-p["beta"] * x)) ** 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [pg.harmonic(mass=2.0, omega=1.5),
                                  pg.morse(depth=7.0, beta=0.8, mass=3.0)],
                         ids=["harmonic", "morse"])
@pytest.mark.parametrize("shape", [(4000, 3), (4000,), ()])
def test_evaluate_is_the_written_formula_bit_for_bit(spec, shape):
    rng = np.random.default_rng(11)
    x = rng.uniform(-4.0, 30.0, size=shape)
    # far on the repulsive side exp overflows to inf, silently
    x = np.where(rng.random(shape) < 0.1, -2000.0, x)
    for arr in (x, np.asarray(-2000.0)):
        before = arr.copy()
        got = pg.evaluate(spec, arr)
        assert np.array_equal(got, _formula(spec, before))
        assert np.array_equal(arr, before)  # the input is never written
    if spec.kind == "morse":
        assert np.isposinf(pg.evaluate(spec, -2000.0))


def test_morse_evaluate_allocates_only_its_output():
    spec = pg.morse()
    x = np.random.default_rng(2).uniform(-1.0, 20.0, size=(65536, 3))
    tracemalloc.start()
    try:
        out = pg.evaluate(spec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes, peak / out.nbytes


def test_coulomb1d_singular_at_origin():
    spec = pg.coulomb1d(charge=1.0)
    assert pg.evaluate(spec, 2.0) == -0.5
    with pytest.raises(SingularPointError):
        pg.evaluate(spec, np.array([0.5, 0.0]))


def test_tabulated_matches_interp():
    xs = np.linspace(-1, 1, 21)
    vs = np.cos(xs)
    spec = pg.tabulated(xs, vs, mass=1.0)
    probe = np.linspace(-0.95, 0.95, 13)
    np.testing.assert_allclose(pg.evaluate(spec, probe),
                               np.interp(probe, xs, vs))
    with pytest.raises(ValueError):
        pg.evaluate(spec, 1.5)


def test_tabulated_range_check():
    # an (m, D) block of in-range points passes, NaN passes as undefined,
    # and one point off either end of the table fails, NaN beside it or not
    spec = pg.tabulated(np.linspace(-1, 1, 21), np.linspace(0, 2, 21))
    block = np.linspace(-1, 1, 12).reshape(4, 3)
    assert pg.evaluate(spec, block).shape == (4, 3)
    assert np.isnan(pg.evaluate(spec, np.array([np.nan, 0.5]))[0])
    assert pg.evaluate(spec, np.empty(0)).size == 0
    for bad in (-1.01, 1.01):
        for x in (block.copy(), np.array([[np.nan, 0.0, np.nan]])):
            x[0, 1] = bad
            with pytest.raises(ValueError, match="^tabulated potential "
                               "evaluated outside its table range$"):
                pg.evaluate(spec, x)


def test_triangle_alpha_threefold():
    # alpha has period 2*pi/3 and ranges over [0.05, 0.05 + 0.25]
    assert pg.triangle_alpha(0.0) == pytest.approx(0.05)
    assert pg.triangle_alpha(np.pi / 3) == pytest.approx(0.3)
    theta = np.linspace(0, 2 * np.pi, 97)
    np.testing.assert_allclose(pg.triangle_alpha(theta),
                               pg.triangle_alpha(theta + 2 * np.pi / 3),
                               atol=1e-12)


def test_triangle2d_polar_form():
    spec = pg.triangle2d()
    pts = np.array([[0.5, 0.0], [0.0, 1.2], [-0.7, 0.3]])
    r2 = np.sum(pts**2, axis=1)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    expect = (1.0 - np.exp(-pg.triangle_alpha(theta) * r2)) ** 2
    np.testing.assert_allclose(pg.evaluate(spec, pts), expect)
    assert pg.evaluate(spec, (0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        pg.evaluate(spec, np.array([1.0, 2.0, 3.0]))


def test_spec_validation():
    with pytest.raises(ValueError):
        pg.PotentialSpec(kind="nonsense", params={}, hbar=1.0)
    with pytest.raises(ValueError):
        pg.harmonic(mass=-1.0)
    with pytest.raises(ValueError):
        pg.morse(hbar=0.0)
    with pytest.raises(ValueError):
        pg.tabulated([0.0, 0.0], [1.0, 2.0])  # x not increasing


def test_harmonic_levels_need_truncation():
    spec = pg.harmonic(omega=2.0, hbar=0.5)
    np.testing.assert_allclose(pg.analytic_levels(spec, n_max=3),
                               [0.5, 1.5, 2.5, 3.5])
    with pytest.raises(ValueError):
        pg.analytic_levels(spec)


def test_morse_levels_against_direct_formula():
    spec = pg.morse(depth=12.0, beta=0.5, mass=6.0, hbar=1.0)
    w0 = spec.params["beta"] * math.sqrt(2 * 12.0 / 6.0)
    levels = pg.analytic_levels(spec)
    # independent evaluation of the anharmonic ladder
    n = np.arange(levels.size)
    y = w0 * (n + 0.5)
    np.testing.assert_allclose(levels, y - y**2 / 48.0, rtol=1e-14)
    # the ladder must stop while spacings are still positive
    assert np.all(np.diff(levels) > 0)
    assert levels.size == 24
    assert levels[-1] < 12.0
    # one more quantum would fold the ladder back down
    y_next = w0 * (levels.size + 0.5)
    assert y_next - y_next**2 / 48.0 <= levels[-1]


def test_morse_level_count_scales_with_hbar():
    # halving hbar doubles the number of bound states (up to rounding)
    n1 = pg.analytic_levels(pg.morse(hbar=1.0)).size
    n2 = pg.analytic_levels(pg.morse(hbar=0.5)).size
    assert n2 == pytest.approx(2 * n1, abs=1)


def test_levels_unavailable_for_triangle():
    with pytest.raises(NotAvailableError):
        pg.analytic_levels(pg.triangle2d())


@pytest.mark.parametrize("make", [
    lambda v: pg.harmonic(mass=v), lambda v: pg.morse(mass=v),
    lambda v: pg.triangle2d(mass=v), lambda v: pg.coulomb1d(charge=v),
    lambda v: pg.harmonic(hbar=v), lambda v: pg.morse(depth=v)])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_spec_rejects_non_finite_constants(make, value):
    with pytest.raises(ValueError, match=f"= {value} is not finite"):
        make(value)
