"""Classical phase-space volumes and semiclassical state counting.

One quantum state occupies a phase-space cell of area 2*pi*hbar per degree
of freedom, so the number of states below E tracks the classical volume
V(E)/(2*pi*hbar)^D. For separable potentials the volume below a direct-sum
energy surface is estimated three ways: Monte Carlo over an enclosing box,
the simplex formula v^D/D!, and exact enumeration of level tuples.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, optimize

from . import _kernels
from .errors import (BudgetExceededError, DegenerateEstimateError,
                     NotAvailableError, UnboundedOrbitError)
from .potentials import PotentialSpec, evaluate

MC_CHUNK = 1 << 18


@dataclass(frozen=True)
class PhaseSpaceBox:
    """Axis-aligned sampling box, symmetric in momentum about zero."""

    x_lo: tuple
    x_hi: tuple
    p_max: tuple

    def __post_init__(self):
        if not len(self.x_lo) == len(self.x_hi) == len(self.p_max):
            raise ValueError("box tuples must have equal lengths")
        for lo, hi, pm in zip(self.x_lo, self.x_hi, self.p_max):
            if hi <= lo or pm <= 0:
                raise ValueError("degenerate box")

    @property
    def ndim(self) -> int:
        return len(self.x_lo)

    @property
    def volume(self) -> float:
        out = 1.0
        for lo, hi, pm in zip(self.x_lo, self.x_hi, self.p_max):
            out *= (hi - lo) * 2.0 * pm
        return out


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int
    seed: int


def turning_points(spec: PotentialSpec, energy: float):
    """Classical turning points (x_left, x_right) of the 1-D motion at energy.

    Closed forms for the analytic potentials, bracketed root search for
    tabulated ones. Energies at or above the dissociation/ionization
    threshold have no bounded orbit.
    """
    if spec.dimension != 1:
        raise ValueError("turning points are defined per 1-D degree of freedom")
    if spec.kind == "harmonic":
        if energy <= 0:
            raise ValueError("harmonic orbit needs energy > 0")
        m, w = spec.mass, spec.params["omega"]
        xt = math.sqrt(2.0 * energy / (m * w * w))
        return -xt, xt
    if spec.kind == "morse":
        de, beta = spec.params["depth"], spec.params["beta"]
        if energy <= 0:
            raise ValueError("morse orbit needs energy > 0")
        if energy >= de:
            raise UnboundedOrbitError(
                f"energy {energy} at or above the well depth {de}")
        r = math.sqrt(energy / de)
        return -math.log(1.0 + r) / beta, -math.log(1.0 - r) / beta
    if spec.kind == "coulomb1d":
        z = spec.params["charge"]
        if energy >= 0:
            raise UnboundedOrbitError("coulomb orbit is unbounded for E >= 0")
        return 0.0, z / (-energy)
    if spec.kind == "tabulated":
        return _turning_points_table(spec, energy)
    raise ValueError(f"no turning points for kind {spec.kind!r}")


def _turning_points_table(spec: PotentialSpec, energy: float):
    xs = spec.table[:, 0]
    vs = spec.table[:, 1]
    i0 = int(np.argmin(vs))
    if energy <= vs[i0]:
        raise ValueError("energy below the tabulated minimum")
    f = vs - energy
    if f[0] < 0 or f[-1] < 0:
        raise UnboundedOrbitError("table does not bracket the orbit")

    def v_of(x):
        return float(np.interp(x, xs, vs)) - energy

    il = np.flatnonzero(f[: i0 + 1] >= 0)[-1]
    ir = i0 + np.flatnonzero(f[i0:] >= 0)[0]
    xl = optimize.brentq(v_of, xs[il], xs[min(il + 1, len(xs) - 1)])
    xr = optimize.brentq(v_of, xs[max(ir - 1, 0)], xs[ir])
    return float(xl), float(xr)


def phase_area_1d(spec: PotentialSpec, energy: float) -> float:
    """Area enclosed by the 1-D orbit, 2 * integral of sqrt(2m(E-V)) dx.

    The substitution x = c + r*sin(t) removes the square-root singularities
    at the turning points before handing the integrand to adaptive
    quadrature.
    """
    xl, xr = turning_points(spec, energy)
    c = 0.5 * (xl + xr)
    r = 0.5 * (xr - xl)
    m = spec.mass

    def integrand(t):
        x = c + r * math.sin(t)
        gap = energy - float(evaluate(spec, np.array([[x]]))[0])
        if gap < 0.0:
            gap = 0.0
        return math.sqrt(2.0 * m * gap) * r * math.cos(t)

    val, _ = integrate.quad(integrand, -0.5 * math.pi, 0.5 * math.pi,
                            limit=200)
    return 2.0 * val


def minimal_box(spec: PotentialSpec, energy: float, ndim: int) -> PhaseSpaceBox:
    """Smallest axis-aligned box containing the D-fold direct-sum shell.

    Each degree of freedom can carry the full energy while the others sit at
    the potential minimum, so every axis uses the 1-D extents at `energy`.
    """
    xl, xr = turning_points(spec, energy)
    if spec.kind in ("harmonic", "morse"):
        v_min = 0.0
    elif spec.kind == "tabulated":
        v_min = float(np.min(spec.table[:, 1]))
    else:
        raise UnboundedOrbitError(
            f"momentum extent diverges for kind {spec.kind!r}")
    p_max = math.sqrt(2.0 * spec.mass * (energy - v_min))
    return PhaseSpaceBox((xl,) * ndim, (xr,) * ndim, (p_max,) * ndim)


def packing_ratio_1d(spec: PotentialSpec, energy: float,
                     box: PhaseSpaceBox | None = None,
                     hbar: float | None = None) -> float:
    """Orbit area divided by the area of its enclosing box.

    Independent of hbar; the argument is accepted only so callers can keep a
    uniform signature.
    """
    del hbar
    if box is None:
        box = minimal_box(spec, energy, 1)
    if box.ndim != 1:
        raise ValueError("packing ratio is a 1-D quantity")
    return phase_area_1d(spec, energy) / box.volume


def mc_phase_volume(spec: PotentialSpec, ndim: int, energy: float,
                    n_samples: int, seed: int,
                    box: PhaseSpaceBox | None = None) -> VolumeEstimate:
    """Monte Carlo estimate of the phase-space volume below `energy`.

    Uniform samples over the box, counted against the separable classical
    Hamiltonian sum_d p_d^2/2m + V(x_d). The estimate is box_volume * hit
    fraction with the binomial standard error; at a fixed seed it is
    monotone nondecreasing in energy because the accepted set only grows.
    A diagnostic chunk checks that hits do not pile up against the box
    faces, which would mean the box truncates the shell.
    """
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if spec.dimension != 1:
        raise NotAvailableError(
            f"kind {spec.kind!r} is not a 1-d degree of freedom to sample")
    if box is None:
        box = minimal_box(spec, energy, ndim)
    if box.ndim != ndim:
        raise ValueError("box dimension does not match ndim")
    rng = np.random.default_rng(seed)
    x_lo = np.asarray(box.x_lo)
    x_hi = np.asarray(box.x_hi)
    p_mx = np.asarray(box.p_max)
    hits = 0
    done = 0
    while done < n_samples:
        n = min(MC_CHUNK, n_samples - done)
        xs = rng.uniform(x_lo, x_hi, size=(n, ndim))
        ps = rng.uniform(-p_mx, p_mx, size=(n, ndim))
        hits += _kernels.mc_count_hits(xs, ps, spec, energy)
        done += n
    frac = hits / n_samples
    if hits == 0:
        raise DegenerateEstimateError(
            "no sample fell inside the energy shell; enlarge n_samples or "
            "shrink the box")
    _boundary_diagnostic(spec, ndim, energy, box, rng,
                         min(n_samples, 200_000))
    value = box.volume * frac
    err = box.volume * math.sqrt(frac * (1.0 - frac) / n_samples)
    return VolumeEstimate(value=value, std_error=err,
                          n_samples=n_samples, seed=seed)


def _boundary_diagnostic(spec, ndim, energy, box, rng, n):
    """Warn when more than 0.1% of the hits sit in a thin face shell."""
    x_lo = np.asarray(box.x_lo)
    x_hi = np.asarray(box.x_hi)
    p_mx = np.asarray(box.p_max)
    xs = rng.uniform(x_lo, x_hi, size=(n, ndim))
    ps = rng.uniform(-p_mx, p_mx, size=(n, ndim))
    inside = _kernels.shell_mask(xs, ps, spec, energy)
    n_in = int(np.count_nonzero(inside))
    if n_in == 0:
        return
    eps_x = 1e-3 * (x_hi - x_lo)
    eps_p = 1e-3 * (2.0 * p_mx)
    near = np.zeros(n, dtype=bool)
    for d in range(ndim):
        near |= xs[:, d] < x_lo[d] + eps_x[d]
        near |= xs[:, d] > x_hi[d] - eps_x[d]
        near |= np.abs(ps[:, d]) > p_mx[d] - eps_p[d]
    frac = np.count_nonzero(near & inside) / n_in
    if frac > 1e-3:
        warnings.warn(
            f"{100.0 * frac:.2f}% of the accepted samples touch the box "
            "faces; the box may truncate the energy shell", stacklevel=3)


def state_count_exact(g: int, ndim: int) -> int:
    """Number of tuples (n_1..n_D) of nonneg integers with sum <= g.

    Equals binomial(g + D, D); exact integer arithmetic.
    """
    if g < 0 or ndim < 0:
        raise ValueError("g and ndim must be nonnegative")
    return math.comb(g + ndim, ndim)


def state_count_limits(g: int, ndim: int):
    """Asymptotic forms (g^D / D!, D^g / g!) evaluated in the log domain."""
    if g < 0 or ndim < 0:
        raise ValueError("g and ndim must be nonnegative")
    if ndim == 0:
        lim_power = 1.0
    elif g == 0:
        lim_power = 0.0
    else:
        lim_power = math.exp(ndim * math.log(g) - math.lgamma(ndim + 1))
    if g == 0:
        lim_factorial = 1.0
    elif ndim == 0:
        lim_factorial = 0.0
    else:
        lim_factorial = math.exp(g * math.log(ndim) - math.lgamma(g + 1))
    return lim_power, lim_factorial


def state_count_bruteforce(levels: Sequence[float], ndim: int, e_max: float,
                           budget: int = 10**8) -> int:
    """Count tuples of 1-D levels whose sum stays at or below e_max.

    Enumerates with branch pruning; raises a budget error carrying the
    partial count when the tree exceeds `budget` visited nodes.
    """
    lv = np.ascontiguousarray(np.sort(np.asarray(levels, dtype=float)))
    if lv.size == 0 or ndim < 1:
        raise ValueError("need at least one level and one dimension")
    count, nodes, exceeded = _kernels.count_tuples_below(lv, ndim, e_max,
                                                         budget)
    if exceeded:
        raise BudgetExceededError(
            f"enumeration budget {budget} exhausted after {nodes} nodes",
            partial=int(count))
    return int(count)


@dataclass(frozen=True)
class ScalingRow:
    """One dimension's worth of volume and state-count comparisons."""

    ndim: int
    v_mc: float
    v_mc_err: float
    v_simplex: float
    v_exponential: float
    n_exact: int
    n_limit_power: float
    n_limit_factorial: float
    packing: float
    box_ratio: float


def scaling_report(spec: PotentialSpec, ndims: Sequence[int], energy: float,
                   n_samples: int = 10**6, seed: int = 0) -> list:
    """Volume and state-count scaling across dimensions for a separable well.

    Per dimension D: Monte Carlo volume over the minimal box, the simplex
    value v^D/D! built from the 1-D orbit area v, the exact tuple count at
    g = floor(v/(2 pi hbar)) excitation quanta, and its two asymptotic
    limits. Monte Carlo seeds derive deterministically from `seed` and D.
    """
    v1 = phase_area_1d(spec, energy)
    box1 = minimal_box(spec, energy, 1)
    pack = v1 / box1.volume
    g = int(math.floor(v1 / (2.0 * math.pi * spec.hbar) + 1e-9))
    rows = []
    for d in ndims:
        est = mc_phase_volume(spec, d, energy, n_samples, seed * 1009 + d)
        simplex = math.exp(d * math.log(v1) - math.lgamma(d + 1))
        lim_g, lim_d = state_count_limits(g, d)
        rows.append(ScalingRow(
            ndim=d, v_mc=est.value, v_mc_err=est.std_error,
            v_simplex=simplex,
            v_exponential=math.exp(d * math.log(v1)),
            n_exact=state_count_exact(g, d),
            n_limit_power=lim_g, n_limit_factorial=lim_d, packing=pack,
            box_ratio=math.exp(d * math.log(pack) - math.lgamma(d + 1))))
    return rows
