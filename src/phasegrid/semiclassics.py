"""Classical phase-space volumes and semiclassical state counting.

One quantum state occupies a phase-space cell of area 2*pi*hbar per degree
of freedom, so the number of states below E tracks the classical volume
V(E)/(2*pi*hbar)^D. For separable potentials the volume below a direct-sum
energy surface is estimated by Monte Carlo over an enclosing box and by the
simplex formula v^D/D!, and the states below it are counted exactly as
binomial(g + D, D).
"""

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import (BelowWellBottomError, DegenerateEstimateError,
                     NotAvailableError, UnboundedOrbitError)
from .potentials import PotentialSpec

# MC_CHUNK fixes the order of the seeded stream (x, then p, per chunk);
# MC_BLOCK is the number of sample rows one worker draws and counts at once,
# in the two buffers the hit kernel consumes; smaller blocks cost GIL
# handoffs between the workers, larger ones resident memory
MC_CHUNK = 1 << 18
MC_BLOCK = 1 << 14


@dataclass(frozen=True)
class PhaseSpaceBox:
    """Sampling box of one degree of freedom, symmetric in p about zero."""

    x_lo: float
    x_hi: float
    p_max: float

    def __post_init__(self):
        if self.x_hi <= self.x_lo or self.p_max <= 0:
            raise ValueError("degenerate box")

    def volume(self, ndim: int) -> float:
        return math.prod([(self.x_hi - self.x_lo) * 2.0 * self.p_max] * ndim)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float


def turning_points(spec: PotentialSpec, energy: float):
    """Classical turning points (x_left, x_right) of the 1-D motion at energy.

    Closed forms for the analytic potentials, and for tabulated ones the
    zeros of the linearly interpolated V - E: the outermost pair, the hull
    of every allowed interval when the table has several wells. Energies at
    or above the dissociation/ionization threshold have no bounded orbit.
    """
    if spec.dimension != 1:
        raise NotAvailableError(
            "turning points are defined per 1-D degree of freedom")
    if spec.kind == "harmonic":
        if energy <= 0:
            raise BelowWellBottomError("harmonic orbit needs energy > 0")
        m, w = spec.mass, spec.params["omega"]
        xt = math.sqrt(2.0 * energy / (m * w * w))
        return -xt, xt
    if spec.kind == "morse":
        de, beta = spec.params["depth"], spec.params["beta"]
        if energy <= 0:
            raise BelowWellBottomError("morse orbit needs energy > 0")
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
        lefts, rights = _allowed_intervals(spec, energy)
        return float(lefts[0]), float(rights[-1])
    raise ValueError(f"no turning points for kind {spec.kind!r}")


def _allowed_intervals(spec: PotentialSpec, energy: float):
    """(lefts, rights): every interval where the interpolated table V < E.

    Each run of knots with V < E is one interval, closed by the zeros of
    the linear interpolant in the segments on either side of the run.
    """
    xs = spec.table[:, 0]
    vs = spec.table[:, 1]
    if energy <= np.min(vs):
        raise BelowWellBottomError(
            "energy at or below the tabulated minimum")
    f = vs - energy
    if f[0] < 0 or f[-1] < 0:
        raise UnboundedOrbitError("table does not bracket the orbit")
    below = f < 0
    # segments (i, i + 1) where a run starts, and where one ends
    starts = np.flatnonzero(~below[:-1] & below[1:])
    ends = np.flatnonzero(below[:-1] & ~below[1:])
    return tuple(xs[i] + f[i] * (xs[i + 1] - xs[i]) / (f[i] - f[i + 1])
                 for i in (starts, ends))


def phase_area_1d(spec: PotentialSpec, energy: float) -> float:
    """Area enclosed by the 1-D orbit, 2 * integral of sqrt(2m(E-V)) dx.

    Closed forms for every 1-D kind: harmonic (2 pi E / omega), Morse,
    Coulomb (pi z sqrt(2m/|E|)), and for tables the exact integral of the
    linearly interpolated potential, segment by segment, summed over every
    allowed interval (each well below E is one orbit).
    """
    if spec.kind != "tabulated":  # a table's intervals reject the same way
        turning_points(spec, energy)  # rejects energies with no bounded orbit
    m = spec.mass
    if spec.kind == "harmonic":
        return 2.0 * math.pi * energy / spec.params["omega"]
    if spec.kind == "morse":
        de, beta = spec.params["depth"], spec.params["beta"]
        # 1 - sqrt(1 - u) as u / (1 + sqrt(1 - u)): no cancellation at small E
        u = energy / de
        return (2.0 * math.pi * math.sqrt(2.0 * m * de) / beta
                * (u / (1.0 + math.sqrt(1.0 - u))))
    if spec.kind == "coulomb1d":
        return math.pi * spec.params["charge"] * math.sqrt(2.0 * m / -energy)
    xs, vs = spec.table[:, 0], spec.table[:, 1]
    total = 0.0
    for xl, xr in zip(*_allowed_intervals(spec, energy)):
        x = np.concatenate(([xl], xs[(xs > xl) & (xs < xr)], [xr]))
        gap = np.maximum(energy - np.interp(x, xs, vs), 0.0)
        # integral of sqrt(gap) over a segment where gap runs linearly from
        # a^2 to b^2: (2/3) dx (b^3 - a^3) / (b^2 - a^2), without the
        # cancellation
        a, b = np.sqrt(gap[:-1]), np.sqrt(gap[1:])
        total += float(np.sum(np.diff(x) * (a * a + a * b + b * b) / (a + b)))
    return 2.0 * math.sqrt(2.0 * m) * (2.0 / 3.0) * total


def minimal_box(spec: PotentialSpec, energy: float,
                ndim: int = 1) -> PhaseSpaceBox:
    """Smallest box whose ndim-th power holds the D-fold energy shell.

    The shell is sum_d p_d^2/2m + V(x_d) <= energy. One degree of freedom
    reaches farthest when the other D - 1 sit at the well bottom V_min, so
    the box spans the 1-D orbit at energy - (D - 1) V_min in x and
    |p| <= sqrt(2m (energy - D V_min)); each face touches the shell. With
    V_min = 0 (harmonic, Morse) it is the same box at every D.
    """
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    if spec.kind == "coulomb1d":
        raise NotAvailableError(
            f"momentum extent diverges for kind {spec.kind!r}")
    v_min = (float(np.min(spec.table[:, 1])) if spec.kind == "tabulated"
             else 0.0)
    # turning_points also rejects a kind that is not 1-d, and an energy at
    # or below the shell's bottom D V_min or with no bounded orbit
    xl, xr = turning_points(spec, energy - (ndim - 1) * v_min)
    if not xl < xr:  # a Morse energy near 1e-300 rounds both points to 0
        raise BelowWellBottomError(
            f"energy {energy} is too close to the well bottom: both turning "
            "points round to the same x")
    return PhaseSpaceBox(
        xl, xr, math.sqrt(2.0 * spec.mass * (energy - ndim * v_min)))


def mc_phase_volume(spec: PotentialSpec, ndim: int, energy: float,
                    n_samples: int, seed: int,
                    box: PhaseSpaceBox | None = None) -> VolumeEstimate:
    """Monte Carlo estimate of the phase-space volume below `energy`.

    Uniform samples over the ndim-th power of the box (default:
    `minimal_box(spec, energy, ndim)`), counted against the separable
    classical Hamiltonian sum_d p_d^2/2m + V(x_d). The estimate is box
    volume * hit fraction with the binomial standard error; at a fixed seed
    and a fixed `box` the hit count is nondecreasing in energy because the
    accepted set only grows (the default box itself moves with the energy).
    A box that does not contain the minimal one truncates the shell and
    warns. Where `minimal_box` raises, so does this, with a box or without.
    The result depends on the seed, ndim, n_samples and the box, not on the
    number of cores that count it.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    shell = minimal_box(spec, energy, ndim)
    if box is None:
        box = shell
    elif not (box.x_lo <= shell.x_lo and shell.x_hi <= box.x_hi
              and shell.p_max <= box.p_max):
        warnings.warn(
            "the box truncates the energy shell, which spans x in "
            f"[{shell.x_lo:.6g}, {shell.x_hi:.6g}] and |p| <= "
            f"{shell.p_max:.6g}", stacklevel=2)
    hits = _walk(seed, box, ndim, n_samples, lambda xs, ps:
                 _kernels.mc_count_hits(xs, ps, spec, energy))
    if hits == 0:
        raise DegenerateEstimateError(
            "no sample fell inside the energy shell; enlarge n_samples or "
            "shrink the box")
    frac = hits / n_samples
    volume = box.volume(ndim)
    value = volume * frac
    err = volume * math.sqrt(frac * (1.0 - frac) / n_samples)
    return VolumeEstimate(value=value, std_error=err)


def _walk(seed, box, ndim, n_samples, count, block=MC_BLOCK):
    """Sum of count(xs, ps) over blocks of at most `block` sample rows.

    The n_samples rows come in chunks of MC_CHUNK rows. Chunk c0 of n rows
    takes its x values, then its p values, from the stream of
    default_rng(seed) at offset 2 D c0, as rng.uniform(x_lo, x_hi, (n, D))
    and then rng.uniform(-p_max, p_max, (n, D)) would. Each float64 costs
    one PCG64 step, so a block resets its worker's generator to the seeded
    state and advances it to the block's own rows: the blocks run on one
    worker per available core and draw the same numbers however many cores
    there are. The workers claim the next block from one shared iterator
    as they finish the last, so a core that runs ahead takes more blocks;
    each has its own generator and buffers. Worker 0 runs on the calling
    thread and workers 1 .. k-1 each on a threading.Thread of their own.
    count gets the (m, D) arrays of one block, which it may overwrite, and
    returns integers, so the sum does not depend on which worker counts
    which block. A worker stops at its first error, and the error is
    raised here once every thread has been joined.
    """
    blocks = []
    for c0 in range(0, n_samples, MC_CHUNK):
        n = min(MC_CHUNK, n_samples - c0)
        blocks += [(ndim * (2 * c0 + i), ndim * (2 * c0 + n + i),
                    min(block, n - i)) for i in range(0, n, block)]
    rows = max(m for _, _, m in blocks)
    faces = ((box.x_lo, box.x_hi), (-box.p_max, box.p_max))

    def work(w):
        try:
            rng = np.random.default_rng(seed)
            bits, seeded = rng.bit_generator, rng.bit_generator.state
            bufs = np.empty((rows, ndim)), np.empty((rows, ndim))
            for off_x, off_p, m in todo:  # list iterators step under the GIL
                out = bufs[0][:m], bufs[1][:m]
                for a, offset, (lo, hi) in zip(out, (off_x, off_p), faces):
                    bits.state = seeded
                    bits.advance(offset)
                    rng.random(out=a)
                    a *= hi - lo  # Generator.uniform: lo + (hi - lo) * u
                    a += lo
                totals[w] += count(*out)
        except BaseException as exc:  # raised below, after the joins
            errors.append(exc)

    # the cores this process may run on (sched_getaffinity is Linux-only)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers, todo = min(cores, len(blocks)), iter(blocks)
    totals, errors = [0] * workers, []
    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sum(totals)


def state_count_exact(g: int, ndim: int) -> int:
    """Number of tuples (n_1..n_D) of nonneg integers with sum <= g.

    Equals binomial(g + D, D); exact integer arithmetic.
    """
    if g < 0 or ndim < 0:
        raise ValueError("g and ndim must be nonnegative")
    return math.comb(g + ndim, ndim)


def _power_over_factorial(base: float, n: int) -> float:
    """base^n / n!, evaluated in the log domain (0^0 = 1)."""
    if n == 0:
        return 1.0
    if base == 0:
        return 0.0
    return math.exp(n * math.log(base) - math.lgamma(n + 1))


def state_count_limits(g: int, ndim: int):
    """Asymptotic forms (g^D / D!, D^g / g!) evaluated in the log domain."""
    if g < 0 or ndim < 0:
        raise ValueError("g and ndim must be nonnegative")
    return _power_over_factorial(g, ndim), _power_over_factorial(ndim, g)


@dataclass(frozen=True)
class ScalingRow:
    """One dimension's comparisons, in the column order of scaling.csv."""

    ndim: int
    v_mc: float
    v_mc_err: float
    v_simplex: float
    v_exponential: float
    n_exact: int
    n_limit_power: float
    n_limit_factorial: float
    box_ratio: float


def scaling_report(spec: PotentialSpec, ndims: Sequence[int], energy: float,
                   n_samples: int = 10**6, seed: int = 0) -> list:
    """Volume and state-count scaling across dimensions for a separable well.

    Per dimension D: Monte Carlo volume over the D-th power of
    `minimal_box(spec, energy, D)`, the simplex value v^D/D! built from the
    1-D orbit area v, the exact tuple count at g = floor(v/(2 pi hbar))
    excitation quanta, its two asymptotic limits, and s^D/D! for the packing
    ratio s of v in the 1-D box. Monte Carlo seeds derive deterministically
    from `seed` and D.
    """
    box = minimal_box(spec, energy)
    v1 = phase_area_1d(spec, energy)
    pack = v1 / box.volume(1)
    g = int(math.floor(v1 / (2.0 * math.pi * spec.hbar) + 1e-9))
    rows = []
    for d in ndims:
        est = mc_phase_volume(spec, d, energy, n_samples, seed * 1009 + d)
        lim_g, lim_d = state_count_limits(g, d)
        rows.append(ScalingRow(
            ndim=d, v_mc=est.value, v_mc_err=est.std_error,
            v_simplex=_power_over_factorial(v1, d),
            v_exponential=math.exp(d * math.log(v1)),
            n_exact=state_count_exact(g, d),
            n_limit_power=lim_g, n_limit_factorial=lim_d,
            box_ratio=_power_over_factorial(pack, d)))
    return rows
