"""Benchmark potentials and their analytic spectra."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAvailableError, SingularPointError

# Each kind and the parameters it takes; PotentialSpec requires all of them.
PARAMETERS = {
    "harmonic": ("mass", "omega"),
    "morse": ("depth", "beta", "mass"),
    "triangle2d": ("mass",),
    "coulomb1d": ("charge", "mass"),
}
_POSITIVE = ("mass", "omega", "depth", "beta")


@dataclass(frozen=True)
class PotentialSpec:
    """A potential energy function plus the constants of its Hamiltonian.

    params holds named real parameters per kind.
    """

    kind: str
    params: dict = field(default_factory=dict)
    hbar: float = 1.0

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for name in PARAMETERS[self.kind]:
            if name not in self.params:
                raise ValueError(f"{self.kind} potential requires parameter {name!r}")
            if not math.isfinite(self.params[name]):
                raise ValueError(
                    f"parameter {name!r} = {self.params[name]} is not finite")
        for name in _POSITIVE:
            if name in self.params and not self.params[name] > 0:
                raise ValueError(f"parameter {name!r} must be positive")
        if not math.isfinite(self.hbar):
            raise ValueError(f"hbar = {self.hbar} is not finite")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    @property
    def dimension(self) -> int:
        return 2 if self.kind == "triangle2d" else 1

    @property
    def mass(self) -> float:
        return float(self.params["mass"])


def harmonic(mass=1.0, omega=1.0, hbar=1.0) -> PotentialSpec:
    return PotentialSpec("harmonic", {"mass": mass, "omega": omega}, hbar)


def morse(depth=12.0, beta=0.5, mass=6.0, hbar=1.0) -> PotentialSpec:
    return PotentialSpec("morse", {"depth": depth, "beta": beta, "mass": mass}, hbar)


def triangle2d(mass=96.0, hbar=1.0) -> PotentialSpec:
    return PotentialSpec("triangle2d", {"mass": mass}, hbar)


def coulomb1d(charge=1.0, mass=1.0, hbar=1.0) -> PotentialSpec:
    return PotentialSpec("coulomb1d", {"charge": charge, "mass": mass}, hbar)


def triangle_alpha(theta):
    """Angular width parameter of the three-fold symmetric well."""
    return ((1.0 - np.cos(3.0 * theta)) / 4.0) ** 2 + 0.05


def _eval_1d(spec: PotentialSpec, x, out):
    p = spec.params
    # harmonic and Morse fill `out` in place, the same operations in the
    # same order as the written formula, so out may be x itself
    if spec.kind == "harmonic":
        np.square(x, out=out)
        out *= 0.5 * p["mass"] * p["omega"] ** 2
        return out
    if spec.kind == "morse":
        np.multiply(x, -p["beta"], out=out)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        np.subtract(1.0, out, out=out)
        np.square(out, out=out)
        out *= p["depth"]
        return out
    if spec.kind == "coulomb1d":
        if np.any(x == 0.0):
            raise SingularPointError(
                "coulomb1d potential is singular at x=0; offset the grid")
        out[...] = np.where(x > 0.0, -p["charge"] / x, np.inf)
        return out
    raise NotAvailableError(f"no 1-d evaluation for kind {spec.kind!r}")


def _eval_triangle(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x**2 + y**2
    theta = np.arctan2(y, x)
    return (1.0 - np.exp(-triangle_alpha(theta) * r2)) ** 2


def evaluate(spec: PotentialSpec, x, out=None):
    """Potential energy at coordinate vector x (scalars broadcast in 1-d).

    For triangle2d, x is Cartesian (x, y) or an (..., 2) array; internally
    converted to polar. For a 1-d kind, `out` is a float array of x's shape
    that receives V(x) and may be x itself.
    """
    if spec.kind == "triangle2d":
        arr = np.asarray(x, dtype=float)
        if arr.shape == () or arr.shape[-1] != 2:
            raise ValueError("triangle2d expects coordinate vectors of length 2")
        out = _eval_triangle(arr[..., 0], arr[..., 1])
        return float(out) if out.ndim == 0 else out
    arr = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(arr)
    if arr.ndim >= 1 and arr.shape[-1] == 1:
        arr, out = arr[..., 0], out[..., 0]
    out = _eval_1d(spec, arr, out)
    return float(out) if np.ndim(out) == 0 else out


def morse_frequency(spec: PotentialSpec) -> float:
    """Harmonic frequency at the bottom of the Morse well."""
    p = spec.params
    return p["beta"] * math.sqrt(2.0 * p["depth"] / p["mass"])


def analytic_levels(spec: PotentialSpec, n_max: int | None = None) -> np.ndarray:
    """Closed-form energy levels; morse lists are truncated to bound states.

    harmonic: E_n = hbar*omega*(n + 1/2).
    morse:    E_n = hbar*w0*(n + 1/2) - (hbar*w0*(n + 1/2))^2 / (4*depth)
              with w0 = beta*sqrt(2*depth/mass), kept while dE/dn > 0.
    """
    if spec.kind == "harmonic":
        if n_max is None:
            raise ValueError("harmonic levels require n_max")
        n = np.arange(n_max + 1)
        return spec.hbar * spec.params["omega"] * (n + 0.5)
    if spec.kind == "morse":
        depth = spec.params["depth"]
        w0 = morse_frequency(spec)
        # bound while n + 1/2 < 2*depth/(hbar*w0), strictly
        limit = 2.0 * depth / (spec.hbar * w0) - 0.5
        n_bound = int(math.floor(limit - 1e-12)) + 1
        count = n_bound if n_max is None else min(n_bound, n_max + 1)
        n = np.arange(count)
        y = spec.hbar * w0 * (n + 0.5)
        return y - y**2 / (4.0 * depth)
    raise NotAvailableError(f"no analytic levels for kind {spec.kind!r}")

