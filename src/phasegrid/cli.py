"""Command-line front end: config files, experiment drivers, CSV and SVG.

The config format is flat ``key = value`` lines under ``[section]`` headers
(see FORMATS.md for the key list). Every command writes its outputs
atomically and exits 0 only when all requested files are on disk. CSV floats
carry 17 significant digits so outputs are byte-identical across reruns.
"""

import argparse
import csv
import datetime
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import BudgetExceededError
from .fourier_grid import (DENSE_2D_LIMIT, Grid1D, Grid2D,
                           hamiltonian_fgh, harmonic_square_grid, solve_fgh)
from .potentials import (PotentialSpec, analytic_levels, coulomb1d, harmonic,
                         morse, triangle2d)
from .pruner import PruneRule, cell_table, select_cells
from .semiclassics import scaling_report
from .solver import (EfficiencyPolicy, GeneralizedProblem, assemble_bvn,
                     assemble_bvn_2d, assemble_pvn, efficiency_scan,
                     solve_generalized)
from .vn_basis import (VnLattice, balanced_factors, build_basis,
                       continuous_vn_matrices)


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# RunConfig and the config file format


@dataclass
class GridConfig:
    x_min: float
    length: float
    n: int = 0          # 1-d point count; 0 when the grid is 2-d
    nx: int = 0         # 2-d per-axis counts; 0 when the grid is 1-d
    ny: int = 0


@dataclass
class LatticeConfig:
    nx: int
    np: int
    alpha: float | None = None
    center_convention: str = "cell_center"


@dataclass
class PruneConfig:
    e_cut: float
    margin: str = "auto"     # "auto" or a float literal
    auto_scale: float = 1.0


@dataclass
class SolverConfig:
    basis: str = "fgh"
    n_states: int | None = None
    rcond: float = 1e-12
    digits: int = 3
    long_running: bool = False


@dataclass
class OutputConfig:
    outdir: str = "out"
    seed: int = 0


@dataclass
class RunConfig:
    kind: str
    params: dict
    hbar: float
    grid: GridConfig
    lattice: LatticeConfig | None = None
    prune: PruneConfig | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def spec(self) -> PotentialSpec:
        maker = _MAKERS[self.kind]
        return maker(hbar=self.hbar, **self.params)


_MAKERS = {"harmonic": harmonic, "morse": morse, "triangle2d": triangle2d,
           "coulomb1d": coulomb1d}

_SECTIONS = ("potential", "grid", "lattice", "prune", "solver", "output")

_KEYS = {
    "potential": {"kind", "hbar", "mass", "omega", "depth", "beta", "charge"},
    "grid": {"x_min", "length", "n", "nx", "ny"},
    "lattice": {"nx", "np", "alpha", "center_convention"},
    "prune": {"e_cut", "margin", "auto_scale"},
    "solver": {"basis", "n_states", "rcond", "digits", "long_running"},
    "output": {"outdir", "seed"},
}

_PARAM_KEYS = {"mass", "omega", "depth", "beta", "charge"}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value format into a RunConfig.

    Unknown sections or keys, missing required fields, and malformed values
    all raise ConfigError naming the offending line or field.
    """
    raw: dict = {name: {} for name in _SECTIONS}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        raw[section][key] = value

    pot = raw["potential"]
    if "kind" not in pot:
        raise ConfigError("missing potential.kind")
    kind = pot["kind"]
    if kind not in _MAKERS:
        raise ConfigError(f"potential.kind: unknown potential '{kind}'")
    params = {k: _as_float(f"potential.{k}", v) for k, v in pot.items()
              if k in _PARAM_KEYS}
    hbar = _as_float("potential.hbar", pot.get("hbar", "1.0"))

    g = raw["grid"]
    for need in ("x_min", "length"):
        if need not in g:
            raise ConfigError(f"missing grid.{need}")
    grid = GridConfig(x_min=_as_float("grid.x_min", g["x_min"]),
                      length=_as_float("grid.length", g["length"]),
                      n=_as_int("grid.n", g.get("n", "0")),
                      nx=_as_int("grid.nx", g.get("nx", "0")),
                      ny=_as_int("grid.ny", g.get("ny", "0")))
    if grid.n == 0 and (grid.nx == 0 or grid.ny == 0):
        raise ConfigError("grid needs n (1-d) or nx and ny (2-d)")
    if grid.n and (grid.nx or grid.ny):
        raise ConfigError("grid.n conflicts with grid.nx/grid.ny")

    lattice = None
    if raw["lattice"]:
        lat = raw["lattice"]
        for need in ("nx", "np"):
            if need not in lat:
                raise ConfigError(f"missing lattice.{need}")
        lattice = LatticeConfig(
            nx=_as_int("lattice.nx", lat["nx"]),
            np=_as_int("lattice.np", lat["np"]),
            alpha=(None if lat.get("alpha", "") == ""
                   else _as_float("lattice.alpha", lat["alpha"])),
            center_convention=lat.get("center_convention", "cell_center"))

    prune = None
    if raw["prune"]:
        pr = raw["prune"]
        if "e_cut" not in pr:
            raise ConfigError("missing prune.e_cut")
        margin = pr.get("margin", "auto")
        if margin != "auto":
            _as_float("prune.margin", margin)
        prune = PruneConfig(e_cut=_as_float("prune.e_cut", pr["e_cut"]),
                            margin=margin,
                            auto_scale=_as_float("prune.auto_scale",
                                                 pr.get("auto_scale", "1.0")))

    so = raw["solver"]
    solver = SolverConfig(
        basis=so.get("basis", "fgh"),
        n_states=(None if so.get("n_states", "") == ""
                  else _as_int("solver.n_states", so["n_states"])),
        rcond=_as_float("solver.rcond", so.get("rcond", "1e-12")),
        digits=_as_int("solver.digits", so.get("digits", "3")),
        long_running=_as_bool("solver.long_running",
                              so.get("long_running", "false")))
    if solver.basis not in ("fgh", "pvn", "bvn", "vn"):
        raise ConfigError(f"solver.basis: unknown basis '{solver.basis}'")

    out = raw["output"]
    output = OutputConfig(outdir=out.get("outdir", "out"),
                          seed=_as_int("output.seed", out.get("seed", "0")))
    return RunConfig(kind=kind, params=params, hbar=hbar, grid=grid,
                     lattice=lattice, prune=prune, solver=solver,
                     output=output)


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config up to formatting; round-trips semantically."""
    lines = ["[potential]", f"kind = {cfg.kind}", f"hbar = {_g(cfg.hbar)}"]
    for key in sorted(cfg.params):
        lines.append(f"{key} = {_g(cfg.params[key])}")
    lines += ["", "[grid]", f"x_min = {_g(cfg.grid.x_min)}",
              f"length = {_g(cfg.grid.length)}"]
    if cfg.grid.n:
        lines.append(f"n = {cfg.grid.n}")
    else:
        lines.append(f"nx = {cfg.grid.nx}")
        lines.append(f"ny = {cfg.grid.ny}")
    if cfg.lattice is not None:
        lines += ["", "[lattice]", f"nx = {cfg.lattice.nx}",
                  f"np = {cfg.lattice.np}"]
        if cfg.lattice.alpha is not None:
            lines.append(f"alpha = {_g(cfg.lattice.alpha)}")
        lines.append(f"center_convention = {cfg.lattice.center_convention}")
    if cfg.prune is not None:
        lines += ["", "[prune]", f"e_cut = {_g(cfg.prune.e_cut)}",
                  f"margin = {cfg.prune.margin}",
                  f"auto_scale = {_g(cfg.prune.auto_scale)}"]
    lines += ["", "[solver]", f"basis = {cfg.solver.basis}"]
    if cfg.solver.n_states is not None:
        lines.append(f"n_states = {cfg.solver.n_states}")
    lines += [f"rcond = {_g(cfg.solver.rcond)}",
              f"digits = {cfg.solver.digits}",
              f"long_running = {'true' if cfg.solver.long_running else 'false'}"]
    lines += ["", "[output]", f"outdir = {cfg.output.outdir}",
              f"seed = {cfg.output.seed}", ""]
    return "\n".join(lines)


def _as_float(name: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{name}: not a number: '{value}'") from None


def _as_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name}: not an integer: '{value}'") from None


def _as_bool(name: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{name}: not a boolean: '{value}'")


def _g(x) -> str:
    """17-significant-digit float formatting used in all outputs."""
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# Atomic file output


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Atomic CSV with floats at 17 significant digits."""
    out = [",".join(header)]
    for row in rows:
        cells = []
        for item in row:
            if isinstance(item, (float, np.floating)):
                cells.append(_g(item))
            elif item is None:
                cells.append("")
            else:
                cells.append(str(item))
        out.append(",".join(cells))
    write_text_atomic(path, "\n".join(out) + "\n")


def read_csv(path: str):
    """Returns (header list, list of row dicts keyed by column name)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV") from None
        rows = [dict(zip(header, row)) for row in reader if row]
    return header, rows


# ---------------------------------------------------------------------------
# Command implementations


@dataclass
class ResultBundle:
    """Paths written by a command plus the flat metadata that went to meta.txt."""

    paths: list
    meta: dict


def _build_grid(cfg: RunConfig):
    g = cfg.grid
    if g.n:
        return Grid1D(g.x_min, g.length, g.n)
    gx = Grid1D(g.x_min, g.length, g.nx)
    gy = Grid1D(g.x_min, g.length, g.ny)
    return Grid2D(gx, gy)


def _require_lattice(cfg: RunConfig) -> LatticeConfig:
    if cfg.lattice is None:
        raise ConfigError(f"basis '{cfg.solver.basis}' needs a [lattice] section")
    return cfg.lattice


def _prune_rule(cfg: RunConfig) -> PruneRule | None:
    if cfg.prune is None:
        return None
    margin = cfg.prune.margin
    if margin != "auto":
        margin = float(margin)
    return PruneRule(cfg.prune.e_cut, margin, auto_scale=cfg.prune.auto_scale)


def _solve_1d(cfg: RunConfig, grid: Grid1D, meta: dict):
    """Returns (energies, cells_rows or None)."""
    spec = cfg.spec()
    basis_kind = cfg.solver.basis
    if basis_kind == "fgh":
        out = solve_fgh(grid, spec, n_states=cfg.solver.n_states)
        return out.energies, None
    lat_cfg = _require_lattice(cfg)
    lattice = VnLattice.from_grid(grid, lat_cfg.nx, lat_cfg.np,
                                  hbar=spec.hbar, alpha=lat_cfg.alpha,
                                  center_convention=lat_cfg.center_convention)
    if basis_kind == "vn":
        h, s = continuous_vn_matrices(lattice, spec)
        out = solve_generalized(GeneralizedProblem(h, s, "vn"),
                                n_states=cfg.solver.n_states,
                                rcond=cfg.solver.rcond)
        return out.energies, None
    bundle = build_basis(lattice, grid, rcond=cfg.solver.rcond,
                         allow_pseudo=True)
    meta["cond_s"] = _g(bundle.cond_S)
    h_grid = hamiltonian_fgh(grid, spec)
    if basis_kind == "pvn":
        problem = assemble_pvn(h_grid, bundle.G)
        out = solve_generalized(problem, n_states=cfg.solver.n_states,
                                rcond=cfg.solver.rcond)
        return out.energies, None
    rule = _prune_rule(cfg)
    mask = None
    cells_rows = None
    if rule is not None:
        mask = select_cells(lattice, spec, rule)
        centers, h_cl = cell_table(lattice, spec)
        cells_rows = [(centers[i, 0], centers[i, 1], h_cl[i],
                       int(mask.kept[i])) for i in range(mask.size)]
        meta["n_kept"] = str(mask.n_kept)
        meta["n_cells"] = str(mask.size)
    problem = assemble_bvn(h_grid, bundle.B, bundle.S_inv, mask)
    out = solve_generalized(problem, n_states=cfg.solver.n_states,
                            rcond=cfg.solver.rcond)
    return out.energies, cells_rows


def _solve_2d(cfg: RunConfig, grid: Grid2D, meta: dict):
    spec = cfg.spec()
    basis_kind = cfg.solver.basis
    if grid.size > DENSE_2D_LIMIT and not cfg.solver.long_running:
        raise ConfigError(
            f"grid has {grid.size} points (> {DENSE_2D_LIMIT}); pass "
            "--long-running to enable the large matrix-free path")
    if basis_kind == "fgh":
        out = solve_fgh(grid, spec, n_states=cfg.solver.n_states)
        return out.energies, None
    if basis_kind != "bvn":
        raise ConfigError(f"basis '{basis_kind}' supports only 1-d grids")
    lat_cfg = _require_lattice(cfg)
    if cfg.prune is None:
        raise ConfigError("2-d bvn solve needs a [prune] section")
    lat_x = VnLattice.from_grid(grid.gx, lat_cfg.nx, lat_cfg.np,
                                hbar=spec.hbar, alpha=lat_cfg.alpha,
                                center_convention=lat_cfg.center_convention)
    lat_y = VnLattice.from_grid(grid.gy, lat_cfg.nx, lat_cfg.np,
                                hbar=spec.hbar, alpha=lat_cfg.alpha,
                                center_convention=lat_cfg.center_convention)
    bx = build_basis(lat_x, grid.gx, rcond=cfg.solver.rcond, allow_pseudo=True)
    by = build_basis(lat_y, grid.gy, rcond=cfg.solver.rcond, allow_pseudo=True)
    meta["cond_s"] = _g(max(bx.cond_S, by.cond_S))
    mask = select_cells((lat_x, lat_y), spec, _prune_rule(cfg))
    centers, h_cl = cell_table((lat_x, lat_y), spec)
    cells_rows = [(centers[i, 0], centers[i, 1], centers[i, 2], centers[i, 3],
                   h_cl[i], int(mask.kept[i])) for i in range(mask.size)]
    meta["n_kept"] = str(mask.n_kept)
    meta["n_cells"] = str(mask.size)
    h_op = hamiltonian_fgh(grid, spec, assembly="matfree")
    problem = assemble_bvn_2d(h_op, bx.B, by.B, bx.S_inv, by.S_inv, mask)
    out = solve_generalized(problem, n_states=cfg.solver.n_states,
                            rcond=cfg.solver.rcond)
    return out.energies, cells_rows


def _meta_base(cfg: RunConfig, command: str) -> dict:
    meta = {"command": command, "version": __version__}
    for line in serialize_config(cfg).splitlines():
        body = line.strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1]
        elif body:
            key, value = (part.strip() for part in body.split("=", 1))
            meta[f"{section}.{key}"] = value
    return meta


def _finish(out_dir: str, meta: dict, paths: list, t0: float,
            quiet: bool) -> ResultBundle:
    meta["wall_time_s"] = f"{time.time() - t0:.3f}"
    meta["outputs"] = " ".join(os.path.basename(p) for p in paths)
    meta_path = os.path.join(out_dir, "meta.txt")
    write_text_atomic(meta_path,
                      "".join(f"{k} = {v}\n" for k, v in meta.items()))
    paths = paths + [meta_path]
    if not quiet:
        for p in paths:
            print(f"wrote {p}")
    return ResultBundle(paths=paths, meta=meta)


def cmd_solve(cfg: RunConfig, out_dir: str, quiet: bool = False) -> ResultBundle:
    """Run one basis pipeline end-to-end and write eigenvalues (+cells)."""
    t0 = time.time()
    meta = _meta_base(cfg, "solve")
    grid = _build_grid(cfg)
    if isinstance(grid, Grid1D):
        energies, cells_rows = _solve_1d(cfg, grid, meta)
    else:
        energies, cells_rows = _solve_2d(cfg, grid, meta)
    meta["n_levels"] = str(len(energies))
    paths = []
    eig_path = os.path.join(out_dir, "eigenvalues.csv")
    write_csv(eig_path, ["index", "energy"],
              [(i, e) for i, e in enumerate(energies)])
    paths.append(eig_path)
    if cells_rows is not None:
        cells_path = os.path.join(out_dir, "cells.csv")
        header = (["x", "p", "h_cl", "kept"] if len(cells_rows[0]) == 4
                  else ["x", "px", "y", "py", "h_cl", "kept"])
        write_csv(cells_path, header, cells_rows)
        paths.append(cells_path)
    return _finish(out_dir, meta, paths, t0, quiet)


def cmd_sweep(cfg: RunConfig, sizes, index: int, methods,
              out_dir: str, quiet: bool = False) -> ResultBundle:
    """Convergence of one eigenvalue vs basis size, per method.

    The reference is the analytic level for potentials that have one. The
    pvn and fgh columns coincide because the bases span the same space;
    the vn method is the non-periodized Gaussian baseline.
    """
    t0 = time.time()
    meta = _meta_base(cfg, "sweep")
    spec = cfg.spec()
    levels = analytic_levels(spec, n_max=index)
    if index >= levels.size:
        raise ConfigError(f"sweep index {index} outside the analytic table")
    target = levels[index]
    meta["sweep.index"] = str(index)
    meta["sweep.reference"] = _g(target)
    rows = []
    for method in methods:
        for size in sizes:
            if cfg.kind == "harmonic":
                # keep the phase-space box square as the grid grows, the
                # natural box schedule for basis-size convergence plots
                grid = harmonic_square_grid(size, spec.params["mass"],
                                            spec.params["omega"], spec.hbar)
            else:
                grid = Grid1D(cfg.grid.x_min, cfg.grid.length, size)
            n_x, n_p = balanced_factors(size)
            if method == "fgh":
                energies = solve_fgh(grid, spec).energies
            elif method == "pvn":
                lattice = VnLattice.from_grid(grid, n_x, n_p, hbar=spec.hbar)
                bundle = build_basis(lattice, grid, allow_pseudo=True)
                problem = assemble_pvn(hamiltonian_fgh(grid, spec), bundle.G)
                energies = solve_generalized(problem).energies
            elif method == "vn":
                lattice = VnLattice.from_grid(grid, n_x, n_p, hbar=spec.hbar)
                h, s = continuous_vn_matrices(lattice, spec)
                energies = solve_generalized(
                    GeneralizedProblem(h, s, "vn"),
                    rcond=cfg.solver.rcond).energies
            else:
                raise ConfigError(f"sweep method '{method}' not supported")
            if index < len(energies):
                energy = float(energies[index])
                rows.append((method, size, energy, abs(energy - target)))
    csv_path = os.path.join(out_dir, "convergence.csv")
    write_csv(csv_path, ["method", "basis_size", "energy", "abs_error"], rows)
    return _finish(out_dir, meta, [csv_path], t0, quiet)


def cmd_efficiency(cfg: RunConfig, hbars, out_dir: str,
                   quiet: bool = False) -> ResultBundle:
    """Smallest basis per method and per hbar; ratio = size / levels."""
    t0 = time.time()
    meta = _meta_base(cfg, "efficiency")
    if cfg.prune is None:
        raise ConfigError("efficiency scan needs prune.e_cut as the level cutoff")
    spec = cfg.spec()
    policy = EfficiencyPolicy(x_min=cfg.grid.x_min,
                              box_length=cfg.grid.length,
                              rcond=cfg.solver.rcond)
    status = "ok"
    try:
        points = efficiency_scan(spec, hbars, cfg.solver.digits,
                                 cfg.prune.e_cut, policy)
    except BudgetExceededError as exc:
        points = exc.partial or []
        status = "budget_exceeded"
        meta["budget_error"] = str(exc)
    rows = [(p.hbar, p.method, p.basis_size, p.n_levels, p.ratio, "ok")
            for p in points]
    if status != "ok":
        done = {(p.hbar, p.method) for p in points}
        for hb in hbars:
            for method in ("fgh", "bvn"):
                if (hb, method) not in done:
                    rows.append((hb, method, None, None, None,
                                 "budget_exceeded"))
    csv_path = os.path.join(out_dir, "efficiency.csv")
    write_csv(csv_path,
              ["hbar", "method", "basis_size", "n_converged", "ratio",
               "status"], rows)
    return _finish(out_dir, meta, [csv_path], t0, quiet)


def cmd_scaling(cfg: RunConfig, dims, energy: float, n_samples: int,
                out_dir: str, seed: int | None = None,
                quiet: bool = False) -> ResultBundle:
    """Volume and state-count scaling table across dimension."""
    t0 = time.time()
    meta = _meta_base(cfg, "scaling")
    use_seed = cfg.output.seed if seed is None else seed
    meta["scaling.seed"] = str(use_seed)
    rows = scaling_report(cfg.spec(), dims, energy, n_samples=n_samples,
                          seed=use_seed)
    csv_path = os.path.join(out_dir, "scaling.csv")
    write_csv(csv_path,
              ["D", "V_mc", "V_mc_stderr", "V_semiclassical",
               "V_exponential_ref", "G_exact", "G_limit_gD", "G_limit_Dg",
               "box_ratio"],
              [(r.ndim, r.v_mc, r.v_mc_err, r.v_simplex, r.v_exponential,
                r.n_exact, r.n_limit_power, r.n_limit_factorial, r.box_ratio)
               for r in rows])
    return _finish(out_dir, meta, [csv_path], t0, quiet)


# ---------------------------------------------------------------------------
# SVG emission


_PLOT_W, _PLOT_H = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50
_COLORS = {"fgh": "#1f77b4", "pvn": "#2ca02c", "bvn": "#d62728",
           "vn": "#9467bd"}
_FALLBACK_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]

_REQUIRED_COLUMNS = {
    "convergence": ("method", "basis_size", "abs_error"),
    "efficiency": ("hbar", "method", "ratio"),
    "scaling": ("D", "V_mc", "V_semiclassical", "V_exponential_ref"),
    "cells": ("x", "p", "kept"),
}


def _nice_ticks(lo: float, hi: float, target: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _fmt_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.0e}"
    text = f"{value:.6g}"
    return text


class _Frame:
    """Maps data coordinates onto the SVG pixel frame, optionally log-scaled."""

    def __init__(self, x_range, y_range, log_y=False):
        self.log_y = log_y
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi <= self.y_lo:
            self.y_hi = self.y_lo + 1.0

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _MARGIN_L + frac * (_PLOT_W - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _PLOT_H - _MARGIN_B - frac * (_PLOT_H - _MARGIN_T - _MARGIN_B)


def _svg_document(body_lines, title: str, timestamp: bool) -> str:
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" '
            f'height="{_PLOT_H}" viewBox="0 0 {_PLOT_W} {_PLOT_H}">']
    if timestamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        head.append(f"<!-- generated {stamp} -->")
    head.append(f'<title>{title}</title>')
    head.append(f'<rect width="{_PLOT_W}" height="{_PLOT_H}" fill="white"/>')
    return "\n".join(head + body_lines + ["</svg>"]) + "\n"


def _axes(frame: _Frame, x_label: str, y_label: str):
    lines = []
    x0, x1 = _MARGIN_L, _PLOT_W - _MARGIN_R
    y0, y1 = _PLOT_H - _MARGIN_B, _MARGIN_T
    lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 'stroke="black"/>')
    lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 'stroke="black"/>')
    for tick in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.px(tick)
        lines.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                     f'y2="{y0 + 5}" stroke="black"/>')
        lines.append(f'<text x="{px:.1f}" y="{y0 + 18}" font-size="11" '
                     f'text-anchor="middle">{_fmt_tick(tick)}</text>')
    if frame.log_y:
        lo = math.floor(frame.y_lo)
        hi = math.ceil(frame.y_hi)
        decades = range(int(lo), int(hi) + 1)
        for d in decades:
            if d < frame.y_lo - 1e-9 or d > frame.y_hi + 1e-9:
                continue
            py = frame.py(d)
            lines.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" '
                         f'y2="{py:.1f}" stroke="black"/>')
            lines.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" '
                         f'text-anchor="end">1e{d}</text>')
    else:
        for tick in _nice_ticks(frame.y_lo, frame.y_hi):
            py = frame.py(tick)
            lines.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" '
                         f'y2="{py:.1f}" stroke="black"/>')
            lines.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" '
                         f'text-anchor="end">{_fmt_tick(tick)}</text>')
    lines.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{_PLOT_H - 12}" '
                 f'font-size="13" text-anchor="middle">{x_label}</text>')
    lines.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(y0 + y1) / 2:.1f})">{y_label}</text>')
    return lines


def _polyline(frame: _Frame, xs, ys, color: str, label: str, slot: int):
    pts = " ".join(f"{frame.px(x):.2f},{frame.py(y):.2f}"
                   for x, y in zip(xs, ys))
    lines = [f'<polyline points="{pts}" fill="none" stroke="{color}" '
             f'stroke-width="1.5"/>']
    ly = _MARGIN_T + 14 + 16 * slot
    lx = _PLOT_W - _MARGIN_R - 130
    lines.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                 f'stroke="{color}" stroke-width="1.5"/>')
    lines.append(f'<text x="{lx + 30}" y="{ly}" font-size="12">{label}</text>')
    return lines


def _series_by(rows, key: str):
    order = []
    groups = {}
    for row in rows:
        name = row[key]
        if name not in groups:
            groups[name] = []
            order.append(name)
        groups[name].append(row)
    return [(name, groups[name]) for name in order]


def render_plot(kind: str, csv_path: str, timestamp: bool = True) -> str:
    """SVG text for one of the four plot kinds; validates the CSV schema."""
    if kind not in _REQUIRED_COLUMNS:
        raise ConfigError(f"unknown plot kind '{kind}'")
    header, rows = read_csv(csv_path)
    for column in _REQUIRED_COLUMNS[kind]:
        if column not in header:
            raise ConfigError(f"{csv_path}: missing column '{column}' "
                              f"for kind '{kind}'")
    if not rows:
        raise ConfigError(f"{csv_path}: empty CSV")
    if kind == "cells":
        return _render_cells(rows, timestamp)
    if kind == "convergence":
        return _render_lines(rows, "method", "basis_size", "abs_error",
                             "basis size", "absolute error", True, timestamp)
    if kind == "efficiency":
        ok_rows = [r for r in rows if r.get("status", "ok") == "ok"]
        if not ok_rows:
            raise ConfigError(f"{csv_path}: no ok rows to plot")
        return _render_lines(ok_rows, "method", "hbar", "ratio",
                             "hbar", "basis functions per state", False,
                             timestamp)
    return _render_scaling(rows, timestamp)


def _render_lines(rows, series_key, x_key, y_key, x_label, y_label,
                  log_y: bool, timestamp: bool) -> str:
    series = _series_by(rows, series_key)
    floor = 1e-17
    all_x, all_y = [], []
    plotted = []
    for name, group in series:
        xs = [float(r[x_key]) for r in group]
        ys = [float(r[y_key]) for r in group]
        if log_y:
            ys = [math.log10(max(y, floor)) for y in ys]
        order = np.argsort(xs)
        xs = [xs[i] for i in order]
        ys = [ys[i] for i in order]
        plotted.append((name, xs, ys))
        all_x += xs
        all_y += ys
    frame = _Frame((min(all_x), max(all_x)),
                   (min(all_y), max(all_y)), log_y=log_y)
    body = _axes(frame, x_label, y_label)
    for slot, (name, xs, ys) in enumerate(plotted):
        color = _COLORS.get(name, _FALLBACK_COLORS[slot % len(_FALLBACK_COLORS)])
        body += _polyline(frame, xs, ys, color, name, slot)
    return _svg_document(body, f"{y_label} vs {x_label}", timestamp)


def _render_scaling(rows, timestamp: bool) -> str:
    dims = [float(r["D"]) for r in rows]
    series = [("V_mc", [float(r["V_mc"]) for r in rows]),
              ("V_semiclassical", [float(r["V_semiclassical"]) for r in rows]),
              ("V_exponential_ref", [float(r["V_exponential_ref"])
                                     for r in rows])]
    logged = [(name, [math.log10(max(v, 1e-300)) for v in vals])
              for name, vals in series]
    all_y = [y for _, ys in logged for y in ys]
    frame = _Frame((min(dims), max(dims)), (min(all_y), max(all_y)),
                   log_y=True)
    body = _axes(frame, "dimension D", "phase-space volume")
    for slot, (name, ys) in enumerate(logged):
        color = _FALLBACK_COLORS[slot % len(_FALLBACK_COLORS)]
        body += _polyline(frame, dims, ys, color, name, slot)
    return _svg_document(body, "volume scaling with dimension", timestamp)


def _render_cells(rows, timestamp: bool) -> str:
    xs = [float(r["x"]) for r in rows]
    ps = [float(r["p"]) for r in rows]
    kept = [int(r["kept"]) for r in rows]
    a = _min_spacing(xs)
    dp = _min_spacing(ps)
    frame = _Frame((min(xs) - a, max(xs) + a), (min(ps) - dp, max(ps) + dp))
    body = _axes(frame, "x", "p")
    for x, p, keep in zip(xs, ps, kept):
        x0 = frame.px(x - a / 2)
        y0 = frame.py(p + dp / 2)
        w = frame.px(x + a / 2) - x0
        h = frame.py(p - dp / 2) - y0
        fill = "magenta" if keep else "none"
        opacity = ' fill-opacity="0.45"' if keep else ""
        body.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{w:.2f}" '
                    f'height="{h:.2f}" fill="{fill}"{opacity} '
                    'stroke="#555555" stroke-width="0.6"/>')
    return _svg_document(body, "kept phase-space cells", timestamp)


def _min_spacing(values) -> float:
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return 1.0
    return min(b - a for a, b in zip(distinct, distinct[1:]))


def cmd_plot(csv_path: str, kind: str, out_path: str,
             timestamp: bool = True, quiet: bool = False) -> ResultBundle:
    """Render one CSV into a standalone SVG file."""
    svg = render_plot(kind, csv_path, timestamp=timestamp)
    write_text_atomic(out_path, svg)
    if not quiet:
        print(f"wrote {out_path}")
    return ResultBundle(paths=[out_path], meta={"command": "plot",
                                                "kind": kind})


# ---------------------------------------------------------------------------
# Argument parsing and entry point


def _float_list(text: str):
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str):
    return [int(part) for part in text.split(",") if part.strip()]


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasegrid",
        description="Schrodinger eigensolver on Fourier grids and pruned "
                    "phase-space Gaussian bases")
    parser.add_argument("--version", action="version",
                        version=f"phasegrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: config outdir)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--long-running", action="store_true",
                       help="allow full-resolution runs (large 2-d grids)")
        p.add_argument("--quiet", action="store_true")

    p_solve = sub.add_parser("solve", help="one spectrum, one basis")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="eigenvalue error vs basis size")
    common(p_sweep)
    p_sweep.add_argument("--sizes", type=_int_list, default=None,
                         help="comma-separated basis sizes")
    p_sweep.add_argument("--index", type=int, default=7,
                         help="eigenvalue index to track")
    p_sweep.add_argument("--methods", default="fgh,pvn,vn",
                         help="comma-separated methods")

    p_eff = sub.add_parser("efficiency", help="minimal basis per hbar")
    common(p_eff)
    p_eff.add_argument("--hbars", type=_float_list, default=[1.0, 0.5, 0.25])

    p_scal = sub.add_parser("scaling", help="volume scaling with dimension")
    common(p_scal)
    p_scal.add_argument("--dims", type=_int_list, default=[1, 2, 3])
    p_scal.add_argument("--energy", type=float, default=None,
                        help="shell energy (default: prune.e_cut)")
    p_scal.add_argument("--samples", type=int, default=200000)

    p_plot = sub.add_parser("plot", help="render a CSV as SVG")
    p_plot.add_argument("input", help="input CSV file")
    p_plot.add_argument("--kind", required=True,
                        choices=("convergence", "efficiency", "scaling",
                                 "cells"))
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--no-timestamp", action="store_true",
                        help="omit the generator timestamp comment")
    p_plot.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            cmd_plot(args.input, args.kind, args.out,
                     timestamp=not args.no_timestamp, quiet=args.quiet)
            return 0
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.output.seed = args.seed
        if args.long_running:
            cfg.solver.long_running = True
        out_dir = args.out if args.out is not None else cfg.output.outdir
        if args.command == "solve":
            cmd_solve(cfg, out_dir, quiet=args.quiet)
        elif args.command == "sweep":
            sizes = args.sizes if args.sizes else list(range(8, 26, 2))
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            cmd_sweep(cfg, sizes, args.index, methods, out_dir,
                      quiet=args.quiet)
        elif args.command == "efficiency":
            cmd_efficiency(cfg, args.hbars, out_dir, quiet=args.quiet)
        elif args.command == "scaling":
            if cfg.prune is None and args.energy is None:
                raise ConfigError("scaling needs --energy or prune.e_cut")
            energy = args.energy if args.energy is not None else cfg.prune.e_cut
            cmd_scaling(cfg, args.dims, energy, args.samples, out_dir,
                        seed=args.seed, quiet=args.quiet)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
