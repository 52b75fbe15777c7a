"""Command-line front end: config files, experiment drivers, CSV and SVG.

The config format is flat ``key = value`` lines under ``[section]`` headers;
the section dataclasses below are its schema (FORMATS.md documents the keys).
Every command writes its outputs atomically and exits 0 only when all
requested files are on disk. CSV floats carry 17 significant digits so
outputs are byte-identical across reruns.
"""

import argparse
import csv
import math
import os
import sys
import tempfile
import time
from dataclasses import MISSING, astuple, dataclass, field, fields, replace
from typing import get_args

import numpy as np

from . import __version__
from .errors import (BelowWellBottomError, BudgetExceededError,
                     DegenerateEstimateError, NotAvailableError,
                     UnboundedOrbitError)
from .fourier_grid import DENSE_2D_LIMIT, Grid1D, harmonic_square_grid
from .potentials import (PARAMETERS, PotentialSpec, analytic_levels,
                         coulomb1d, harmonic, morse, triangle2d)
from .pruner import cell_table, select_cells
from .semiclassics import scaling_report
from .solver import BASES, Pipeline, efficiency_scan
from .vn_basis import VnLattice


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# RunConfig and the config file format
#
# Each section dataclass is the only statement of its [section]: the fields
# are the keys, the annotation picks the converter (an empty value of an
# `X | None` field means None), the default is the default and a field
# without one is required. Keys are written back in declaration order.


@dataclass
class PotentialConfig:
    kind: str
    hbar: float = 1.0
    beta: float | None = None
    charge: float | None = None
    depth: float | None = None
    mass: float | None = None
    omega: float | None = None


@dataclass
class GridConfig:
    x_min: float
    length: float
    n: int                   # points per axis; a 2-d potential gets n x n


@dataclass
class LatticeConfig:
    nx: int                  # positions per axis; it must divide grid.n
    alpha: float | None = None


@dataclass
class PruneConfig:
    e_cut: float
    auto_scale: float = 1.0  # scale of the per-cell gradient margin


@dataclass
class SolverConfig:
    basis: str = "fgh"
    n_states: int | None = None
    digits: int = 3


@dataclass
class OutputConfig:
    outdir: str = "out"
    seed: int = 0


@dataclass
class RunConfig:
    potential: PotentialConfig
    grid: GridConfig
    lattice: LatticeConfig | None = None
    prune: PruneConfig | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def spec(self) -> PotentialSpec:
        pot = self.potential
        values = {key: getattr(pot, key)
                  for key in ("hbar", *PARAMETERS[pot.kind])
                  if getattr(pot, key) is not None}
        try:
            return _MAKERS[pot.kind](**values)
        except ValueError as exc:
            raise _rejected("potential", values, exc) from None

    @property
    def hbar(self) -> float:  # read-only alias; perfbench/make_refs.py reads it
        return self.potential.hbar


# The [section] names and their dataclasses, read off RunConfig's fields.
SECTION_CLASSES = {f.name: (get_args(f.type) or (f.type,))[0]
                   for f in fields(RunConfig)}

_MAKERS = {"harmonic": harmonic, "morse": morse, "triangle2d": triangle2d,
           "coulomb1d": coulomb1d}

_CONVERTERS = {str: (str, "a string"), int: (int, "an integer"),
               float: (float, "a number")}

# (section, key, lowest value) of the numeric fields with a lower bound
_MINIMA = (("solver", "n_states", 1), ("solver", "digits", 1),
           ("prune", "auto_scale", 0), ("output", "seed", 0))


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value format into a RunConfig.

    Unknown or repeated sections or keys, missing required fields, and
    malformed or out-of-range values all raise ConfigError naming the
    offending line or field.
    """
    keys = {name: {f.name for f in fields(cls)}
            for name, cls in SECTION_CLASSES.items()}
    raw: dict = {name: {} for name in keys}
    section, seen = None, set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in keys:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            if section in seen:
                raise ConfigError(f"line {lineno}: repeated section [{section}]")
            seen.add(section)
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in keys[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if key in raw[section]:
            raise ConfigError(f"line {lineno}: repeated key '{key}' in [{section}]")
        raw[section][key] = value
    cfg = RunConfig(**{f.name: _parse_section(f.name, SECTION_CLASSES[f.name],
                                              raw[f.name])
                       for f in fields(RunConfig)
                       if raw[f.name] or f.default is not None})

    kind = cfg.potential.kind
    if kind not in _MAKERS:
        raise ConfigError(f"potential.kind: unknown potential '{kind}'")
    for key, text in raw["potential"].items():
        if key not in ("kind", "hbar", *PARAMETERS[kind]):
            raise ConfigError(f"potential.{key}: not a {kind} parameter")
        if text == "":  # optional only by omission: empty is not a number
            raise ConfigError(f"potential.{key}: not a number: ''")
    if cfg.solver.basis not in BASES:
        raise ConfigError(f"solver.basis: unknown basis '{cfg.solver.basis}'")
    for section, key, low in _MINIMA:
        value = getattr(getattr(cfg, section), key, None)  # prune is optional
        if value is not None and value < low:
            raise ConfigError(f"{section}.{key}: must be >= {low}, "
                              f"got {_text(value)}")
    return cfg


def _parse_section(section: str, cls, values: dict):
    """One section dataclass from its raw key -> text pairs."""
    kwargs = {}
    for f in fields(cls):
        name = f"{section}.{f.name}"
        if f.name in values:
            kwargs[f.name] = _convert(name, f.type, values[f.name])
        elif f.default is MISSING:
            raise ConfigError(f"missing {name}")
    return cls(**kwargs)


def _convert(name: str, annotation, text: str):
    """Config text to the annotated type; empty text of `X | None` is None."""
    args = get_args(annotation)
    if args:
        if text == "":
            return None
        annotation = args[0]
    convert, what = _CONVERTERS[annotation]
    try:
        value = convert(text)
    except ValueError:
        raise ConfigError(f"{name}: not {what}: '{text}'") from None
    if annotation is float and not math.isfinite(value):
        raise ConfigError(f"{name}: not a finite number: '{text}'")
    return value


def _config_items(cfg: RunConfig):
    """(section, key, text) of every set field, in declaration order."""
    for sec in fields(cfg):
        part = getattr(cfg, sec.name)
        for f in fields(part) if part is not None else ():
            value = getattr(part, f.name)
            if value is not None:
                yield sec.name, f.name, _text(value)


def _g(x) -> str:
    """17-significant-digit float formatting used in all outputs."""
    return "%.17g" % float(x)


def _text(value) -> str:
    """A config, meta or CSV value as written: floats by _g, lists joined
    by commas, None empty, booleans as true/false."""
    if isinstance(value, (float, np.floating)):
        return _g(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(_text, value))
    return "" if value is None else str(value)


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
    lines = [",".join(header)] + [",".join(map(_text, row)) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


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


def _rejected(section: str, values: dict, exc: Exception) -> ConfigError:
    """'section.key = value, ...: message' for values the library refused."""
    named = ", ".join(f"{section}.{key} = {_text(value)}"
                      for key, value in values.items() if value is not None)
    return ConfigError(f"{named}: {exc}")


def _grid_axis(g: GridConfig, n: int | None = None) -> Grid1D:
    """The [grid] axis, with n points in place of grid.n when given.

    A value the library refuses names only the keys the axis read.
    """
    keys = {"n": g.n, "length": g.length} if n is None else {"length": g.length}
    try:
        return Grid1D(g.x_min, g.length, g.n if n is None else n)
    except ValueError as exc:
        raise _rejected("grid", keys, exc) from None


def cmd_solve(cfg: RunConfig, args, meta: dict) -> dict:
    """Run one basis pipeline end-to-end: eigenvalues (+cells)."""
    spec = cfg.spec()
    axes = (_grid_axis(cfg.grid),) * spec.dimension
    basis, two_d, lat = cfg.solver.basis, len(axes) == 2, cfg.lattice
    size = math.prod(g.N for g in axes)
    if two_d and basis == "fgh" and size > DENSE_2D_LIMIT:
        if not args.long_running:
            raise ConfigError(
                f"grid has {size} points (> {DENSE_2D_LIMIT}); pass "
                "--long-running to enable the matrix-free Lanczos fgh solve")
        if cfg.solver.n_states is None:
            raise ConfigError("solver.n_states: required by the matrix-free "
                              f"fgh solve of {size} points")
        if cfg.solver.n_states >= size:
            raise ConfigError(f"solver.n_states = {cfg.solver.n_states}: must "
                              f"be below the {size} points of the matrix-free "
                              "fgh solve")
    if basis != "fgh":
        if lat is None:
            raise ConfigError(f"basis '{basis}' needs a [lattice] section")
        try:
            VnLattice.from_grid(axes[0], lat.nx, hbar=spec.hbar,
                                alpha=lat.alpha)
        except ValueError as exc:
            raise _rejected("lattice", {"nx": lat.nx, "alpha": lat.alpha},
                            exc) from None
    pipe = Pipeline(spec, axes, basis, n_x=lat and lat.nx,
                    alpha=lat and lat.alpha)
    meta.update((key, _g(value)) for key, value in pipe.info.items())
    mask = None
    if basis == "bvn" and cfg.prune is not None:
        mask = select_cells(pipe.lattices, spec, cfg.prune.e_cut,
                            cfg.prune.auto_scale)
        if mask.n_kept == 0:
            raise ConfigError(
                f"prune.e_cut = {_g(cfg.prune.e_cut)} keeps no phase-space cell")
        centers, h_cl = cell_table(pipe.lattices, spec)
        meta.update(n_kept=str(mask.n_kept), n_cells=str(mask.size))
    energies = pipe.solve(mask, n_states=cfg.solver.n_states).energies
    meta["n_levels"] = str(len(energies))
    tables = {"eigenvalues.csv": (["index", "energy"],
                                  list(enumerate(energies)))}
    if mask is not None:
        header = (["x", "px", "y", "py", "h_cl", "kept"] if two_d
                  else ["x", "p", "h_cl", "kept"])
        tables["cells.csv"] = (header, [(*c, e, int(k)) for c, e, k in zip(
            centers.tolist(), h_cl.tolist(), mask.kept)])
    return tables


def cmd_sweep(cfg: RunConfig, args, meta: dict) -> dict:
    """Convergence of one eigenvalue vs basis size, per method.

    The reference is the analytic level for potentials that have one. The
    pvn and fgh columns coincide because the bases span the same space;
    the vn method is the non-periodized Gaussian baseline.
    """
    sizes, index, methods = args.sizes, args.index, args.methods
    spec = cfg.spec()
    levels = analytic_levels(spec, n_max=index)
    if not 0 <= index < levels.size:
        raise ConfigError(f"sweep index {index} outside the analytic table")
    if any(size <= 0 or size % 2 for size in sizes):
        raise ConfigError(f"sweep --sizes must be positive and even: {sizes}")
    for method in methods:
        if method not in ("fgh", "pvn", "vn"):
            raise ConfigError(f"sweep method '{method}' not supported")
    target = levels[index]
    meta["sweep.reference"] = _g(target)
    rows = []
    for method in methods:
        for size in sizes:
            if cfg.potential.kind == "harmonic":
                # keep the phase-space box square as the grid grows, the
                # natural box schedule for basis-size convergence plots
                grid = harmonic_square_grid(size, spec.params["mass"],
                                            spec.params["omega"], spec.hbar)
            else:
                grid = _grid_axis(cfg.grid, size)
            energies = Pipeline(spec, (grid,), method).solve().energies
            if index < len(energies):
                energy = float(energies[index])
                rows.append((method, size, energy, abs(energy - target)))
    if not rows:
        raise ConfigError(f"sweep --index {index}: no size in {sizes} has it")
    return {"convergence.csv": (["method", "basis_size", "energy",
                                 "abs_error"], rows)}


def cmd_efficiency(cfg: RunConfig, args, meta: dict) -> dict:
    """Smallest basis per method and per hbar; ratio = size / levels."""
    if cfg.prune is None:
        raise ConfigError("efficiency scan needs prune.e_cut as the level cutoff")
    if not args.hbars or not all(hb > 0 for hb in args.hbars):
        raise ConfigError(f"efficiency --hbars must be positive: {args.hbars}")
    spec, e_cut = cfg.spec(), cfg.prune.e_cut
    _grid_axis(cfg.grid, 2)  # the scan's box; it picks its own point counts
    for hb in args.hbars:
        ground = analytic_levels(replace(spec, hbar=hb), n_max=0)
        if not np.any(ground < e_cut):
            raise ConfigError(f"prune.e_cut = {_g(e_cut)}: no analytic level "
                              f"lies below it at hbar = {_g(hb)}")
    try:
        points = efficiency_scan(spec, args.hbars, cfg.solver.digits, e_cut,
                                 cfg.grid.x_min, cfg.grid.length)
    except BudgetExceededError as exc:
        points = exc.partial or []
        meta["budget_error"] = str(exc)
    rows = [(p.hbar, p.method, p.basis_size, p.n_levels, p.ratio, "ok")
            for p in points]
    done = {(p.hbar, p.method) for p in points}  # all of them unless over budget
    for hb in args.hbars:
        for method in ("fgh", "bvn"):
            if (hb, method) not in done:
                rows.append((hb, method, None, None, None, "budget_exceeded"))
    return {"efficiency.csv": (["hbar", "method", "basis_size", "n_converged",
                                "ratio", "status"], rows)}


def cmd_scaling(cfg: RunConfig, args, meta: dict) -> dict:
    """Volume and state-count scaling table across dimension."""
    if not args.dims or min(args.dims) < 1:
        raise ConfigError(f"scaling --dims must be >= 1: {args.dims}")
    if args.samples < 1:
        raise ConfigError(f"scaling --samples must be >= 1: {args.samples}")
    if args.energy is None:
        if cfg.prune is None:
            raise ConfigError("scaling needs --energy or prune.e_cut")
        args.energy = cfg.prune.e_cut
    where = "--energy (default prune.e_cut)"
    if not math.isfinite(args.energy):
        raise ConfigError(f"{where}: energy {args.energy} is not finite")
    try:
        rows = scaling_report(cfg.spec(), args.dims, args.energy,
                              n_samples=args.samples, seed=cfg.output.seed)
    except (UnboundedOrbitError, BelowWellBottomError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except DegenerateEstimateError:
        raise ConfigError(f"--samples {args.samples}, --dims {args.dims}: no "
                          "sample fell inside the energy shell; raise "
                          "--samples or lower --dims") from None
    return {"scaling.csv": (
        ["D", "V_mc", "V_mc_stderr", "V_semiclassical", "V_exponential_ref",
         "G_exact", "G_limit_gD", "G_limit_Dg", "box_ratio"],
        [astuple(r) for r in rows])}


COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep,
            "efficiency": cmd_efficiency, "scaling": cmd_scaling}


def run_command(cfg: RunConfig, args) -> None:
    """Time one config command, write its tables, then meta.txt last.

    The only writer of those files. The command returns its tables, adds
    its own meta keys and resolves any defaulted argument in `args`; this
    echoes the config and the command's arguments as resolved.
    """
    t0 = time.time()
    meta = {"command": args.command, "version": __version__,
            **{f"{sec}.{key}": text for sec, key, text in _config_items(cfg)}}
    tables = COMMANDS[args.command](cfg, args, meta)
    meta.update((f"{args.command}.{key}", _text(value))
                for key, value in vars(args).items() if key not in _COMMON)
    out_dir = args.out if args.out is not None else cfg.output.outdir
    paths = [os.path.join(out_dir, name) for name in (*tables, "meta.txt")]
    for path, (header, rows) in zip(paths, tables.values()):
        write_csv(path, header, rows)
    meta["wall_time_s"] = f"{time.time() - t0:.3f}"
    meta["outputs"] = " ".join(tables)
    write_text_atomic(paths[-1],
                      "".join(f"{k} = {v}\n" for k, v in meta.items()))
    if not args.quiet:
        for path in paths:
            print(f"wrote {path}")


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
    span = hi - lo
    mag = 10.0 ** math.floor(math.log10(span / target))
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
    return f"{value:.6g}"


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


def _svg_document(body_lines, title: str) -> str:
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" '
            f'height="{_PLOT_H}" viewBox="0 0 {_PLOT_W} {_PLOT_H}">',
            f'<title>{title}</title>',
            f'<rect width="{_PLOT_W}" height="{_PLOT_H}" fill="white"/>']
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
        y_ticks = [(d, f"1e{d}") for d in range(math.floor(frame.y_lo),
                                                math.ceil(frame.y_hi) + 1)
                   if frame.y_lo - 1e-9 <= d <= frame.y_hi + 1e-9]
    else:
        y_ticks = [(tick, _fmt_tick(tick))
                   for tick in _nice_ticks(frame.y_lo, frame.y_hi)]
    for value, label in y_ticks:
        py = frame.py(value)
        lines.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        lines.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
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


def render_plot(kind: str, csv_path: str) -> str:
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
        return _render_cells(rows)
    if kind == "convergence":
        return _render_lines(rows, "method", "basis_size", "abs_error",
                             "basis size", "absolute error", True)
    if kind == "efficiency":
        ok_rows = [r for r in rows if r.get("status", "ok") == "ok"]
        if not ok_rows:
            raise ConfigError(f"{csv_path}: no ok rows to plot")
        return _render_lines(ok_rows, "method", "hbar", "ratio",
                             "hbar", "basis functions per state", False)
    series = [{"series": name, "D": r["D"], "volume": r[name]}
              for name in _REQUIRED_COLUMNS["scaling"][1:] for r in rows]
    return _render_lines(series, "series", "D", "volume", "dimension D",
                         "phase-space volume", True,
                         "volume scaling with dimension")


def _render_lines(rows, series_key, x_key, y_key, x_label, y_label,
                  log_y: bool, title=None) -> str:
    series: dict = {}
    for row in rows:
        series.setdefault(row[series_key], []).append(row)
    floor = 1e-17
    all_x, all_y = [], []
    plotted = []
    for name, group in series.items():
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
    return _svg_document(body, title or f"{y_label} vs {x_label}")


def _render_cells(rows) -> str:
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
    return _svg_document(body, "kept phase-space cells")


def _min_spacing(values) -> float:
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return 1.0
    return min(b - a for a, b in zip(distinct, distinct[1:]))


def cmd_plot(csv_path: str, kind: str, out_path: str,
             quiet: bool = False) -> None:
    """Render one CSV into a standalone SVG file, byte-stable like a CSV."""
    svg = render_plot(kind, csv_path)
    write_text_atomic(out_path, svg)
    if not quiet:
        print(f"wrote {out_path}")


# ---------------------------------------------------------------------------
# Argument parsing and entry point


def _list_of(convert):
    """An argparse type: comma-separated values, each passed to convert."""
    def parse(text: str):
        return [convert(part.strip()) for part in text.split(",")
                if part.strip()]
    parse.__name__ = convert.__name__  # argparse names it in its errors
    return parse


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


# the options every config command shares; the runner echoes the others
_COMMON = ("command", "config", "out", "seed", "quiet")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasegrid",
        description="Schrodinger eigensolver on Fourier grids and pruned "
                    "phase-space Gaussian bases")
    parser.add_argument("--version", action="version",
                        version=f"phasegrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # see _COMMON
    common.add_argument("--config", required=True, help="run config file")
    common.add_argument("--out", default=None,
                        help="output directory (default: config outdir)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--quiet", action="store_true")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="one spectrum, one basis")
    p_solve.add_argument("--long-running", action="store_true",
                         help="allow the 2-d Lanczos fgh solve (> 5000 points)")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="eigenvalue error vs basis size")
    p_sweep.add_argument("--sizes", type=_list_of(int),
                         default=list(range(8, 26, 2)),
                         help="comma-separated basis sizes")
    p_sweep.add_argument("--index", type=int, default=7,
                         help="eigenvalue index to track")
    p_sweep.add_argument("--methods", type=_list_of(str),
                         default=["fgh", "pvn", "vn"],
                         help="comma-separated methods")

    p_eff = sub.add_parser("efficiency", parents=[common],
                           help="minimal basis per hbar")
    p_eff.add_argument("--hbars", type=_list_of(float),
                       default=[1.0, 0.5, 0.25])

    p_scal = sub.add_parser("scaling", parents=[common],
                            help="volume scaling with dimension")
    p_scal.add_argument("--dims", type=_list_of(int), default=[1, 2, 3])
    p_scal.add_argument("--energy", type=float, default=None,
                        help="shell energy (default: prune.e_cut)")
    p_scal.add_argument("--samples", type=int, default=200000)

    p_plot = sub.add_parser("plot", help="render a CSV as SVG")
    p_plot.add_argument("input", help="input CSV file")
    p_plot.add_argument("--kind", required=True,
                        choices=("convergence", "efficiency", "scaling",
                                 "cells"))
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            cmd_plot(args.input, args.kind, args.out, quiet=args.quiet)
            return 0
        cfg = _load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
            cfg.output.seed = args.seed
        run_command(cfg, args)
        return 0
    except (ConfigError, NotAvailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
