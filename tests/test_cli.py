"""Config grammar, commands, CSV/SVG outputs, exit codes."""

import dataclasses
import glob
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import phasegrid as pg
from phasegrid import cli
from phasegrid.potentials import PARAMETERS

HARMONIC_CFG = """\
[potential]
kind = harmonic
mass = 1
omega = 1
hbar = 1

[grid]
x_min = -4.6999280149331257
length = 10.026513098524001
n = 16

[lattice]
nx = 4

[solver]
basis = pvn

[output]
outdir = out
seed = 0
"""

MORSE_CFG = """\
[potential]
kind = morse
depth = 12
beta = 0.5
mass = 6
hbar = 1

[grid]
x_min = -1.6
length = 21.7
n = 100

[lattice]
nx = 10
alpha = 0.5

[prune]
e_cut = 12
auto_scale = 1.0

[solver]
basis = bvn
digits = 4

[output]
outdir = out
seed = 0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _echo(cfg):
    """The 'section.key = value' lines that meta.txt echoes for cfg."""
    return [f"{sec}.{key} = {text}"
            for sec, key, text in cli._config_items(cfg)]


def _config_text(echo):
    """[section] config text rebuilt from 'section.key = value' lines."""
    blocks = {}
    for line in echo:
        name, value = line.split(" = ", 1)
        section, key = name.split(".", 1)
        blocks.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines)
                   for section, lines in blocks.items())


# ---------------------------------------------------------------------------
# config grammar


def test_roundtrip_inline_configs():
    for text in (HARMONIC_CFG, MORSE_CFG):
        cfg = cli.parse_config(text)
        assert cli.parse_config(_config_text(_echo(cfg))) == cfg


def test_shipped_configs_parse_and_roundtrip():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                          os.pardir, "configs", "*.cfg")))
    assert len(paths) >= 4
    for path in paths:
        with open(path) as fh:
            cfg = cli.parse_config(fh.read())
        assert cli.parse_config(_config_text(_echo(cfg))) == cfg


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("kind = harmonic", "kind = banana"), "banana"),
    (lambda t: t.replace("[grid]", "[grids]"), "unknown section"),
    (lambda t: t.replace("n = 16", "n = sixteen"), "grid.n"),
    (lambda t: t.replace("omega = 1", "omegaa = 1"), "unknown key"),
    (lambda t: t.replace("basis = pvn", "basis = dvr"), "solver.basis"),
    (lambda t: t.replace("n = 16", ""), "grid"),
    (lambda t: t.replace("basis = pvn", "basis = pvn\nn_states = 0"),
     "solver.n_states"),
    (lambda t: t.replace("basis = pvn", "basis = pvn\nn_states = -3"),
     "solver.n_states"),
    (lambda t: t.replace("omega = 1", "omega = 1\ndepth = 3"),
     "potential.depth"),
    (lambda t: t.replace("omega = 1", "omega ="),
     "potential.omega: not a number"),
    # settings that are gone: a constant, the potential's dimension, a flag
    (lambda t: t.replace("basis = pvn", "basis = pvn\nrcond = 1e-12"),
     "unknown key 'rcond' in [solver]"),
    (lambda t: t.replace("n = 16", "n = 16\nnx = 16"),
     "unknown key 'nx' in [grid]"),
    (lambda t: t.replace("basis = pvn", "basis = pvn\nlong_running = true"),
     "unknown key 'long_running' in [solver]"),
    (lambda t: t + "\n[prune]\ne_cut = 5\nmargin = auto\n",
     "unknown key 'margin' in [prune]"),
    # a repeated key or section would silently override the first one
    (lambda t: t.replace("omega = 1", "omega = 1\nomega = 5"),
     "line 5: repeated key 'omega' in [potential]"),
    (lambda t: t + "\n[grid]\nn = 32\n", "line 22: repeated section [grid]"),
    (lambda t: t.replace("basis = pvn", "basis = pvn\ndigits = 0"),
     "solver.digits: must be >= 1, got 0"),
    (lambda t: t + "\n[prune]\ne_cut = 5\nauto_scale = -1\n",
     "prune.auto_scale: must be >= 0, got -1"),
    # a non-finite float is rejected where it is read, not deep in a solve
    (lambda t: t + "\n[prune]\ne_cut = 5\nauto_scale = nan\n",
     "prune.auto_scale: not a finite number: 'nan'"),
    (lambda t: t.replace("length = 10.026513098524001", "length = inf"),
     "grid.length: not a finite number: 'inf'"),
    (lambda t: t.replace("x_min = -4.6999280149331257", "x_min = nan"),
     "grid.x_min: not a finite number: 'nan'"),
    (lambda t: t.replace("nx = 4", "nx = 4\nalpha = inf"),
     "lattice.alpha: not a finite number: 'inf'"),
    (lambda t: t.replace("hbar = 1", "hbar = inf"),
     "potential.hbar: not a finite number: 'inf'"),
])
def test_parse_errors_name_the_field(mangle, needle):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(mangle(HARMONIC_CFG))
    assert needle in str(err.value)


def test_formats_md_lists_every_config_key():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "FORMATS.md")
    documented, section = {}, None
    for line in open(path).read().splitlines():
        header = re.match(r"### `\[(\w+)\]`", line)
        if header:
            section = header.group(1)
            documented[section] = set()
        elif line.startswith("## "):
            section = None
        elif section and line.startswith("| `"):
            documented[section] |= set(re.findall(r"`(\w+)`",
                                                  line.split("|")[1]))
    assert documented == {name: {f.name for f in dataclasses.fields(cls)}
                          for name, cls in cli.SECTION_CLASSES.items()}


def test_potential_fields_are_the_kinds_parameters():
    params = set().union(*(PARAMETERS[kind] for kind in cli._MAKERS))
    assert ({f.name for f in dataclasses.fields(cli.PotentialConfig)}
            == {"kind", "hbar"} | params)


def test_meta_echoes_the_serialized_config(tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "morse_bvn.cfg")
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", path, "--out", out, "--quiet"]) == 0
    with open(path) as fh:
        cfg = cli.parse_config(fh.read())
    with open(os.path.join(out, "meta.txt")) as fh:
        echoed = [line for line in fh.read().splitlines()
                  if line.split(".", 1)[0] in cli.SECTION_CLASSES]
    assert echoed == _echo(cfg)
    assert cli.parse_config(_config_text(echoed)) == cfg


@pytest.mark.parametrize("argv,echoed", [
    (["solve", "--seed", "5", "--long-running"],
     {"output.seed": "5", "solve.long_running": "true"}),
    (["sweep", "--sizes", "36,64", "--index", "3", "--methods", "fgh,pvn"],
     {"sweep.sizes": "36,64", "sweep.index": "3",
      "sweep.methods": "fgh,pvn"}),
    (["efficiency", "--hbars", "1,0.5"], {"efficiency.hbars": "1,0.5"}),
    (["scaling", "--dims", "1,2", "--energy", "8.5", "--samples", "5000",
      "--seed", "3"],
     {"scaling.dims": "1,2", "scaling.energy": "8.5",
      "scaling.samples": "5000", "output.seed": "3"}),
    # the default energy is prune.e_cut, echoed as resolved
    (["scaling", "--dims", "1", "--samples", "2000"],
     {"scaling.energy": "8", "scaling.dims": "1"}),
], ids=["solve", "sweep", "efficiency", "scaling", "scaling-default"])
def test_meta_echoes_the_command_arguments(tmp_path, argv, echoed):
    # e_cut below the well depth 12, where the scaling shell is unbounded
    cfg = _write(tmp_path, MORSE_CFG.replace("e_cut = 12", "e_cut = 8"))
    out = tmp_path / "out"
    assert cli.main([argv[0], "--config", cfg, "--out", str(out), "--quiet",
                     *argv[1:]]) == 0
    meta = dict(line.split(" = ", 1)
                for line in (out / "meta.txt").read_text().splitlines())
    assert {key: meta.get(key) for key in echoed} == echoed
    assert "scaling.seed" not in meta


def test_17_digit_float_format():
    assert cli._g(1.0 / 3.0) == "0.33333333333333331"
    assert float(cli._g(np.pi)) == np.pi


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_deterministic_csv(tmp_path):
    cfg = _write(tmp_path, HARMONIC_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["solve", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", out2, "--quiet"]) == 0
    with open(os.path.join(out1, "eigenvalues.csv"), "rb") as fh:
        blob1 = fh.read()
    with open(os.path.join(out2, "eigenvalues.csv"), "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2
    header, rows = cli.read_csv(os.path.join(out1, "eigenvalues.csv"))
    assert header == ["index", "energy"]
    energies = np.array([float(r["energy"]) for r in rows])
    # the periodized lattice spans the grid space: energies match the
    # direct grid diagonalization on the same box
    grid = pg.Grid1D(-4.6999280149331257, 10.026513098524001, 16)
    ref = pg.solve_fgh((grid,), pg.harmonic()).energies
    np.testing.assert_allclose(energies, ref, rtol=1e-9, atol=1e-11)


def test_solve_bvn_writes_cells_and_meta(tmp_path):
    cfg = _write(tmp_path, MORSE_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = cli.read_csv(os.path.join(out, "cells.csv"))
    assert header == ["x", "p", "h_cl", "kept"]
    assert len(rows) == 100
    kept = sum(int(r["kept"]) for r in rows)
    assert 0 < kept < 100
    meta = dict(line.split(" = ", 1) for line in
                open(os.path.join(out, "meta.txt")).read().splitlines())
    assert meta["command"] == "solve"
    assert meta["potential.kind"] == "morse"
    assert int(meta["n_kept"]) == kept
    assert int(meta["n_cells"]) == 100
    assert float(meta["cond_s"]) > 1.0


@pytest.mark.parametrize("basis,n_levels", [("fgh", 100), ("pvn", 100),
                                            ("bvn", 44)])
def test_n_states_above_the_basis_size_truncates(tmp_path, basis, n_levels):
    # every basis writes its lowest n_states levels, or all it has
    text = MORSE_CFG.replace("basis = bvn", f"basis = {basis}\nn_states = 200")
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", _write(tmp_path, text), "--out",
                     str(out), "--quiet"]) == 0
    _, rows = cli.read_csv(str(out / "eigenvalues.csv"))
    assert len(rows) == n_levels
    assert f"n_levels = {n_levels}\n" in (out / "meta.txt").read_text()


def test_solve_prints_written_paths(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_CFG)
    out = str(tmp_path / "loud")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("wrote ") and "eigenvalues.csv" in line
               for line in lines)
    assert any("meta.txt" in line for line in lines)


def test_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["solve", "--config", missing]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_long_running_gate(tmp_path, capsys):
    text = """\
[potential]
kind = triangle2d
mass = 96

[grid]
x_min = -10
length = 20
n = 104

[solver]
basis = fgh
n_states = 4

[output]
outdir = out
"""
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "big")
    assert cli.main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert "--long-running" in capsys.readouterr().err


def test_large_2d_bvn_needs_no_long_running(tmp_path):
    # 72 x 72 = 5184 points is above the gate, which holds only 2-d fgh
    text = """\
[potential]
kind = triangle2d
mass = 96

[grid]
x_min = -8
length = 16
n = 72

[lattice]
nx = 8

[prune]
e_cut = 0.15

[solver]
basis = bvn
n_states = 5

[output]
outdir = out
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "big"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    meta = (out / "meta.txt").read_text()
    assert "n_cells = 5184" in meta and "n_levels = 5" in meta


TRIANGLE_CFG = """\
[potential]
kind = triangle2d
mass = 30

[grid]
x_min = -6
length = 12
n = 16

[lattice]
nx = 4

[prune]
e_cut = 0.3
auto_scale = 1.5

[solver]
basis = bvn

[output]
outdir = out
"""


@pytest.mark.parametrize("kind,n_levels", [("triangle2d", 256),
                                            ("harmonic", 16)])
def test_potential_kind_sets_the_grid_dimension(tmp_path, kind, n_levels):
    # one [grid] n: a 2-d kind solves on the 16 x 16 grid, a 1-d kind on 16
    text = TRIANGLE_CFG.replace("kind = triangle2d", f"kind = {kind}")
    cfg = _write(tmp_path, text.replace("basis = bvn", "basis = fgh"))
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    assert f"n_levels = {n_levels}\n" in (out / "meta.txt").read_text()


def test_2d_pvn_solves_every_cell(tmp_path):
    # pvn is the bvn projection with (G, S) per axis, in 2-d as in 1-d
    cfg = _write(tmp_path, TRIANGLE_CFG.replace("basis = bvn", "basis = pvn"))
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    _, rows = cli.read_csv(str(out / "eigenvalues.csv"))
    grid = pg.Grid1D(-6.0, 12.0, 16)
    fgh = pg.solve_fgh((grid, grid), pg.triangle2d(mass=30.0)).energies
    np.testing.assert_allclose([float(r["energy"]) for r in rows], fgh,
                               rtol=0, atol=1e-10)


def test_2d_bvn_without_prune_solves_every_cell(tmp_path):
    # as in 1-d, no [prune] section keeps the whole basis: the grid's levels
    cfg = _write(tmp_path, TRIANGLE_CFG.replace(
        "[prune]\ne_cut = 0.3\nauto_scale = 1.5\n", ""))
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    _, rows = cli.read_csv(str(out / "eigenvalues.csv"))
    grid = pg.Grid1D(-6.0, 12.0, 16)
    fgh = pg.solve_fgh((grid, grid), pg.triangle2d(mass=30.0)).energies
    np.testing.assert_allclose([float(r["energy"]) for r in rows], fgh,
                               rtol=0, atol=1e-10)
    assert not (out / "cells.csv").exists()


COULOMB_CFG = """\
[potential]
kind = coulomb1d

[grid]
x_min = -10.3
length = 20
n = 64

[prune]
e_cut = -0.2
"""


@pytest.mark.parametrize("text,argv,needle", [
    (HARMONIC_CFG.replace("[lattice]\nnx = 4\n", ""), ["solve"],
     "needs a [lattice] section"),
    # the library's own checks of the grid and the lattice, keys named
    (HARMONIC_CFG.replace("nx = 4", "nx = 3"), ["solve"],
     "lattice.nx = 3: n_x = 3 is not a positive divisor of the grid size 16"),
    # the lattice's momentum count is grid.n / nx, not a setting
    (HARMONIC_CFG.replace("nx = 4", "nx = 4\nnp = 4"), ["solve"],
     "line 14: unknown key 'np' in [lattice]"),
    (HARMONIC_CFG.replace("n = 16", "n = 15"), ["solve"],
     "grid.n = 15, grid.length = 10.026513098524001: N must be a positive "
     "even integer"),
    (HARMONIC_CFG.replace("n = 16", "n = 0"), ["solve"], "grid.n = 0"),
    (TRIANGLE_CFG.replace("n = 16", "n = 72").replace("basis = bvn",
                                                      "basis = fgh"),
     ["solve", "--long-running"],
     "solver.n_states: required by the matrix-free fgh solve of 5184 points"),
    # Lanczos needs fewer states than grid points; refused before it starts
    (TRIANGLE_CFG.replace("n = 16", "n = 72").replace(
        "basis = bvn", "basis = fgh\nn_states = 6000"),
     ["solve", "--long-running"],
     "solver.n_states = 6000: must be below the 5184 points of the "
     "matrix-free fgh solve"),
    (TRIANGLE_CFG.replace("basis = bvn", "basis = vn"), ["solve"],
     "supports only 1-d grids"),
    (HARMONIC_CFG, ["sweep", "--sizes", "16", "--methods", "fgh,dvr"],
     "sweep method 'dvr' not supported"),
    (HARMONIC_CFG, ["sweep", "--sizes", "0"], "--sizes must be positive"),
    (HARMONIC_CFG, ["sweep", "--sizes", "4", "--index", "7"],
     "no size in [4] has it"),
    # MORSE_CFG has prune.e_cut = depth = 12, the default shell energy
    (MORSE_CFG, ["scaling"], "--energy (default prune.e_cut): energy 12.0"),
    (MORSE_CFG, ["scaling", "--energy", "13"], "well depth 12"),
    # a potential kind the command cannot handle
    (TRIANGLE_CFG, ["scaling"], "turning points are defined per 1-D"),
    (COULOMB_CFG, ["sweep"], "no analytic levels for kind 'coulomb1d'"),
    (COULOMB_CFG, ["efficiency"], "no analytic levels for kind 'coulomb1d'"),
    # only the keys the command reads: efficiency and a Morse sweep take
    # the [grid] box but pick their own point counts
    (MORSE_CFG.replace("length = 21.7", "length = -2"), ["efficiency"],
     "grid.length = -2: box length L must be positive"),
    (MORSE_CFG.replace("length = 21.7", "length = -2"),
     ["sweep", "--sizes", "16"],
     "grid.length = -2: box length L must be positive"),
    (MORSE_CFG.replace("e_cut = 12", "e_cut = 0.1"), ["efficiency"],
     "prune.e_cut = 0.10000000000000001: no analytic level lies below it "
     "at hbar = 1"),
    (MORSE_CFG.replace("basis = bvn", "basis = vn"), ["solve"],
     "implemented for the harmonic potential only"),
    (COULOMB_CFG, ["scaling"],
     "error: momentum extent diverges for kind 'coulomb1d'"),
    (MORSE_CFG, ["scaling", "--energy", "8", "--dims", ","], "--dims"),
    (MORSE_CFG, ["scaling", "--energy", "8", "--dims", "0"], "--dims"),
    (MORSE_CFG, ["scaling", "--energy", "8", "--samples", "0"], "--samples"),
    # no Monte Carlo hit in the 12-d shell; the box is not a CLI option
    (MORSE_CFG, ["scaling", "--energy", "11.25", "--dims", "12", "--samples",
                 "10"], "--dims [12]: no sample fell inside the energy shell; "
     "raise --samples or lower --dims"),
    (MORSE_CFG, ["efficiency", "--hbars", ","], "--hbars"),
    (MORSE_CFG, ["efficiency", "--hbars", "0"], "--hbars"),
    # a non-finite energy, or one at or below the well bottom, has no orbit
    (HARMONIC_CFG, ["scaling", "--energy", "nan"],
     "--energy (default prune.e_cut): energy nan is not finite"),
    (HARMONIC_CFG, ["scaling", "--energy", "inf"],
     "--energy (default prune.e_cut): energy inf is not finite"),
    (HARMONIC_CFG, ["scaling", "--energy", "0"],
     "--energy (default prune.e_cut): harmonic orbit needs energy > 0"),
    (MORSE_CFG, ["scaling", "--energy", "-1"],
     "--energy (default prune.e_cut): morse orbit needs energy > 0"),
    # both Morse turning points round to 0, -log(1 +- 1e-150)/beta
    (MORSE_CFG, ["scaling", "--energy", "1e-300"],
     "--energy (default prune.e_cut): energy 1e-300 is too close to the "
     "well bottom"),
    # numpy's generator would reject a negative seed with no option named
    (MORSE_CFG, ["scaling", "--energy", "8", "--seed", "-1"],
     "--seed: must be >= 0, got -1"),
    (MORSE_CFG.replace("seed = 0", "seed = -3"), ["scaling", "--energy", "8"],
     "output.seed: must be >= 0, got -3"),
    # values the library rejects, named by their keys
    (MORSE_CFG.replace("hbar = 1", "hbar = -1"), ["solve"],
     "potential.hbar = -1, potential.depth = 12, potential.beta = 0.5, "
     "potential.mass = 6: hbar must be positive"),
    (MORSE_CFG.replace("mass = 6", "mass = -1"), ["efficiency"],
     "potential.mass = -1: parameter 'mass' must be positive"),
    (MORSE_CFG.replace("alpha = 0.5", "alpha = -1"), ["solve"],
     "lattice.nx = 10, lattice.alpha = -1: alpha must be positive"),
    (MORSE_CFG.replace("auto_scale = 1.0", "auto_scale = -1"), ["solve"],
     "prune.auto_scale: must be >= 0, got -1"),
    # nan fails both bounds checks and used to run the sharp cut silently
    (MORSE_CFG.replace("auto_scale = 1.0", "auto_scale = nan"), ["solve"],
     "prune.auto_scale: not a finite number: 'nan'"),
])
def test_config_errors_exit_2(tmp_path, capsys, text, argv, needle):
    cfg = _write(tmp_path, text)
    code = cli.main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet", *argv[1:]])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("text", [MORSE_CFG, TRIANGLE_CFG], ids=["1d", "2d"])
def test_cutoff_keeping_no_cell_exits_2(tmp_path, capsys, text):
    cfg = _write(tmp_path, re.sub(r"e_cut = \S+", "e_cut = -100", text))
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "prune.e_cut" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_convergence_orders_methods(tmp_path):
    cfg = _write(tmp_path, HARMONIC_CFG)
    out = str(tmp_path / "sweep")
    code = cli.main(["sweep", "--config", cfg, "--out", out, "--quiet",
                     "--sizes", "16,20,24,28,32,36,64", "--index", "7",
                     "--methods", "fgh,pvn,vn"])
    assert code == 0
    header, rows = cli.read_csv(os.path.join(out, "convergence.csv"))
    assert header == ["method", "basis_size", "energy", "abs_error"]
    by = {}
    for r in rows:
        by.setdefault(r["method"], []).append(
            (int(r["basis_size"]), float(r["abs_error"])))
    fgh = [e for _, e in sorted(by["fgh"])]
    pvn = [e for _, e in sorted(by["pvn"])]
    vn = [e for _, e in sorted(by["vn"])]
    # systematic convergence up to N = 32, then a roundoff floor (1e-13
    # is a few ulps of 7.5) below which the order of the errors is noise
    assert all(a > b for a, b in zip(fgh[:4], fgh[1:5]))
    assert fgh[4] > 1e-13 >= max(fgh[5:])
    np.testing.assert_allclose(pvn, fgh, atol=1e-9)  # same span
    # the naive continuous lattice stalls orders of magnitude higher
    assert vn[-1] > 100 * fgh[-1]


@pytest.mark.parametrize("index", ["40", "-1"])
def test_sweep_index_outside_table(tmp_path, capsys, index):
    cfg = _write(tmp_path, MORSE_CFG)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--quiet", "--sizes", "36", "--index", index]) == 2
    assert "index" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_scan_csv(tmp_path):
    cfg = _write(tmp_path, MORSE_CFG)
    out = str(tmp_path / "eff")
    code = cli.main(["efficiency", "--config", cfg, "--out", out, "--quiet",
                     "--hbars", "1.0,0.5"])
    assert code == 0
    header, rows = cli.read_csv(os.path.join(out, "efficiency.csv"))
    assert header == ["hbar", "method", "basis_size", "n_converged",
                      "ratio", "status"]
    assert all(r["status"] == "ok" for r in rows)
    ratio = {(r["method"], float(r["hbar"])): float(r["ratio"]) for r in rows}
    assert ratio[("bvn", 0.5)] < ratio[("bvn", 1.0)]
    for hb in (1.0, 0.5):
        assert ratio[("fgh", hb)] >= ratio[("bvn", hb)]


def test_efficiency_grid_budget_keeps_finished_points(tmp_path, monkeypatch):
    # hbar=1 converges on 94 points, hbar=0.5 needs 174: above the budget
    monkeypatch.setattr("phasegrid.solver.N_BUDGET", 128)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "morse_bvn.cfg")
    out = str(tmp_path / "eff")
    assert cli.main(["efficiency", "--config", cfg, "--out", out, "--quiet",
                     "--hbars", "1,0.5"]) == 0
    _, rows = cli.read_csv(os.path.join(out, "efficiency.csv"))
    got = [(r["hbar"], r["method"], r["basis_size"], r["n_converged"],
            r["ratio"], r["status"]) for r in rows]
    assert got[:2] == [("1", "fgh", "94", "24", "3.9166666666666665", "ok"),
                       ("1", "bvn", "44", "24", "1.8333333333333333", "ok")]
    assert got[2:] == [("0.5", m, "", "", "", "budget_exceeded")
                       for m in ("fgh", "bvn")]
    with open(os.path.join(out, "meta.txt")) as fh:
        assert any(line.startswith("budget_error") and "128" in line
                   for line in fh)


def test_efficiency_margin_budget_keeps_finished_points(tmp_path, monkeypatch):
    # a selector that keeps no cell never passes: the margin scale doubles
    # to its limit 16, and the finished fgh point of hbar=1 is kept
    scales = []

    def select_cells(lats, spec, e_cut, auto_scale=1.0):
        scales.append(auto_scale)
        mask = pg.select_cells(lats, spec, e_cut, auto_scale)
        return pg.PruneMask(np.zeros(mask.size, bool))

    monkeypatch.setattr("phasegrid.solver.select_cells", select_cells)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "morse_bvn.cfg")
    out = str(tmp_path / "eff")
    assert cli.main(["efficiency", "--config", cfg, "--out", out, "--quiet",
                     "--hbars", "1,0.5"]) == 0
    assert scales == [1, 2, 4, 8, 16]
    _, rows = cli.read_csv(os.path.join(out, "efficiency.csv"))
    got = [(r["hbar"], r["method"], r["basis_size"], r["n_converged"],
            r["ratio"], r["status"]) for r in rows]
    assert got == [("1", "fgh", "94", "24", "3.9166666666666665", "ok")] + [
        (hb, m, "", "", "", "budget_exceeded")
        for hb, m in (("1", "bvn"), ("0.5", "fgh"), ("0.5", "bvn"))]
    with open(os.path.join(out, "meta.txt")) as fh:
        assert "budget_error = margin search failed at hbar=1.0\n" in list(fh)


def test_efficiency_reads_no_grid_n(tmp_path):
    # the scan sizes its own grids, so an odd grid.n is no error there
    cfg = _write(tmp_path, MORSE_CFG.replace("n = 100", "n = 101"))
    assert cli.main(["efficiency", "--config", cfg, "--out",
                     str(tmp_path / "eff"), "--quiet", "--hbars", "1"]) == 0


def test_efficiency_on_a_harmonic_config(tmp_path):
    text = HARMONIC_CFG.replace("x_min = -4.6999280149331257", "x_min = -6")
    text = text.replace("length = 10.026513098524001", "length = 12")
    cfg = _write(tmp_path, text + "\n[prune]\ne_cut = 5\n")
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--config", cfg, "--out", str(out),
                     "--quiet", "--hbars", "1,0.5"]) == 0
    _, rows = cli.read_csv(str(out / "efficiency.csv"))
    # levels hbar*(n + 1/2) below 5: 5 at hbar = 1, 10 at hbar = 1/2
    assert [(r["hbar"], r["method"], r["basis_size"], r["n_converged"],
             r["status"]) for r in rows] == [
        ("1", "fgh", "16", "5", "ok"), ("1", "bvn", "16", "5", "ok"),
        ("0.5", "fgh", "28", "10", "ok"), ("0.5", "bvn", "20", "10", "ok")]


def test_efficiency_needs_prune(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_CFG)
    assert cli.main(["efficiency", "--config", cfg, "--out",
                     str(tmp_path / "e"), "--quiet"]) == 2
    assert "prune" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scaling


def test_scaling_table(tmp_path):
    cfg = _write(tmp_path, MORSE_CFG)
    out = str(tmp_path / "scal")
    code = cli.main(["scaling", "--config", cfg, "--out", out, "--quiet",
                     "--dims", "1,2", "--energy", "8.0",
                     "--samples", "20000", "--seed", "3"])
    assert code == 0
    header, rows = cli.read_csv(os.path.join(out, "scaling.csv"))
    assert header == ["D", "V_mc", "V_mc_stderr", "V_semiclassical",
                      "V_exponential_ref", "G_exact", "G_limit_gD",
                      "G_limit_Dg", "box_ratio"]
    assert [r["D"] for r in rows] == ["1", "2"]
    v1 = float(rows[0]["V_exponential_ref"])
    assert float(rows[1]["V_exponential_ref"]) == pytest.approx(v1**2)
    assert float(rows[1]["V_semiclassical"]) == pytest.approx(v1**2 / 2)
    # rerun with the same seed is byte-identical
    out2 = str(tmp_path / "scal2")
    cli.main(["scaling", "--config", cfg, "--out", out2, "--quiet",
              "--dims", "1,2", "--energy", "8.0",
              "--samples", "20000", "--seed", "3"])
    with open(os.path.join(out, "scaling.csv"), "rb") as fh:
        one = fh.read()
    with open(os.path.join(out2, "scaling.csv"), "rb") as fh:
        two = fh.read()
    assert one == two


def test_scaling_needs_energy(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_CFG)
    assert cli.main(["scaling", "--config", cfg, "--out",
                     str(tmp_path / "s"), "--quiet"]) == 2
    assert "energy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plot


def _run_solve_and_plot(tmp_path, kind):
    cfg = _write(tmp_path, MORSE_CFG)
    out = str(tmp_path / "run")
    if kind == "cells":
        cli.main(["solve", "--config", cfg, "--out", out, "--quiet"])
        return os.path.join(out, "cells.csv")
    if kind == "convergence":
        cli.main(["sweep", "--config", cfg, "--out", out, "--quiet",
                  "--sizes", "36,64", "--index", "3",
                  "--methods", "fgh,pvn"])
        return os.path.join(out, "convergence.csv")
    raise AssertionError(kind)


def test_plot_cells_svg(tmp_path):
    csv_path = _run_solve_and_plot(tmp_path, "cells")
    svg_path = str(tmp_path / "cells.svg")
    assert cli.main(["plot", csv_path, "--kind", "cells", "--out", svg_path,
                     "--quiet"]) == 0
    text = open(svg_path).read()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    rects = text.count("<rect")
    assert rects >= 100  # one per lattice cell plus the frame
    filled = text.count('fill="magenta"')
    _, rows = cli.read_csv(csv_path)
    assert filled == sum(int(r["kept"]) for r in rows)


def test_plot_convergence_svg_is_byte_stable(tmp_path):
    # like every CSV, the SVG of one input is the same bytes on each run
    csv_path = _run_solve_and_plot(tmp_path, "convergence")
    a, b = (str(tmp_path / name) for name in ("a.svg", "b.svg"))
    for target in (a, b):
        assert cli.main(["plot", csv_path, "--kind", "convergence",
                         "--out", target, "--quiet"]) == 0
    text = open(a).read()
    assert open(a, "rb").read() == open(b, "rb").read()
    assert "generated" not in text
    assert text.count("<polyline") == 2  # one per method
    ET.fromstring(text)


def test_plot_rejects_wrong_schema(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,basis_size,energy\nfgh,16,7.5\n")
    code = cli.main(["plot", str(bad), "--kind", "convergence",
                     "--out", str(tmp_path / "bad.svg"), "--quiet"])
    assert code == 2
    assert "abs_error" in capsys.readouterr().err
    empty = tmp_path / "empty.csv"
    empty.write_text("method,basis_size,abs_error\n")
    assert cli.main(["plot", str(empty), "--kind", "convergence",
                     "--out", str(tmp_path / "e.svg"), "--quiet"]) == 2
    assert not os.path.exists(str(tmp_path / "e.svg"))


def test_plot_scaling_and_efficiency_kinds(tmp_path):
    cfg = _write(tmp_path, MORSE_CFG)
    out = str(tmp_path / "k")
    cli.main(["scaling", "--config", cfg, "--out", out, "--quiet",
              "--dims", "1,2,3", "--energy", "8.0", "--samples", "5000"])
    svg = str(tmp_path / "scaling.svg")
    assert cli.main(["plot", os.path.join(out, "scaling.csv"),
                     "--kind", "scaling", "--out", svg, "--quiet"]) == 0
    assert open(svg).read().count("<polyline") == 3
    cli.main(["efficiency", "--config", cfg, "--out", out, "--quiet",
              "--hbars", "1.0,0.5"])
    svg2 = str(tmp_path / "eff.svg")
    assert cli.main(["plot", os.path.join(out, "efficiency.csv"),
                     "--kind", "efficiency", "--out", svg2, "--quiet"]) == 0
    ET.fromstring(open(svg2).read())
