"""Guards for the tooling that wraps the package from outside."""

import ast
import importlib
import json
import math
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys
import types
import warnings

import pytest

from phasegrid.semiclassics import MC_BLOCK

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
MAKE_REFS = ROOT / "perfbench" / "make_refs.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py absent")
def test_benchmark_tracer_names_resolve():
    # run_path compiles the file in memory: nothing is written next to it
    traced = runpy.run_path(str(TRACER))["TRACED"]
    missing = []
    for mod_name, names in traced.items():
        module = importlib.import_module(f"phasegrid.{mod_name}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"phasegrid.{mod_name}.{dotted}")
    assert not missing, f"names the benchmark tracer wraps are gone: {missing}"


# tracer-only alias -> the name it stands for, in the same module
TRACER_ALIASES = {("solver", "assemble_pvn"): "assemble_bvn",
                  ("solver", "assemble_bvn_2d"): "assemble_bvn",
                  ("fourier_grid", "FghOperator2D"): "FghOperator"}


@pytest.mark.parametrize("mod_name,alias", list(TRACER_ALIASES),
                         ids=[a for _, a in TRACER_ALIASES])
def test_tracer_aliases_are_bare_names(mod_name, alias):
    # an alias kept only for the benchmark tracer is the same object, is not
    # exported and is read by no src module, so deleting it touches only
    # its own line
    import phasegrid
    module = importlib.import_module(f"phasegrid.{mod_name}")
    target = TRACER_ALIASES[mod_name, alias]
    assert getattr(module, alias) is getattr(module, target)
    assert alias not in phasegrid.__all__
    readers = []
    for path in sorted((ROOT / "src" / "phasegrid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == alias
                    and not isinstance(node.ctx, ast.Store)
                    or isinstance(node, ast.Attribute) and node.attr == alias
                    or isinstance(node, ast.alias) and node.name == alias):
                readers.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not readers, readers


@pytest.mark.skipif(not MAKE_REFS.exists(), reason="perfbench/make_refs.py absent")
def test_reference_script_config_reads_resolve():
    from phasegrid.cli import parse_config
    reads = re.findall(r'_config\("([^"]+)"\)((?:\.\w+)+)',
                       MAKE_REFS.read_text())
    assert reads
    for path, chain in reads:
        owner = parse_config((ROOT / path).read_text())
        for part in chain[1:].split("."):
            owner = getattr(owner, part)
        assert isinstance(owner, float), f"{path}{chain}"


def _python(code, cwd=None):
    """stdout of `python -c code` with src on the path; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_package_and_cli_import_load_no_scipy():
    assert _python("import sys, phasegrid; "
                   f"print({_SCIPY_LOADED}); import phasegrid.cli; "
                   f"print({_SCIPY_LOADED})") == "[]\n[]"


def test_scaling_runs_and_their_plot_load_no_scipy(tmp_path):
    # the scaling path is Monte Carlo and closed forms: numpy only
    out = tmp_path / "o"
    runs = [["scaling", "--config", "configs/morse_bvn.cfg", "--energy", "8",
             "--dims", "1,2", "--samples", "1000", "--out", str(out / "m"),
             "--quiet"],
            ["scaling", "--config", "configs/harmonic_pvn.cfg", "--energy",
             "3", "--dims", "1,2", "--samples", "1000", "--out",
             str(out / "h"), "--quiet"],
            ["plot", str(out / "m" / "scaling.csv"), "--kind", "scaling",
             "--out", str(out / "m.svg"), "--quiet"]]
    code = ("import sys; from phasegrid import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            f"    print({_SCIPY_LOADED})")
    assert _python(code, cwd=ROOT).splitlines() == ["[]"] * 3
    assert (out / "m.svg").exists()


def test_dense_solves_load_no_scipy(tmp_path):
    # every dense eigensolve is numpy.linalg; only the matrix-free Lanczos
    # solve of a large 2-d fgh grid imports scipy
    runs = [["solve", "--config", f"configs/{name}.cfg"]
            for name in ("harmonic_pvn", "morse_bvn", "triangle_desk")]
    runs += [["sweep", "--config", "configs/harmonic_pvn.cfg"],
             ["efficiency", "--config", "configs/morse_bvn.cfg", "--hbars",
              "1,0.5"]]
    runs = [argv + ["--out", str(tmp_path / str(i)), "--quiet"]
            for i, argv in enumerate(runs)]
    code = ("import sys; from phasegrid import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            f"    print({_SCIPY_LOADED})")
    assert _python(code, cwd=ROOT).splitlines() == ["[]"] * len(runs)


_MA_LOADED = ("sorted(m for m in sys.modules "
              "if m.split('.')[:2] == ['numpy', 'ma'])")


def test_bvn_solve_and_efficiency_load_no_numpy_ma(tmp_path):
    # np.unique with no return_* flag imports numpy.ma (about 15 ms), so
    # the pruned assembly walks its kept cells without it
    runs = [["solve", "--config", "configs/triangle_desk.cfg"],
            ["efficiency", "--config", "configs/morse_bvn.cfg", "--hbars",
             "1"]]
    runs = [argv + ["--out", str(tmp_path / str(i)), "--quiet"]
            for i, argv in enumerate(runs)]
    code = ("import sys; from phasegrid import cli\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            f"    print({_MA_LOADED})")
    assert _python(code, cwd=ROOT).splitlines() == ["[]"] * len(runs)


def test_no_module_level_scipy_import():
    # scipy is imported inside the functions that need it, so importing
    # phasegrid (and every command that never solves) stays numpy-only
    def top_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                yield child
                yield from top_level(child)

    found = []
    for path in sorted((ROOT / "src" / "phasegrid").glob("*.py")):
        for node in top_level(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, found


def test_one_module_owns_the_metric_rule():
    # only vn_basis factors a metric or sets, reads or imports its thresholds,
    # so the overlap inverse and the pencil eigensolve cannot drift apart
    rule = ("COND_SWITCH", "RCOND", "INV_BLOCK")
    found = []
    for path in sorted((ROOT / "src" / "phasegrid").glob("*.py")):
        if path.name == "vn_basis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in rule or name == "cholesky"]
    assert not found, found


def test_solver_projects_no_grid_operator():
    # the pencils read each axis's kinetic matrix as K = B^T T B, projected
    # once by vn_basis.project: the solver neither builds a grid operator
    # nor reads one's per-axis kinetic matrices
    found = []
    path = ROOT / "src" / "phasegrid" / "solver.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"solver.py:{node.lineno} {name}" for name in names
                  if name in ("hamiltonian_fgh", "FghOperator", "ts")]
    assert not found, found


def test_pencil_routines_take_their_callers_buffer_and_real_factors():
    # the entry points (solve_generalized, build_basis, project) make the
    # one workspace buffer and every routine below them takes it, with no
    # fallback of its own. Every module is real: complex values (a conj
    # call, an imaginary literal, a .real or .imag read) live only in the
    # Gaussians' closed forms, continuous_vn_matrices; nothing promotes a
    # dtype, the buffer routines take none, S = G^T G has no helper of its
    # own and the complex Gaussians are the tests' oracle, not a src routine
    import phasegrid
    found = []
    for path in sorted((ROOT / "src" / "phasegrid").glob("*.py")):
        name, tree = path.name, ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                callee = node.func if isinstance(node, ast.Call) else None
                called = getattr(callee, "attr", getattr(callee, "id", None))
                if called == "result_type":
                    found.append(f"{name}:{node.lineno} calls result_type")
                imaginary = (isinstance(node, ast.Constant)
                             and isinstance(node.value, complex))
                part = (isinstance(node, ast.Attribute)
                        and node.attr in ("real", "imag")
                        and isinstance(node.ctx, ast.Load))
                if ((called == "conj" or imaginary or part)
                        and owner != "continuous_vn_matrices"):
                    found.append(f"{name}:{node.lineno} complex in {owner}")
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default in zip(args.kwonlyargs,
                                                       args.kw_defaults)
                          if default is not None]
            found += [f"{name}:{func.lineno} work has a default"
                      for arg in defaulted if arg.arg == "work"]
            func_name = getattr(func, "name", None)
            if func_name in ("carve", "workspace"):
                found += [f"{name}:{func.lineno} {func_name} takes a dtype"
                          for arg in positional + args.kwonlyargs
                          if arg.arg == "dtype"]
            if func_name in ("build_overlap", "build_G"):
                found.append(f"{name}:{func.lineno} defines {func_name}")
    found += [f"phasegrid exports {name}" for name in ("build_overlap",
              "build_G") if name in phasegrid.__all__]
    assert not found, found


def test_no_module_densifies_through_kronecker_products():
    # a grid operator is densified by writing each axis's matrix into one
    # array (FghOperator.to_dense), never by Kronecker products with
    # identities, which hold several grid-sized arrays at once
    found = []
    for path in sorted((ROOT / "src" / "phasegrid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "kron"
                    or isinstance(func, ast.Name) and func.id == "kron"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_one_module_owns_the_threads():
    # only semiclassics runs threads, on plain threading.Threads beside the
    # calling one, and importing the CLI does not load it; no module loads
    # concurrent.futures (a scaling run included, below)
    found = []
    for path in sorted((ROOT / "src" / "phasegrid").glob("*.py")):
        if path.name == "semiclassics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("threading", "concurrent")]
    assert not found, found
    assert _python("import sys, phasegrid.cli; "
                   "print('concurrent.futures' in sys.modules)") == "False"


_SOLVER_STACK = ("solver", "vn_basis", "fourier_grid", "pruner")
_LOADED = ("*sorted(m.split('.', 1)[1] for m in sys.modules "
           "if m.startswith('phasegrid.'))")


def _loaded(code, cwd=ROOT):
    """Words printed by `code`, then the phasegrid modules it loaded."""
    return _python(f"import sys\n{code}\nprint({_LOADED})", cwd).split()


def test_cli_import_and_config_parse_load_no_command_modules():
    # each command imports its own modules: parsing a config needs none
    code = ("from phasegrid import cli\n"
            "for path in sorted(__import__('glob').glob('configs/*.cfg')):\n"
            "    cli.parse_config(open(path).read())")
    loaded = _loaded(code)
    assert "potentials" in loaded
    assert not set(loaded) & {*_SOLVER_STACK, "semiclassics"}, loaded


def test_scaling_run_loads_no_solver_stack_or_executor(tmp_path):
    argv = ["scaling", "--config", "configs/morse_bvn.cfg", "--energy", "8",
            "--dims", "1,2", "--samples", "40000", "--out", str(tmp_path),
            "--quiet"]
    code = (f"from phasegrid import cli\nassert cli.main({argv!r}) == 0\n"
            "print('concurrent.futures' in sys.modules)")
    futures, *loaded = _loaded(code)
    assert futures == "False"
    assert "semiclassics" in loaded
    assert not set(loaded) & set(_SOLVER_STACK), loaded


def test_solve_run_loads_no_monte_carlo(tmp_path):
    argv = ["solve", "--config", "configs/morse_bvn.cfg", "--out",
            str(tmp_path), "--quiet"]
    loaded = _loaded(f"from phasegrid import cli\n"
                     f"assert cli.main({argv!r}) == 0")
    assert set(_SOLVER_STACK) <= set(loaded)
    assert not set(loaded) & {"semiclassics", "_kernels"}, loaded


def test_public_names_resolve_to_their_modules():
    # the package's names are resolved on first read, each from the module
    # that defines it; a submodule's own name is the module
    import phasegrid
    assert phasegrid.__all__ and set(phasegrid.__all__) <= set(dir(phasegrid))
    for name in phasegrid.__all__:
        obj = getattr(phasegrid, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"phasegrid.{name}"]
        else:
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("phasegrid."), name
            assert getattr(home, name) is obj, name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        phasegrid.nonexistent
    # a submodule imported on its own binds the package's names as it lands,
    # so patching it afterwards leaves them alone, as eager imports did
    assert _python("import phasegrid.solver as s; real = s.Pipeline; "
                   "s.Pipeline = None; import phasegrid; "
                   "print(phasegrid.Pipeline is real)") == "True"


def test_orbit_areas_leave_out_scipy_integrate():
    # every 1-d kind has closed-form turning points and orbit area, so no
    # scipy module is loaded at all
    code = ("import sys, phasegrid as pg; "
            "pg.phase_area_1d(pg.harmonic(), 2.0); "
            "pg.phase_area_1d(pg.morse(), 8.0); "
            "pg.phase_area_1d(pg.coulomb1d(), -0.5); "
            f"print({_SCIPY_LOADED})")
    assert _python(code) == "[]"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py absent")
def test_pseudo_inverse_warning_keeps_the_tracer_text():
    # the benchmark counts vn_basis.pseudo_inverse_warnings by this text
    import phasegrid as pg
    text = runpy.run_path(str(TRACER))["PSEUDO_INVERSE_TEXT"]
    # needle-thin Gaussians: the four momenta of one x center sample to
    # nearly the same grid vector, so S has rank ~4 of 16
    grid = pg.Grid1D(-4.0, 8.0, 16)
    lat = pg.VnLattice(grid, 4, alpha=100.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pg.build_basis(lat, "bvn")
    assert any(text in str(w.message) for w in caught), caught


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
"""


def _traced_layers(tmp_path, cli_argv):
    """Run one CLI operation under the benchmark tracer in a subprocess."""
    root = TRACER.parents[1]
    op_json = tmp_path / "op.json"
    # no bytecode is written next to the tracer or the package
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "--op-json",
         str(op_json), "--trace", "--", *cli_argv, "--out",
         str(tmp_path / "out"), "--quiet"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(op_json.read_text())["layers"]


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py absent")
def test_traced_layers_see_the_pruned_2d_solve(tmp_path):
    cfg = tmp_path / "tri.cfg"
    cfg.write_text(TRIANGLE_CFG)
    layers = _traced_layers(tmp_path, ["solve", "--config", str(cfg)])
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / "out" / "meta.txt").read_text().splitlines())
    n_kept = int(meta["n_kept"])
    assert 0 < n_kept < int(meta["n_cells"])
    assert layers["vn_basis.build_basis_calls"] == 1  # one axis, twice
    assert layers["pruner.select_calls"] == 1
    assert layers["solver.eig_calls"] == 1
    assert layers["fourier_grid.apply_cols"] == 0  # assembly never applies H
    assert layers["solver.assemble_s"] > 0


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py absent")
def test_traced_layers_see_the_efficiency_scan(tmp_path):
    layers = _traced_layers(tmp_path, ["efficiency", "--config",
                                       "configs/morse_bvn.cfg",
                                       "--hbars", "1"])
    assert layers["solver.scan_probes"] > 0


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py absent")
def test_traced_layers_see_the_scaling_run(tmp_path):
    # the tracer reads n_samples and the kernel's arrays by position
    layers = _traced_layers(tmp_path, ["scaling", "--config",
                                       "configs/morse_bvn.cfg", "--energy",
                                       "8", "--dims", "1,2", "--samples",
                                       "20000"])
    assert layers["semiclassics.mc_samples"] == 40000
    # one kernel call per block of the main walk, for each of the two D
    assert layers["kernels.mc_hits_calls"] == 2 * math.ceil(20000 / MC_BLOCK)
    assert layers["kernels.mc_bytes_computed"] == 960000


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Python quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    from phasegrid import cli
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    commands = [shlex.split(line) for line in blocks[0].splitlines()
                if line.startswith("phasegrid ")]
    assert len(commands) == 5
    monkeypatch.chdir(ROOT)  # the block names configs/ relative to the root
    for argv in commands:
        argv = [str(tmp_path / arg[4:]) if arg.startswith("out/") else arg
                for arg in argv[1:]]
        assert cli.main(argv) == 0, " ".join(argv)
