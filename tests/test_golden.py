"""Shipped configs reproduce the committed reference outputs.

Each directory under `golden/` is named `<command>-<config>` and holds CSVs
that `phasegrid <command> --config configs/<config>.cfg` wrote before the
last change to the program. A golden file may keep only some columns of the
output (the 2-d `cells.csv` keeps `kept`); those columns are compared:
energies within 1e-12 absolute, `kept` exactly, other floats within 1e-12
relative, so that an ulp from a vectorized `exp` on another CPU passes.
An optional `args.txt` holds further command-line arguments for the run
(`scaling` needs `--energy`); it is not an output and is not compared.
Regenerate a reference only for a change that is meant to alter outputs.
"""

import math
import os

import pytest

from phasegrid import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
RUNS = sorted(os.listdir(GOLDEN))
ENERGY_COLUMNS = ("energy", "abs_error")
ARGS = "args.txt"


def _same(column: str, want: str, got: str) -> bool:
    if column == "kept" or want == got:
        return want == got
    try:
        a, b = float(want), float(got)
    except ValueError:
        return False
    if column in ENERGY_COLUMNS:
        return abs(a - b) <= 1e-12
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("run", RUNS)
def test_shipped_config_matches_golden(tmp_path, run):
    command, config = run.split("-", 1)
    out = tmp_path / "out"
    names = sorted(os.listdir(os.path.join(GOLDEN, run)))
    extra = []
    if ARGS in names:
        names.remove(ARGS)
        with open(os.path.join(GOLDEN, run, ARGS)) as fh:
            extra = fh.read().split()
    assert cli.main([command, "--config",
                     os.path.join(ROOT, "configs", f"{config}.cfg"),
                     "--out", str(out), "--quiet", *extra]) == 0
    for name in names:
        header, want = cli.read_csv(os.path.join(GOLDEN, run, name))
        got_header, got = cli.read_csv(str(out / name))
        assert set(header) <= set(got_header), name
        assert len(got) == len(want), name
        for i, (w, g) in enumerate(zip(want, got)):
            bad = [c for c in header if not _same(c, w[c], g[c])]
            assert not bad, f"{name} row {i}: {[(c, w[c], g[c]) for c in bad]}"
