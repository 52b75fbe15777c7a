"""Regenerate the committed references in perfbench/ref.

Run from the repository root: ``python3 perfbench/make_refs.py``. Only
regenerate when a change is meant to alter the outputs, and say so in the
change: the benchmark's correctness checks compare against these files.

- desk2d.json: the levels of configs/triangle_desk.cfg below e_cut, compared
  within ``tol``, and the kept/total cell counts.
- efficiency1d.csv: the efficiency.csv of the hbar in {1, 1/2, 1/4} scan,
  compared byte for byte.
- scaling_mc.json: G_exact per dimension (exact) and a V_mc from
  REF_SAMPLES samples, against which a run's V_mc must lie within four
  combined standard errors.
"""

import json
import os
import shutil
import subprocess
import sys

from run import WORK, WORKLOADS, _read_csv

sys.path.insert(0, os.path.abspath("src"))
from phasegrid.cli import parse_config  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REF_SAMPLES = 128_000_000
REF_SEED = 20120111


def _cli(args, out):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    subprocess.run([sys.executable, "-m", "phasegrid.cli", *args, "--out", out,
                    "--quiet"], env=env, check=True)


def _config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _save(name, text):
    with open(os.path.join(HERE, "ref", name), "w") as fh:
        fh.write(text)


def main():
    os.makedirs(os.path.join(HERE, "ref"), exist_ok=True)
    tmp = os.path.join(WORK, "refs")
    shutil.rmtree(tmp, ignore_errors=True)
    _cli(WORKLOADS["desk2d"], f"{tmp}/desk")
    e_cut = _config("configs/triangle_desk.cfg").prune.e_cut
    levels = [float(r["energy"])
              for r in _read_csv(f"{tmp}/desk/eigenvalues.csv")]
    cells = _read_csv(f"{tmp}/desk/cells.csv")
    _save("desk2d.json", json.dumps({
        "e_cut": e_cut, "tol": 1e-10,
        "n_kept": sum(r["kept"] == "1" for r in cells),
        "n_cells": len(cells),
        "levels": [e for e in levels if e < e_cut]}, indent=1) + "\n")

    _cli(WORKLOADS["efficiency1d"], f"{tmp}/eff")
    with open(f"{tmp}/eff/efficiency.csv") as fh:
        _save("efficiency1d.csv", fh.read())

    argv = list(WORKLOADS["scaling_mc"])
    argv[argv.index("--samples") + 1] = str(REF_SAMPLES)
    _cli(argv + ["--seed", str(REF_SEED)], f"{tmp}/sc")
    rows = [{"D": int(r["D"]), "G_exact": int(r["G_exact"]),
             "V_mc": float(r["V_mc"]),
             "V_mc_stderr": float(r["V_mc_stderr"])}
            for r in _read_csv(f"{tmp}/sc/scaling.csv")]
    _save("scaling_mc.json", json.dumps({
        "hbar": _config("configs/morse_bvn.cfg").hbar,
        "samples": REF_SAMPLES, "seed": REF_SEED, "rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
