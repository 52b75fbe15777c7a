"""Guards for the tooling that wraps the package from outside."""

import importlib
import pathlib
import runpy

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
