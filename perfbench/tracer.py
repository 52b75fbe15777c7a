"""In-process span tracer for one phasegrid CLI operation.

`Tracer.install()` replaces each traced public function of the package with
a wrapper that records a span (name, start, end, parent, operation id). The
wrapper is bound wherever a ``phasegrid`` module binds the original object,
found by identity, so call sites such as ``from .solver import
solve_generalized`` in ``cli.py`` go through it without any change to the
package. Spans stay in memory until `layer_metrics` reduces them.

A traced name that no longer exists raises `TraceError`: a refactor that
renames a layer must update this table instead of silently reporting zeros.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> public callables traced in it ("Class.method" for methods)
TRACED = {
    "fourier_grid": ("solve_fgh", "hamiltonian_fgh", "FghOperator2D.apply"),
    "vn_basis": ("build_basis",),
    "pruner": ("select_cells",),
    "solver": ("assemble_pvn", "assemble_bvn", "assemble_bvn_2d",
               "solve_generalized", "efficiency_scan"),
    "semiclassics": ("mc_phase_volume",),
    "_kernels": ("mc_count_hits",),
    "cli": ("main", "write_csv", "write_text_atomic"),
}

# per-layer metric -> (unit, span names whose self times it sums)
SELF_TIMES = {
    "fourier_grid.apply_s": ("fourier_grid.FghOperator2D.apply",),
    "fourier_grid.solve_fgh_s": ("fourier_grid.solve_fgh",),
    "fourier_grid.hamiltonian_s": ("fourier_grid.hamiltonian_fgh",),
    "vn_basis.build_basis_s": ("vn_basis.build_basis",),
    "pruner.select_s": ("pruner.select_cells",),
    "solver.assemble_s": ("solver.assemble_pvn", "solver.assemble_bvn",
                          "solver.assemble_bvn_2d"),
    "solver.eig_s": ("solver.solve_generalized",),
    "semiclassics.mc_volume_s": ("semiclassics.mc_phase_volume",),
    "kernels.mc_hits_s": ("_kernels.mc_count_hits",),
    "cli.write_s": ("cli.write_csv", "cli.write_text_atomic"),
}

CALL_COUNTS = {
    "fourier_grid.solve_fgh_calls": "fourier_grid.solve_fgh",
    "vn_basis.build_basis_calls": "vn_basis.build_basis",
    "pruner.select_calls": "pruner.select_cells",
    "solver.eig_calls": "solver.solve_generalized",
    "kernels.mc_hits_calls": "_kernels.mc_count_hits",
}

PSEUDO_INVERSE_TEXT = "overlap pseudo-inverted"


class TraceError(RuntimeError):
    """A traced function is missing from the package."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects spans and counters for one operation."""

    def __init__(self, op_id: int, e_cut: float | None = None):
        self.op_id = op_id
        self.e_cut = e_cut
        self.spans = []      # [name, start, end, parent index, op id]
        self._stack = []
        self.counts = defaultdict(float)

    # -- counters taken at the layer boundaries --------------------------

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "fourier_grid.FghOperator2D.apply":
            m = _arg(args, kwargs, 1, "m")
            c["apply_cols"] += 1 if m.ndim == 1 else m.shape[1]
        elif name == "pruner.select_cells":
            c["kept"] += result.n_kept
            c["cells"] += result.size
        elif name == "solver.solve_generalized":
            n = _arg(args, kwargs, 0, "problem").size
            c["pencil_n"] = max(c["pencil_n"], n)
            c["pencil_sum"] += n
            if self.e_cut is not None:
                c["useful"] += int((result.energies < self.e_cut).sum())
        elif name == "semiclassics.mc_phase_volume":
            c["mc_samples"] += _arg(args, kwargs, 3, "n_samples")
        elif name == "_kernels.mc_count_hits":
            xs = _arg(args, kwargs, 0, "xs")
            ps = _arg(args, kwargs, 1, "ps")
            # bytes the kernel reads, computed from the array shapes
            c["mc_bytes"] += xs.size * 8 + ps.size * 8
        elif name == "cli.write_text_atomic":
            c["write_bytes"] += len(_arg(args, kwargs, 1, "text").encode())

    def _wrap(self, name, fn):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1,
                          self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                stack.pop()
            self._count(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded phasegrid modules."""
        missing = []
        replaced = {}
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"phasegrid.{mod_name}")
            for dotted in names:
                owner = module
                *path, attr = dotted.split(".")
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    missing.append(f"phasegrid.{mod_name}.{dotted}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{dotted}", original)
                if path:
                    setattr(owner, attr, wrapper)
                else:
                    replaced[id(original)] = wrapper
        if missing:
            raise TraceError("traced functions no longer exist: "
                             + ", ".join(missing))
        # the originals stay alive in their closures, so ids are not reused
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "phasegrid" and not mod_name.startswith("phasegrid."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    # -- reduction -------------------------------------------------------

    def self_times(self) -> list:
        """Per-span duration minus the time covered by its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> dict:
        """Total self time of each traced function."""
        out = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[0]] += own
        return dict(out)

    def layer_metrics(self, pseudo_warnings: int) -> dict:
        own = self.self_by_name()
        names = [s[0] for s in self.spans]
        out = {}
        for metric, span_names in SELF_TIMES.items():
            out[metric] = sum(own.get(n, 0.0) for n in span_names)
        for metric, span_name in CALL_COUNTS.items():
            out[metric] = names.count(span_name)
        c = self.counts
        out["fourier_grid.apply_cols"] = c["apply_cols"]
        out["vn_basis.pseudo_inverse_warnings"] = pseudo_warnings
        out["pruner.kept_frac"] = c["kept"] / c["cells"] if c["cells"] else 0.0
        out["solver.pencil_n"] = c["pencil_n"]
        out["solver.eig_useful_frac"] = (c["useful"] / c["pencil_sum"]
                                         if c["pencil_sum"] else 0.0)
        out["solver.scan_probes"] = self._scan_probes()
        out["semiclassics.mc_samples"] = c["mc_samples"]
        out["kernels.mc_bytes_computed"] = c["mc_bytes"]
        out["cli.write_bytes"] = c["write_bytes"]
        return out

    def _scan_probes(self) -> int:
        """fgh solves plus cell selections made inside efficiency_scan.

        Each grid-size probe calls solve_fgh once and each margin probe
        calls select_cells once.
        """
        inside = [False] * len(self.spans)
        probes = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            inside[i] = parent >= 0 and (
                inside[parent] or self.spans[parent][0] == "solver.efficiency_scan")
            if inside[i] and name in ("fourier_grid.solve_fgh",
                                      "pruner.select_cells"):
                probes += 1
        return probes
