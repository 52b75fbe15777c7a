"""Phase-space grid eigensolvers for 1-D and 2-D model potentials.

Fourier-grid diagonalization plus Gaussian and biorthogonal phase-space
bases with energy pruning, and semiclassical state-counting utilities.

Public names resolve lazily (PEP 562): ``import phasegrid`` loads no
submodule, and the first read of a name imports the module that defines it,
so a run loads only the modules it uses. Each submodule is a public name
too. Once a submodule has been imported, by whatever route, the package
binds its names to the objects it defined, as eager imports would: a later
patch of a module attribute does not reach the package's name.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": ("BelowWellBottomError", "BudgetExceededError",
               "DegenerateEstimateError", "IllConditionedError",
               "NotAvailableError", "NumericFailureError",
               "SingularPointError", "UnboundedOrbitError"),
    "fourier_grid": ("FghOperator", "Grid1D", "axis_product",
                     "harmonic_square_grid", "hamiltonian_fgh",
                     "kinetic_matrix", "potential_matrix", "solve_fgh"),
    "potentials": ("PotentialSpec", "analytic_levels", "coulomb1d",
                   "evaluate", "harmonic", "morse", "morse_frequency",
                   "triangle2d", "triangle_alpha"),
    "pruner": ("PruneMask", "cell_table", "select_cells"),
    "semiclassics": ("PhaseSpaceBox", "ScalingRow", "VolumeEstimate",
                     "mc_phase_volume", "minimal_box", "phase_area_1d",
                     "scaling_report", "state_count_exact",
                     "state_count_limits", "turning_points"),
    "solver": ("EfficiencyPoint", "GeneralizedProblem", "Pipeline",
               "assemble_bvn", "count_converged", "efficiency_scan",
               "solve_generalized"),
    "spectra": ("Spectrum",),
    "vn_basis": ("VnLattice", "build_basis", "continuous_vn_matrices"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(_HOME)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # the import system sets each submodule here once it has run
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{home}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
