"""Phase-space grid eigensolvers for 1-D and 2-D model potentials.

Fourier-grid diagonalization plus Gaussian and biorthogonal phase-space
bases with energy pruning, and semiclassical state-counting utilities.
"""

from .errors import (BelowWellBottomError, BudgetExceededError,
                     DegenerateEstimateError, IllConditionedError,
                     NotAvailableError, NumericFailureError,
                     SingularPointError, UnboundedOrbitError)
from .fourier_grid import (FghOperator, Grid1D, axis_product,
                           harmonic_square_grid, hamiltonian_fgh,
                           kinetic_matrix, potential_matrix, solve_fgh)
from .potentials import (PotentialSpec, analytic_levels, coulomb1d, evaluate,
                         harmonic, morse, morse_frequency, tabulated,
                         triangle2d, triangle_alpha)
from .pruner import PruneMask, cell_table, select_cells
from .semiclassics import (PhaseSpaceBox, ScalingRow, VolumeEstimate,
                           mc_phase_volume, minimal_box, phase_area_1d,
                           scaling_report, state_count_exact,
                           state_count_limits, turning_points)
from .solver import (EfficiencyPoint, GeneralizedProblem, Pipeline,
                     assemble_bvn, count_converged, efficiency_scan,
                     solve_generalized)
from .spectra import Spectrum
from .vn_basis import (VnLattice, build_basis, build_G, build_overlap,
                       continuous_vn_matrices)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
