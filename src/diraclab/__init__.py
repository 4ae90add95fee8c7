"""diraclab: spectral simulator and validation lab for a Dirac-Hartree field
coupled to classically moving point nuclei on a periodic box."""

from .lattice import (
    GridSpec,
    SpinorField,
    charge,
    gaussian_spinor,
    make_grid,
    random_smooth_field,
    read_checkpoint,
    sobolev_norm,
    to_momentum,
    to_position,
    translate,
    write_checkpoint,
)
from .dirac import apply_free_dirac, dirac_matrices, free_propagator_step
from .potentials import (
    CutoffProfile,
    FreezingMap,
    NucleusState,
    Trajectory,
    admissibility_check,
    coulomb_field,
    cutoff_zeta,
    cutoff_zeta_prime,
    pullback,
    regularization_eps,
    residual_potential,
)
from .hartree import apply_nonlinearity, bilinear_estimate_report, hartree_potential
from .propagator import (
    FieldSolution,
    PropagatorPlan,
    duhamel_march,
    duhamel_picard,
    evolve_linear,
    frame_equivalence_residual,
    product_formula_evolve,
    split_step_nonlinear,
    strang_step,
    trajectory_sensitivity,
)
from .newton import (
    EnergyBreakdown,
    ForceBreakdown,
    coupled_direct,
    coupled_fixed_point,
    internuclear_force,
    trajectory_map_P,
)
from .analysis import (
    InequalityReport,
    coulomb_multiplier_ratio,
    hardy_ratio,
    radial_decomposition_check,
    regularization_rate,
    rellich_ratio,
)
from .groundstate import (
    GroundStateModel,
    groundstate_fourier,
    groundstate_radial,
    sobolev_threshold,
    verify_regularity,
)

__version__ = "0.1.0"
