"""magnls: a spectral laboratory for the cubic magnetic Schrodinger equation.

Builds the operator H = -lap + 2i A.grad + i(div A) + V on a periodic box,
finds its linear ground state, continues the small-amplitude nonlinear
bound-state family, evolves the cubic flow by splitting, tracks the
modulation decomposition psi = Q[z] + eta, and scans the dispersive-estimate
machinery (weighted resolvent bounds, space-time norms, elliptic regularity).
"""

from .errors import (
    ConfigError,
    ConservationBreach,
    ContractionSetViolation,
    GridMismatchError,
    InsufficientDecayWindow,
    MagnlsError,
    NewtonDivergence,
    NoBoundStateError,
    NonConvergenceError,
)
from .grid import (
    ComplexField,
    GridSpec,
    VectorField,
    dft,
    divergence,
    fftn,
    from_function,
    gradient,
    idft,
    ifftn,
    inner_l2,
    inner_real,
    laplacian,
    make_field,
    norm_l2,
    read_field,
    stack_fft,
    stack_gradient,
    stack_ifft,
    stack_laplacian,
    write_field,
    zero_vector_field,
    zeros,
)
from .norms import (
    bracket_weight,
    field_parts,
    first_order_parts,
    norm_h1,
    norm_h2,
    norm_lp,
    norm_w1p,
    norm_w2p_sum,
    norm_w2p_sums,
    norm_weighted_h1,
    norm_weighted_l2,
)
from .potentials import (
    PotentialPair,
    ValidationReport,
    build_gaussian_well,
    build_gauge_field,
    build_localized_loop_field,
    gaussian_bump,
    make_potential_pair,
    split_lebesgue_norm,
    validate,
)
from .hamiltonian import (
    HamiltonianSpec,
    apply_h,
    apply_h1,
    build_hamiltonian,
    default_k_shift,
    gauge_transform,
    project_continuous,
    resolvent_solve,
    shifted_solve,
)
from .spectrum import EigenPair, SpectrumScan, ground_state, low_spectrum_scan
from .bound_states import (
    BoundState,
    BoundStateFamily,
    DecayFit,
    DerivativeFields,
    decay_fit,
    default_z_max,
    fixed_point_step,
    solve_bound_state,
)
from .evolution import (
    EvolveConfig,
    Trajectory,
    energy_functional,
    evolve,
    linear_flow,
    step,
    wrap_around_estimate,
)
from .modulation import (
    DecompositionRecord,
    StabilityReport,
    decompose,
    gauge_adjusted_variation,
    scattering_gap,
    symplectic_gram,
    track,
)
from .analysis import (
    NormEquivalenceReport,
    ResolventScan,
    StrichartzReport,
    XNormAccumulator,
    default_lambda_grid,
    is_admissible,
    norm_equivalence_check,
    resolvent_bound_scan,
    strichartz_ratio,
)
from .config import ExperimentConfig, parse_config

__version__ = "0.1.0"
