"""Numerical toolkit for weighted (reflection-symmetric) harmonic analysis:
generalized Hermite spectral bases, oscillator and free Schrodinger flows,
Schatten-norm functionals of orthonormal systems, and a small Hartree solver.
"""

from .hartree import (
    HartreeConfig,
    gaussian_interaction,
    picard_step,
    solve_hartree,
)
from .dunklops import (
    dunkl_operator_matrix,
    hamiltonian_matrix,
    position_operator_matrix,
)
from .freeprop import (
    LensMap,
    kernel_Lit,
    lens_relation_residual,
)
from .hermite import (
    HermiteBasis,
    SingularTimeError,
    build_basis,
    hermite_functions_1d,
    kernel_Kit,
)
from .operators import (
    conjugate,
    density,
    kss_check,
    mixed_xp_operator,
    multiplication_matrix,
    schatten_norm,
)
from .quadrature import (
    TensorGrid,
    mixed_norm,
    plain_rule,
    tensor_grid,
    time_grid,
    weighted_lp_norm,
)
from .strichartz import (
    ExponentPair,
    StrichartzReport,
    admissible_p,
    generate_system,
    inhomogeneous_check,
    mhls_check,
    run_inequality,
    schatten_rhs,
    strichartz_lhs,
)
from .structure import (
    DunklStructure,
    dunkl_kernel_1d,
)

__version__ = "0.1.0"
