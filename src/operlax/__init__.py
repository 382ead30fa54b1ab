"""Operadic calculus on finite-dimensional spaces and Lax flows built on it.

The package has four layers: dense multilinear operations (`multilinear`),
the composition calculus with its law checkers (`calculus`), the harmonic
oscillator model with its half-angle phase functions (`oscillator`), and the
coupled integration plus verification machinery (`evolution`).  `cli` exposes
all of it as the ``operlax`` command.
"""

from .calculus import (
    LawReport,
    check_composition_relations,
    check_graded_jacobi,
    check_unit_laws,
    gerstenhaber_bracket,
    operad_law_suite,
    partial_compose,
    random_operation,
    total_compose,
    trial_rng,
)
from .errors import (
    BranchCutError,
    ConfigError,
    DegenerateStateError,
    DimensionMismatchError,
    DivergenceError,
    EnergyOverflowError,
)
from .evolution import (
    CSV_HEADER,
    IntegratorConfig,
    Trajectory,
    analytic_mu,
    evolve,
    operadic_lax_rhs,
    pde_residual,
    pde_suite,
    rk4_order_check,
    structure_constant_rhs,
    structure_rhs_matrix,
    theorem_suite,
    trajectory_csv_lines,
)
from .multilinear import (
    Operation,
    evaluate,
    identity_operation,
    make_operation,
    operation_from_dict,
    operation_to_dict,
)
from .oscillator import (
    MuParams,
    OscState,
    aux_functions_principal,
    g_functions,
    hamiltonian,
    lax_matrices,
    mu_family,
    proof_identity_suite,
)

__version__ = "0.1.0"
