"""Lefschetz properties of graded algebras built from numerical semigroups.

The pipeline: a numerical semigroup -> its apery set with orders and maximal
representations -> a graded Artinian algebra on that lattice -> exact
Weak/Strong Lefschetz verdicts by two independent routes (generic ranks of
multiplication maps, and Hessians of the dual socle generator), plus the
complete-intersection classification and colon-quotient transfer chains.
"""

from .errors import (
    AperyError,
    DegreeOutOfRange,
    DegreeTooSmall,
    DependentBasis,
    EmptyInput,
    GcdNotOne,
    InternalFault,
    InvalidDualGenerator,
    InvalidGenerator,
    InvalidOutputPath,
    InvalidSeed,
    InvalidStep,
    NotApplicable,
    NotCI,
    NotGorenstein,
    NotGorensteinAtStep,
    NotInSemigroup,
    NotSquare,
    PolyParseError,
    SizeLimit,
)
from .polynomial import SparsePoly, monomials_of_degree, parse_polynomial
from .linalg import Matrix, generic_rank, polynomial_determinant, rank_info
from .semigroup import (
    AperyTable,
    FrameData,
    MPureVerdict,
    NumericalSemigroup,
    compute_beta_gamma,
    create_semigroup,
    is_m_pure_symmetric,
)
from .algebra import (
    GradedAlgebra,
    IdealDescription,
    LinearForm,
    MonomialSubspace,
    box_algebra,
    brute_force_relations,
    build_algebra,
    build_gamma_algebra,
    ci_tilde_ideal,
    codim3_defining_ideal,
    colon_by_power,
    multiplication_matrix,
    same_ideal_through_degree,
    variable_names,
)
from .inverse_system import (
    DualAlgebraView,
    ann_contains,
    apply_operator,
    catalecticant_rank,
    dual_algebra_view,
    dual_socle_generator,
    hessian,
    match_annihilator_scale,
    mixed_hessian,
)
from .lefschetz import (
    ChainStep,
    ConjectureReport,
    LefschetzReport,
    QuotientChainReport,
    ci_degree_criterion,
    ci_hilbert,
    ci_quotient_plan,
    conjecture_check,
    derive_seed,
    gamma_criterion,
    quotient_condition_ci,
    quotient_condition_codim3,
    root_seed,
    slp_by_hessian,
    slp_by_ranks,
    transfer_wlp,
    wlp_by_hessian,
    wlp_by_ranks,
)

__version__ = "0.1.0"
