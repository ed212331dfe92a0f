"""Lefschetz properties of graded algebras built from numerical semigroups.

The pipeline: a numerical semigroup -> its apery set with orders and maximal
representations -> a graded Artinian algebra on that lattice -> exact
Weak/Strong Lefschetz verdicts by two independent routes (generic ranks of
multiplication maps, and Hessians of the dual socle generator), plus the
complete-intersection classification and colon-quotient transfer chains.
"""

from .errors import (
    AperyError,
    ConflictingInput,
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
    PolyParseError,
    SizeLimit,
)
from .polynomial import SparsePoly, monomials_of_degree, parse_polynomial
from .linalg import Matrix, rank_info
from .semigroup import (
    AperyTable,
    FrameData,
    MPureVerdict,
    NumericalSemigroup,
    compute_beta_gamma,
    create_semigroup,
)
from .algebra import (
    GradedAlgebra,
    IdealDescription,
    LinearForm,
    box_algebra,
    build_algebra,
    build_gamma_algebra,
    ci_tilde_ideal,
    codim3_defining_ideal,
    multiplication_matrix,
    variable_names,
)
from .inverse_system import (
    DualAlgebraView,
    differential_form,
    dual_algebra_view,
    dual_socle_generator,
    hessian,
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
