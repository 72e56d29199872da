"""Exact verification of Cauchy-Schwarz-type intersection inequalities.

The package models even cohomology rings of compact Kahler manifolds exactly
(rational classes and matrices as int numerators over one denominator
inside, Fractions for every scalar it returns) and checks, at desk scale:
mixed hard-Lefschetz isomorphisms, signatures of mixed intersection forms,
positivity on primitive subspaces, the mixed Lefschetz decomposition and its
identities, both directions of the Cauchy-Schwarz-type inequality for g, the
Khovanskii-Teissier log-concavity chain, and the non-strict nef boundary
versions of all of the above.
"""

from .errors import (
    BundleError,
    BundleSemanticError,
    BundleSyntaxError,
    DegreeError,
    FlagError,
    MissingSamplesError,
    RingMismatchError,
    SingularSplitError,
    ToolError,
    UnknownRingError,
    ValidationLimitError,
)
from .linalg import Matrix, inertia, nullspace, rank, rational_from_str, rational_to_str, solve
from .ring import (
    ClassVector,
    IntersectionRing,
    MixedSetup,
    RingSample,
    as_kahler,
    integrate,
    mixed_setup,
    power,
    sanity_check_kahler,
    validate_ring,
    validation_work,
    wedge,
)
from .lefschetz import (
    DecompositionResult,
    LefschetzDecomposer,
    PrimitiveSubspace,
    SymmetricFormReport,
    gram_matrix_Q,
    hr_check,
    lefschetz_operator,
    mixed_lefschetz_decompose,
    primitive_basis,
)
from .inequalities import (
    Counterexample,
    CsVerdict,
    HodgeCondition,
    KtReport,
    TheoremReport,
    check_cs,
    compute_g_decomposed,
    compute_g_direct,
    construct_counterexample,
    hodge_condition,
    kt_chain,
    proportional,
    verify_theorem,
)
from .bundle import parse_class_literal, parse_ring_bundle, serialize_ring_bundle
from .sampling import Xoshiro256StarStar, random_cone_class, random_strict_setup, sample_random_class
from . import zoo

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
