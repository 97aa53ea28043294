"""Nominal generic subtyping kernel.

Builds the subtyping relation of a generic class table from its subclassing
relation alone, then verifies the order-theoretic structure that falls out:
the erasure/free-type adjunction, its closure operator, coalgebra/algebra
sets of generic classes, co-free types, and the admittable-versus-valid
split for bounded instantiations.
"""

from .adjunction import (
    AdjunctionReport,
    GaloisViolation,
    MonotonicityReport,
    check_galois,
    check_monotonicity,
    closed_types,
    closure_class,
    closure_type,
)
from .analysis import analyze
from .class_table import (
    ClassDecl,
    ClassTable,
    TypeParam,
    TypeUse,
    format_class_table,
    parse_class_table,
    subclass_of,
)
from .errors import (
    ArityMismatch,
    BottomHasNoErasure,
    EndpointOutsideUniverse,
    FreeTypeOutsideUniverse,
    InvalidRelationDocument,
    NomsubError,
    NotGeneric,
    NotUnaryGeneric,
    ParseError,
    TermOutsideUniverse,
    UniverseCapExceeded,
    UnknownClass,
    ValidationError,
)
from .fixpoints import (
    CofreeComparison,
    FreeTypeComparison,
    MaximaReport,
    MinimaReport,
    ValidityAssignment,
    check_validity,
    exact_fixed_points,
    f_subtypes,
    f_supertypes,
    maximal_f_subtypes,
    minimal_f_supertypes,
)
from .relation import (
    Entries,
    SubtypeRelation,
    build_relation,
    construction_step,
    enumerate_universe,
    export_dot,
    export_json,
    initial_relation,
    interval_contains,
    is_subtype,
    mutual_pairs,
    relation_from_json,
)
from .terms import (
    BOTTOM,
    BottomType,
    Cofree,
    Ground,
    Interval,
    TypeTerm,
    cofree_type,
    erase,
    format_type,
    free_type,
    nesting_depth,
    parse_type,
    point,
    root_term,
    super_chain,
    super_instantiation,
    term_from_typeuse,
    wildcard,
)

__version__ = "0.1.0"
