"""noethops: Noetherian differential operators over exact rational arithmetic.

Describe primary ideals of quotient rings R = Q[x]/N by finite sets of
differential operators into the reduced ring, verify such descriptions
exactly, and search for the minimal uniform shifts c making degree-truncated
differential colons of ideal powers (plain, integrally closed, or symbolic)
land back in the powers of a source ideal.
"""

from .closures import (
    MODES,
    NewtonPolyhedron,
    NonMonomialIdealError,
    monomial_integral_closure,
    power_schedule,
    shift_search,
)
from .diffops import (
    ArithmeticBugError,
    DiffOp,
    OperatorSet,
    RefutedError,
    TruncatedSubspace,
    parse_operator,
    parse_operator_set,
)
from .groebner import (
    IdealHandle,
    RingSpec,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_power,
    normal_form,
    saturate,
    standard_monomials,
)
from .noetherian import (
    NoetherianCertificate,
    NonRationalPointError,
    PrimaryComponent,
    combine_components,
    dual_space,
    noetherian_ops_primary,
    verify_noetherian_ops,
)
from .poly import (
    Block,
    GrevLex,
    Poly,
    PolyParseError,
    RationalFunction,
    parse_polynomial,
)
from .uniformity import (
    ConstantReport,
    check_reverse,
    diff_colon,
    find_min_c,
    run_constant_experiment,
    separating_operator,
    subspace_in_ideal,
    verify_filtration,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
