"""Exact workbench for integrally closed modules over two-dimensional regular
local rings, constructed from staircase monomial ideals."""

from .algebra import BiPoly, Monomial
from .classify import (
    GapBound,
    GapEquality,
    HypothesisViolated,
    PreconditionNotMet,
    SplitInequality,
    SummandHypotheses,
    Verdict,
    audit_gap_bound,
    audit_gap_equality,
    audit_split_inequality,
    audit_summand_hypotheses,
    classify,
)
from .modmat import (
    NegativeExponent,
    NonMonomialIdeal,
    NotFiniteColength,
    NotNormalized,
    PresMatrix,
    RankOutOfRange,
    build_module,
    closed_form_fitting,
    colength_module,
    fitting_ideal,
    from_ideal,
    matrix_from_json,
    module_spec,
    mu_module,
    signed_minor_table,
)
from .multiplicity import (
    DifferenceCheck,
    ReductionSample,
    Uncertified,
    area_multiplicity,
    check_difference_formula,
    module_multiplicity,
    reduction_multiplicity,
)
from .staircase import (
    EmptyGenerators,
    MonomialIdeal,
    NewtonHull,
    NotComplete,
    NotPrimary,
    SimpleFactorization,
    canonicalize,
    enumerate_complete_staircases,
    enumerate_staircases,
    from_json,
    maximal_ideal_power,
    simple_closure,
)

__version__ = "0.1.0"
