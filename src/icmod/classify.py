"""Decision layer: integral closedness and indecomposability certificates.

A verdict couples the certified minor ideal of the constructed module with
machine-checked sufficient conditions for indecomposability.  The tool never
claims decomposability; anything outside the certified criteria stays
"unknown".  Certificate tags in the verdict JSON are the stable strings
"thm_5_2" and "thm_5_4".
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Monomial
from .modmat import (
    DEFAULT_CAP,
    NegativeExponent,
    NotNormalized,
    PresMatrix,
    RankOutOfRange,
    build_module,
    closed_form_fitting,
    colength_module,
    fitting_ideal,
)
from .staircase import (
    EmptyGenerators,
    MonomialIdeal,
    NotComplete,
    NotPrimary,
    SimpleFactorization,
    maximal_ideal_power,
)

TAG_LOW_RANK = "thm_5_2"
TAG_TOP_RANK = "thm_5_4"
UNKNOWN = "unknown"


class PreconditionNotMet(ValueError):
    """Audit requires a hypothesis the input does not satisfy."""


class HypothesisViolated(ValueError):
    """Input fails the stated hypotheses of the inequality being audited."""


@dataclass(frozen=True)
class Verdict:
    """Classifier output for one (ideal, rank) pair."""

    construction_ok: bool
    rank: int
    input_gens: tuple
    reason: str | None = None
    fitting: MonomialIdeal | None = None
    fitting_equals_input: bool = False
    fitting_complete: bool = False
    integrally_closed: bool = False
    indecomposable: str = UNKNOWN
    witnesses: tuple[Monomial, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "construction_ok": self.construction_ok,
            "rank": self.rank,
            "input_gens": [list(g) for g in self.input_gens],
            "reason": self.reason,
            "fitting_gens": None if self.fitting is None else self.fitting.to_pairs(),
            "fitting_equals_input": self.fitting_equals_input,
            "fitting_complete": self.fitting_complete,
            "integrally_closed": self.integrally_closed,
            "indecomposable": self.indecomposable,
            "witnesses": [list(w) for w in self.witnesses],
            "notes": list(self.notes),
        }


def top_rank_hypotheses(ideal: MonomialIdeal, r: int) -> bool:
    """Membership pair deciding the top-rank certificate: x^r in, x^(r-1)y out."""
    return ideal.contains((r, 0)) and not ideal.contains((r - 1, 1))


def _smallest_witness(fit: MonomialIdeal, closure: MonomialIdeal) -> Monomial:
    # In each row the least witness starts the closure's row, and closure rows
    # change start only at closure generators; so the witness is the least
    # (degree, b) closure generator x^a y^b with a below the ideal's row start,
    # the x-exponent of the last ideal generator at or below b.
    witnesses = []
    i = 0
    for g in closure.gens:
        while i + 1 < len(fit.gens) and fit.gens[i + 1].b <= g.b:
            i += 1
        if g.a < fit.gens[i].a:
            witnesses.append(g)
    return min(witnesses, key=lambda m: (m.degree, m.b))


def classify(ideal: MonomialIdeal, rank: int) -> Verdict:
    """Build the rank-e module, certify its minor ideal, and decide what it proves.

    The input is transposed automatically when the pure x power exceeds the
    pure y power (recorded in the notes).  Integral closedness of the module
    is read off completeness of the minor ideal; indecomposability is claimed
    only through the two machine-checkable certificates.
    """
    notes: list[str] = []
    work = ideal.normalized()
    if work != ideal:
        notes.append("axes_swapped")
    try:
        mat = build_module(work, rank)
    except (RankOutOfRange, NotNormalized, NegativeExponent, NotPrimary,
            EmptyGenerators) as exc:
        return Verdict(
            construction_ok=False,
            rank=rank,
            input_gens=tuple(work.gens),
            reason=f"{type(exc).__name__}: {exc}",
            notes=tuple(notes),
        )
    fit = fitting_ideal(mat, rank)
    if fit != closed_form_fitting(work, rank):
        raise RuntimeError("minor ideal disagrees with its closed form")
    notes.append("closed_form_match")
    closure = fit.integral_closure()
    complete = fit == closure
    r = work.r
    verdict = UNKNOWN
    witnesses: tuple[Monomial, ...] = ()
    if complete:
        if rank <= r - 1:
            verdict = TAG_LOW_RANK
        elif top_rank_hypotheses(fit, rank):
            verdict = TAG_TOP_RANK
    else:
        witnesses = (_smallest_witness(fit, closure),)
    return Verdict(
        construction_ok=True,
        rank=rank,
        input_gens=tuple(work.gens),
        fitting=fit,
        fitting_equals_input=fit == work,
        fitting_complete=complete,
        integrally_closed=complete,
        indecomposable=verdict,
        witnesses=witnesses,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class GapEquality:
    lhs: int
    expected: int
    passed: bool


def audit_gap_equality(ideal: MonomialIdeal, rank: int) -> GapEquality:
    """Colength gap between the minor ideal and the module, against e(e-1)/2.

    Only meaningful when the minor ideal is complete; refuses otherwise.
    """
    mat = build_module(ideal.normalized(), rank)
    fit = fitting_ideal(mat, rank)
    if not fit.is_complete():
        raise PreconditionNotMet("minor ideal is not complete")
    lhs = fit.colength() - colength_module(mat)
    expected = rank * (rank - 1) // 2
    return GapEquality(lhs=lhs, expected=expected, passed=lhs == expected)


@dataclass(frozen=True)
class GapBound:
    diff: int
    bound: int
    passed: bool


def audit_gap_bound(mat: PresMatrix, cap: int = DEFAULT_CAP) -> GapBound:
    """Colength gap lower bound e(e-1)/2 for an integrally closed module.

    The integral closedness certificate is the caller's (complete minor ideal
    or a direct sum of complete ideals); this audit just measures the gap.
    """
    rank = mat.rank
    diff = fitting_ideal(mat, rank).colength() - colength_module(mat, cap)
    bound = rank * (rank - 1) // 2
    return GapBound(diff=diff, bound=bound, passed=diff >= bound)


@dataclass(frozen=True)
class SplitInequality:
    lhs: int
    rhs: int
    strict: bool
    part1_gens: tuple
    part2_gens: tuple


def audit_split_inequality(ideal: MonomialIdeal, part1) -> SplitInequality:
    """Strict colength inequality for a two-block split of the simple factors.

    Requires a complete non-simple ideal of order r with x^r inside and
    x^(r-1)y outside; part1 picks a proper nonempty subset of the expanded
    factor list and the complement forms the second block.
    """
    if not ideal.is_m_primary or not ideal.is_complete():
        raise HypothesisViolated("ideal must be m-primary and complete")
    try:
        factors = ideal.zariski_factor().expand()
    except NotComplete as exc:  # pragma: no cover - guarded above
        raise HypothesisViolated(str(exc)) from exc
    if len(factors) < 2:
        raise HypothesisViolated("ideal is simple; no proper split exists")
    r = ideal.order()
    if not ideal.contains((r, 0)):
        raise HypothesisViolated(f"x^{r} is not in the ideal")
    if ideal.contains((r - 1, 1)):
        raise HypothesisViolated(f"x^{r - 1}y is in the ideal")
    chosen = set(part1)
    if not chosen or not chosen < set(range(len(factors))):
        raise ValueError("part1 must be a proper nonempty subset of factor indices")
    b1, b2 = (SimpleFactorization(tuple(factors[i] + (1,) for i in sorted(part))).rebuild()
              for part in (chosen, set(range(len(factors))) - chosen))
    lhs = ideal.colength() - b1.colength() - b2.colength()
    rhs = b1.order() * b2.order()
    return SplitInequality(
        lhs=lhs,
        rhs=rhs,
        strict=lhs > rhs,
        part1_gens=tuple(b1.gens),
        part2_gens=tuple(b2.gens),
    )


@dataclass(frozen=True)
class SummandHypotheses:
    ord_ge_rank_plus_1: bool
    next_fitting_closure_is_m_power: bool


def audit_summand_hypotheses(mat: PresMatrix) -> SummandHypotheses:
    """Evaluate the two hypotheses of the free-summand structure statement.

    Pure hypothesis reporter: the structural conclusion is never decided.
    """
    e = mat.rank
    if e < 2:
        raise ValueError("hypothesis audit needs rank at least 2")
    fit = fitting_ideal(mat, e)
    next_fit = fitting_ideal(mat, e - 1)
    return SummandHypotheses(
        ord_ge_rank_plus_1=fit.order() >= e + 1,
        next_fitting_closure_is_m_power=(
            next_fit.integral_closure() == maximal_ideal_power(e - 1)
        ),
    )
