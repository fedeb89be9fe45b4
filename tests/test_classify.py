import pytest

import icmod as ic
from icmod.classify import (
    TAG_LOW_RANK,
    TAG_TOP_RANK,
    UNKNOWN,
    HypothesisViolated,
    PreconditionNotMet,
    _smallest_witness,
)

from conftest import direct_sum, lattice_colength, rectangle_witness


def test_showcase_b_all_ranks_proven(showcase_b):
    expected = {2: TAG_LOW_RANK, 3: TAG_LOW_RANK, 4: TAG_LOW_RANK, 5: TAG_TOP_RANK}
    for e, tag in expected.items():
        v = ic.classify(showcase_b, e)
        assert v.construction_ok and v.integrally_closed
        assert v.indecomposable == tag
        assert v.fitting_equals_input


def test_showcase_a_top_rank_unknown(showcase_a):
    v = ic.classify(showcase_a, 5)
    assert v.integrally_closed and v.fitting_equals_input
    assert v.indecomposable == UNKNOWN  # x^5 is not in the ideal
    for e in (2, 3, 4):
        assert ic.classify(showcase_a, e).indecomposable == TAG_LOW_RANK


def test_chain_ideal_top_rank_unknown(chain_ideal):
    r = chain_ideal.r
    for e in range(2, r):
        assert ic.classify(chain_ideal, e).indecomposable == TAG_LOW_RANK
    v = ic.classify(chain_ideal, r)
    assert v.integrally_closed
    assert v.indecomposable == UNKNOWN  # x^(r-1) y is a generator


def test_counterexample_witness(remark_counterexample):
    v = ic.classify(remark_counterexample, 4)
    assert v.construction_ok
    assert not v.integrally_closed and not v.fitting_complete
    assert [tuple(w) for w in v.witnesses] == [(4, 1)]
    assert v.indecomposable == UNKNOWN


def test_classify_normalizes_axes(showcase_b):
    v = ic.classify(showcase_b.swap_axes(), 2)
    assert "axes_swapped" in v.notes
    assert v.integrally_closed
    assert v.input_gens == showcase_b.gens


def test_classify_construction_failure(showcase_b):
    v = ic.classify(showcase_b, 9)
    assert not v.construction_ok
    assert "RankOutOfRange" in v.reason
    v = ic.classify(ic.maximal_ideal_power(1), 2)
    assert not v.construction_ok


def test_verdict_json_schema(showcase_b):
    obj = ic.classify(showcase_b, 5).to_json()
    assert obj["indecomposable"] == "thm_5_4"
    assert obj["integrally_closed"] is True
    assert obj["fitting_gens"] == showcase_b.to_pairs()
    assert isinstance(obj["notes"], list)


def test_top_rank_membership_agrees_on_input_when_corner_is_tight(showcase_b):
    from icmod.classify import top_rank_hypotheses

    e = 5
    fit = ic.closed_form_fitting(showcase_b, e)
    assert showcase_b.gens[showcase_b.r - e + 2].a == e - 2
    assert top_rank_hypotheses(fit, e) == top_rank_hypotheses(showcase_b, e)


def test_audit_gap_equality_examples(showcase_a, showcase_b):
    rec = ic.audit_gap_equality(showcase_a, 4)
    assert rec == {"lhs": 6, "expected": 6, "pass": True}
    rec = ic.audit_gap_equality(showcase_b, 2)
    assert rec["expected"] == 1 and rec["pass"]
    rec = ic.audit_gap_equality(ic.simple_closure(3, 4), 3)
    assert rec["expected"] == 3 and rec["pass"]


def test_audit_gap_equality_precondition(remark_counterexample):
    with pytest.raises(PreconditionNotMet):
        ic.audit_gap_equality(remark_counterexample, 4)


def test_audit_gap_bound_examples(example_reference, showcase_b):
    mat = direct_sum(ic.from_ideal(example_reference),
                        ic.from_ideal(ic.maximal_ideal_power(1)))
    rec = ic.audit_gap_bound(mat)
    assert rec["pass"] and rec["diff"] >= 1 and rec["bound"] == 1

    rec = ic.audit_gap_bound(ic.build_module(showcase_b, 5))
    assert rec == {"diff": 10, "bound": 10, "pass": True}

    rec = ic.audit_gap_bound(ic.from_ideal(example_reference))
    assert rec == {"diff": 0, "bound": 0, "pass": True}


def test_audit_split_inequality_examples(showcase_b, chain_ideal):
    rec = ic.audit_split_inequality(showcase_b, {0})
    assert rec == {"lhs": 8, "rhs": 6, "strict": True}
    assert ic.audit_split_inequality(showcase_b, {0, 1})["strict"]
    with pytest.raises(HypothesisViolated):
        ic.audit_split_inequality(chain_ideal, {0})  # x^(r-1) y inside
    with pytest.raises(HypothesisViolated):
        ic.audit_split_inequality(ic.simple_closure(2, 3), {0})
    with pytest.raises(ValueError):
        ic.audit_split_inequality(showcase_b, set(range(3)))


def test_audit_split_against_lattice_oracle(showcase_b):
    fact = showcase_b.zariski_factor().expand()
    b1 = ic.simple_closure(*fact[0])
    b2 = ic.simple_closure(*fact[1]) * ic.simple_closure(*fact[2])
    lhs = (lattice_colength(showcase_b) - lattice_colength(b1)
           - lattice_colength(b2))
    rec = ic.audit_split_inequality(showcase_b, {0})
    assert rec["lhs"] == lhs


def test_audit_summand_hypotheses_examples(showcase_a, showcase_b):
    rec = ic.audit_summand_hypotheses(ic.build_module(showcase_a, 4))
    assert rec == {"ord_ge_rank_plus_1": True, "next_fitting_closure_is_m_power": True}
    rec = ic.audit_summand_hypotheses(ic.build_module(showcase_b, 5))
    assert rec == {"ord_ge_rank_plus_1": False, "next_fitting_closure_is_m_power": True}
    pair = direct_sum(ic.from_ideal(ic.maximal_ideal_power(1)),
                         ic.from_ideal(ic.maximal_ideal_power(1)))
    rec = ic.audit_summand_hypotheses(pair)
    assert rec == {"ord_ge_rank_plus_1": False, "next_fitting_closure_is_m_power": True}
    # a constant entry splits off a free summand: the 1-minors generate the unit ideal
    x, y, one, zero = (ic.BiPoly.term(1, 0), ic.BiPoly.term(0, 1), ic.BiPoly.term(0, 0),
                       ic.BiPoly.zero())
    free = ic.PresMatrix(2, ((one, zero), (zero, x), (zero, y)))
    assert ic.fitting_ideal(free, 2) == ic.maximal_ideal_power(1)
    rec = ic.audit_summand_hypotheses(free)
    assert rec == {"ord_ge_rank_plus_1": False, "next_fitting_closure_is_m_power": False}


# ---------------------------------------------------------------------------
# certificate sweeps at desk scale
# ---------------------------------------------------------------------------

def test_verdict_sweep_small_box():
    # completeness of the minor ideal and integral closedness coincide by
    # construction; cross-check the certificate chain case by case
    for ideal in ic.enumerate_staircases(5, 5, min_r=2, star_only=True):
        for e in range(2, ideal.r + 1):
            v = ic.classify(ideal, e)
            assert v.construction_ok
            assert v.integrally_closed == v.fitting_complete
            assert v.fitting_complete == v.fitting.is_complete()
            if v.indecomposable != UNKNOWN:
                assert v.integrally_closed
            if not v.fitting_complete:
                w = v.witnesses[0]
                closure = v.fitting.integral_closure()
                assert closure.contains(w) and not v.fitting.contains(w)


def test_smallest_witness_matches_rectangle_scan():
    incomplete = 0
    for ideal in ic.enumerate_staircases(8, 8, min_r=1):
        closure = ideal.integral_closure()
        if closure != ideal:
            incomplete += 1
            assert tuple(_smallest_witness(ideal, closure)) == rectangle_witness(ideal, closure)
    assert incomplete > 5000


def test_tight_corner_sweep_proves_indecomposable():
    # complete input with the corner condition always yields a proof
    for ideal in ic.enumerate_complete_staircases(7, 7, min_r=2, star_only=True):
        r = ideal.r
        for e in range(2, r + 1):
            if ideal.gens[r - e + 2].a != e - 2:
                continue
            applies = (r >= e + 1) or (
                ideal.contains((r, 0)) and not ideal.contains((r - 1, 1)))
            v = ic.classify(ideal, e)
            assert v.fitting_equals_input
            if applies:
                assert v.indecomposable in (TAG_LOW_RANK, TAG_TOP_RANK)


def test_low_rank_corollaries():
    # rank 2 needs r >= 3, rank 3 needs r >= 4, for every complete input
    for ideal in ic.enumerate_complete_staircases(7, 7, min_r=3, star_only=True):
        assert ic.classify(ideal, 2).indecomposable == TAG_LOW_RANK
        if ideal.r >= 4:
            assert ic.classify(ideal, 3).indecomposable == TAG_LOW_RANK


def test_simple_ideal_all_ranks_proven():
    for p, q in ((2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7), (6, 7)):
        ideal = ic.simple_closure(p, q)
        assert ideal.is_simple() and ideal.order() == p
        for e in range(2, p + 1):
            v = ic.classify(ideal, e)
            assert v.indecomposable in (TAG_LOW_RANK, TAG_TOP_RANK), (p, q, e)
            assert v.fitting_equals_input


def test_split_inequality_sweep_small_box():
    from itertools import combinations

    for ideal in ic.enumerate_complete_staircases(6, 6, min_r=2):
        fact = ideal.zariski_factor().expand()
        if len(fact) < 2:
            continue
        r = ideal.order()
        if not ideal.contains((r, 0)) or ideal.contains((r - 1, 1)):
            continue
        indices = range(len(fact))
        for size in range(1, len(fact)):
            for part1 in combinations(indices, size):
                if 0 not in part1:
                    continue  # complement symmetry
                rec = ic.audit_split_inequality(ideal, set(part1))
                assert rec["strict"], (ideal.to_pairs(), part1)
