import random

import pytest

import icmod as ic
from icmod.algebra import BiPoly
from icmod.modmat import NotFiniteColength, PresMatrix
from icmod.multiplicity import ReductionSample, _sampled_minors

from conftest import direct_sum, permutation_det, term_dict


def free_times_max_ideal(k):
    """Presentation of the maximal ideal times the rank-k free module."""
    zero = BiPoly.zero()
    cols = []
    for i in range(k):
        for mono in ((1, 0), (0, 1)):
            col = [zero] * k
            col[i] = BiPoly.term(*mono)
            cols.append(tuple(col))
    return PresMatrix(k, tuple(cols))


def test_area_examples(example_reference):
    assert ic.area_multiplicity(ic.canonicalize([(2, 0), (0, 3)])) == 6
    for n in (1, 2, 5):
        assert ic.area_multiplicity(ic.maximal_ideal_power(n)) == n * n
    assert ic.area_multiplicity(example_reference) == 34


def test_reduction_examples(showcase_a):
    s = ic.reduction_multiplicity(ic.maximal_ideal_power(1), trials=4, seed=0)
    assert s.value == 1 and s.certified
    s = ic.reduction_multiplicity(ic.canonicalize([(2, 0), (0, 3)]), trials=4, seed=0)
    assert s.value == 6
    s = ic.reduction_multiplicity(showcase_a, trials=4, seed=0)
    assert s.value == ic.area_multiplicity(showcase_a)
    # the record, coefficients included, is a fixed function of (input, seed, trials)
    assert s == ReductionSample(
        seed=0,
        coefficients=((3, 4, -8, -1, 7, 6), (3, 0, 6, 2, 9, -3)),
        value=34,
        certified=True,
    )


def test_reduction_requires_primary_and_enough_trials():
    with pytest.raises(ValueError):
        ic.reduction_multiplicity(ic.canonicalize([(1, 0)]), trials=4, seed=0)
    with pytest.raises(ValueError):
        ic.reduction_multiplicity(ic.maximal_ideal_power(1), trials=1, seed=0)


def test_module_multiplicity_examples(showcase_a):
    s = ic.module_multiplicity(ic.from_ideal(ic.maximal_ideal_power(1)), trials=4, seed=0)
    assert s.value == 1
    for k in (1, 2, 3, 4):
        s = ic.module_multiplicity(free_times_max_ideal(k), trials=4, seed=0)
        assert s.value == (k + 1) * k // 2 and s.certified
    s = ic.module_multiplicity(ic.build_module(showcase_a, 4), trials=4, seed=0)
    assert s.value == 28  # area 34 minus the colength gap 6


def test_module_multiplicity_infinite_colength():
    single = PresMatrix(1, ((BiPoly.term(1, 0),),))
    with pytest.raises(NotFiniteColength, match="truncation cap 16"):
        ic.module_multiplicity(single, trials=2, seed=0, cap=16)
    # every 2 x 2 minor of a combination of one column (x, 0) vanishes
    flat = PresMatrix(2, ((BiPoly.term(1, 0), BiPoly.zero()),))
    with pytest.raises(NotFiniteColength, match="all 4 samples were degenerate"):
        ic.module_multiplicity(flat, trials=4, seed=0)


def test_reduction_at_the_truncation_cap():
    # two generic combinations of x^8, y^8 certify at degree 15, below their start 17
    pure = ic.canonicalize([(8, 0), (0, 8)])
    for cap in (15, 16):
        assert ic.reduction_multiplicity(pure, cap=cap).value == 64
    # on m^40 they need degree 79, so every trial reaches the default cap
    with pytest.raises(NotFiniteColength, match="truncation cap 64"):
        ic.reduction_multiplicity(ic.maximal_ideal_power(40))


def test_sampled_minors_match_permutation_expansion(showcase_a):
    mat = ic.build_module(showcase_a, 3)
    rng = random.Random(42)
    # coeffs[k][j] weights column j of mat in combination k
    coeffs = [[rng.randint(-5, 5) for _ in range(mat.ncols)] for _ in range(4)]
    minors = _sampled_minors(mat, coeffs)
    # the combined 3x4 polynomial matrix w[i][k] = sum over j of coeffs[k][j] * mat[i][j]
    # (the constructor adds up repeated monomials), expanded independently
    w = [[BiPoly((mon, c * w_j) for col, w_j in zip(mat.cols, weights) for mon, c in col[i].items())
          for weights in coeffs] for i in range(3)]
    for drop in range(4):
        entries = [[w[i][k] for k in range(4) if k != drop] for i in range(3)]
        assert term_dict(minors[drop]) == permutation_det(entries)
    # a combination that kills a column leaves a degenerate draw
    coeffs[3] = [0] * mat.ncols
    assert _sampled_minors(mat, coeffs) == []


def test_seed_determinism_and_seed_invariance(showcase_b):
    a = ic.reduction_multiplicity(showcase_b, trials=4, seed=0)
    b = ic.reduction_multiplicity(showcase_b, trials=4, seed=0)
    assert a == b
    c = ic.reduction_multiplicity(showcase_b, trials=4, seed=99)
    assert c.value == a.value  # certified value does not depend on the seed


def test_difference_formula_examples(showcase_a):
    chk = ic.check_difference_formula(ic.build_module(showcase_a, 4), trials=4, seed=0)
    assert (chk.lhs, chk.rhs, chk.equal) == (6, 6, True)

    rank1 = ic.from_ideal(showcase_a)
    chk = ic.check_difference_formula(rank1, trials=4, seed=0)
    assert chk.lhs == 0 and chk.rhs == 0 and chk.equal

    pair = direct_sum(ic.from_ideal(ic.simple_closure(2, 3)),
                         ic.from_ideal(ic.maximal_ideal_power(2)))
    chk = ic.check_difference_formula(pair, trials=4, seed=0)
    assert chk.equal


def test_difference_formula_refuses_infinite_length_as_the_audits_do():
    # I_2 = (x^2, xy^3) holds no power of y, so by Fitting's lemma the length is infinite
    mat = ic.matrix_from_json({"rank": 2, "cols": [[[[1, 0, 1]], []], [[], [[1, 0, 1]]],
                                                   [[], [[0, 3, 1]]]]})
    for check in (ic.check_difference_formula, ic.audit_gap_bound, ic.audit_summand_hypotheses):
        with pytest.raises(NotFiniteColength) as info:
            check(mat)
        assert str(info.value) == ("minor ideal [[2, 0], [1, 3]] is not m-primary: "
                                   "infinite length"), check.__name__


def test_dual_oracle_on_complete_box_and_random_noncomplete():
    complete = ic.enumerate_complete_staircases(6, 6, min_r=1)
    for ideal in complete:
        s = ic.reduction_multiplicity(ideal, trials=4, seed=0)
        assert s.value == ic.area_multiplicity(ideal), ideal.to_pairs()
    rng = random.Random(17)
    pool = [i for i in ic.enumerate_staircases(6, 6, min_r=1) if not i.is_complete()]
    for ideal in rng.sample(pool, 50):
        s = ic.reduction_multiplicity(ideal, trials=4, seed=0)
        assert s.value == ic.area_multiplicity(ideal), ideal.to_pairs()


def test_gap_bound_on_direct_sums():
    rng = random.Random(23)
    complete = ic.enumerate_complete_staircases(6, 6, min_r=1)
    for _ in range(30):
        parts = rng.sample(complete, rng.choice((2, 2, 3)))
        mat = ic.from_ideal(parts[0])
        for p in parts[1:]:
            mat = direct_sum(mat, ic.from_ideal(p))
        rec = ic.audit_gap_bound(mat)
        assert rec.passed, [p.to_pairs() for p in parts]
