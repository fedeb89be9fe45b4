import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import icmod as ic
import icmod.modmat as modmat
from icmod.algebra import BiPoly
from icmod.modmat import NotFiniteColength, PresMatrix, certified_colength
from icmod.multiplicity import ReductionSample, _sampled_reduction

from conftest import (Work, direct_sum, ideal_sum, kirby_rees_multiplicity, permutation_det,
                      refusing_work, small_matrices, term_dict, truncation_matrices)


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
    # (x) and (x, 0) have a row divisible by x, so no sample is drawn
    for mat in (PresMatrix(1, ((BiPoly.term(1, 0),),)),
                PresMatrix(2, ((BiPoly.term(1, 0), BiPoly.zero()),))):
        with pytest.raises(NotFiniteColength) as info:
            ic.module_multiplicity(mat, trials=2, seed=0, cap=16)
        assert str(info.value) == "every term of row 0 is divisible by x: infinite length"
    # generic combinations of x^8, y^8 certify at degree 15 only
    with pytest.raises(NotFiniteColength, match=r"truncation cap 14 \(4 of 4 trials reached it"):
        ic.module_multiplicity(ic.from_ideal(ic.canonicalize([(8, 0), (0, 8)])), cap=14)
    # every 2 x 2 minor of a combination of one column (1, 1) vanishes
    one = BiPoly.term(0, 0)
    with pytest.raises(NotFiniteColength, match="all 4 samples were degenerate"):
        ic.module_multiplicity(PresMatrix(2, ((one, one),)), trials=4, seed=0)


# every entry point that refuses infinite length through the row proof
ROW_PROOF_ENTRIES = pytest.mark.parametrize(
    "entry", [ic.module_multiplicity, modmat.finite_fitting, ic.colength_module],
    ids=lambda f: f.__name__)


@ROW_PROOF_ENTRIES
@settings(max_examples=100, deadline=None)
@given(small_matrices(), st.data())
def test_a_row_divisible_by_a_variable_is_refused_before_any_sample(entry, mat, data):
    row = data.draw(st.integers(0, mat.rank - 1))
    da, db = data.draw(st.sampled_from(((1, 0), (0, 1))))
    mat = PresMatrix(mat.rank, tuple(
        col[:row] + (BiPoly(((m.a + da, m.b + db), c) for m, c in col[row].items()),)
        + col[row + 1:] for col in mat.cols))
    with refusing_work():
        with pytest.raises(NotFiniteColength, match=r"^every term of row \d is divisible by "
                                                    r"[xy]: infinite length$"):
            entry(mat)


def test_refusing_work_refuses_calls_with_keyword_arguments():
    with refusing_work():
        for call in (lambda: modmat._truncation([], 1, 0, leads=None),
                     lambda: modmat.signed_minor_table(mat=None)):
            with pytest.raises(Work):
                call()


def assert_samples(mat):
    with refusing_work():
        with pytest.raises(Work):
            ic.module_multiplicity(mat)


@ROW_PROOF_ENTRIES
@settings(max_examples=100, deadline=None)
@given(truncation_matrices())
def test_the_row_proof_never_refuses_a_module_of_finite_length(entry, mat):
    try:
        certified_colength(mat, 12)
    except NotFiniteColength:
        assume(False)
    with refusing_work():
        try:
            entry(mat)  # a value, or the work that follows the proof
        except Work:
            pass


def test_the_row_proof_passes_every_built_module_of_the_6x6_box():
    for ideal in ic.enumerate_staircases(6, 6, min_r=1):
        assert_samples(ic.from_ideal(ideal))
        for e in range(2, ideal.r + 1):
            try:
                mat = ic.build_module(ideal.normalized(), e)
            except (ic.NegativeExponent, ic.RankOutOfRange):
                continue
            assert_samples(mat)


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
    minors, _relations = _sampled_reduction(mat, coeffs)
    # the combined 3x4 polynomial matrix w[i][k] = sum over j of coeffs[k][j] * mat[i][j]
    # (the constructor adds up repeated monomials), expanded independently
    w = [[BiPoly((mon, c * w_j) for col, w_j in zip(mat.cols, weights) for mon, c in col[i].items())
          for weights in coeffs] for i in range(3)]
    expanded = [permutation_det([[w[i][k] for k in range(4) if k != drop] for i in range(3)])
                for drop in range(4)]
    assert all(expanded)
    assert [term_dict(g) for g in minors] == expanded
    # a combination that kills a column leaves a degenerate draw
    coeffs[3] = [0] * mat.ncols
    assert _sampled_reduction(mat, coeffs) == ([], [])


def combined(mat, coeffs):
    """The sampled matrix w[i][k] = sum over j of coeffs[k][j] * mat[i][j], built apart
    from the library (the constructor adds up repeated monomials)."""
    return [[BiPoly((mon, c * w_j) for col, w_j in zip(mat.cols, weights)
                    for mon, c in col[i].items())
             for weights in coeffs] for i in range(mat.rank)]


def sum_of_products(pairs) -> dict:
    """sum f * g over the pairs, as a term dict without zero coefficients."""
    total: dict = {}
    for f, g in pairs:
        for m, c in f.items():
            for n, d in g.items():
                key = (m.a + n.a, m.b + n.b)
                total[key] = total.get(key, 0) + c * d
    return {key: c for key, c in total.items() if c}


@settings(max_examples=60, deadline=None)
@given(small_matrices().filter(lambda m: m.rank >= 2), st.randoms(use_true_random=False))
def test_each_sampled_relation_vanishes_on_the_minors(mat, rng):
    # expanding det A with row i repeated: sum over k of (-1)^k a_ik g_k = 0
    e = mat.rank
    coeffs = [[rng.randint(-3, 3) for _ in range(mat.ncols)] for _ in range(e + 1)]
    minors, relations = _sampled_reduction(mat, coeffs)
    w = combined(mat, coeffs)
    if not all(any(w[i][k] for i in range(e)) for k in range(e + 1)):
        assert (minors, relations) == ([], [])
        return
    expanded = [BiPoly(permutation_det([[w[i][k] for k in range(e + 1) if k != drop]
                                        for i in range(e)])) for drop in range(e + 1)]
    live = [k for k in range(e + 1) if expanded[k]]
    assert minors == [expanded[k] for k in live]
    assert relations == [tuple(BiPoly((m, (-1) ** k * c) for m, c in w[i][k].items())
                               for k in live) for i in range(e)]
    for rel in relations:
        assert sum_of_products(zip(rel, minors)) == {}


def test_built_modules_sample_relations_that_vanish(showcase_a):
    for e in (2, 3, 4):
        mat = ic.build_module(showcase_a, e)
        rng = random.Random(e)
        coeffs = [[rng.randint(-9, 9) for _ in range(mat.ncols)] for _ in range(e + 1)]
        minors, relations = _sampled_reduction(mat, coeffs)
        assert len(minors) == e + 1 and len(relations) == e
        for rel in relations:
            assert any(rel) and sum_of_products(zip(rel, minors)) == {}
        # equal combinations 0 and e leave g_0 and g_e, so each relation has two terms
        # whose signs, 1 and (-1)^e, are read off k and not off the position
        coeffs[e] = coeffs[0]
        minors, relations = _sampled_reduction(mat, coeffs)
        assert len(minors) == 2
        for rel in relations:
            assert sum_of_products(zip(rel, minors)) == {}


BOX3 = list(ic.enumerate_staircases(3, 3))


def test_kirby_rees_oracle_examples():
    m = ic.maximal_ideal_power(1)
    assert kirby_rees_multiplicity([m]) == 1
    for k in (2, 3, 4):  # e(m R^k) = k(k + 1) / 2
        assert kirby_rees_multiplicity([m] * k) == k * (k + 1) // 2
    # e(I | m) is the order of I, here 2
    assert kirby_rees_multiplicity([ic.canonicalize([(2, 0), (0, 3)]), m]) == 6 + 1 + 2


def test_module_multiplicity_equals_kirby_rees_on_every_pair_of_the_3x3_box():
    # certified values are checked before refusals, so a sampler that certifies a
    # wrong minimum fails on that value
    wrong, uncertified = [], []
    for pair in combinations_with_replacement(BOX3, 2):
        names = [ideal.to_pairs() for ideal in pair]
        try:
            value = ic.module_multiplicity(ideal_sum(pair)).value
        except ic.Uncertified:
            uncertified.append(names)
            continue
        if value != kirby_rees_multiplicity(pair):
            wrong.append((names, value, kirby_rees_multiplicity(pair)))
    assert wrong == []
    assert uncertified == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(BOX3), min_size=2, max_size=3), st.integers(0, 3))
def test_module_multiplicity_equals_kirby_rees_on_sums_of_the_3x3_box(ideals, seed):
    sample = ic.module_multiplicity(ideal_sum(ideals), seed=seed)
    assert sample.value == kirby_rees_multiplicity(ideals)


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
    # I_2 = (x^2, xy^3) holds no power of y, and every term of row 0 is divisible by x;
    # the columns (x, 0), (0, x), (y, y) have no such row, and I_2 = (x^2, xy)
    for cols, reason in (
            ([[[[1, 0, 1]], []], [[], [[1, 0, 1]]], [[], [[0, 3, 1]]]],
             "every term of row 0 is divisible by x: infinite length"),
            ([[[[1, 0, 1]], []], [[], [[1, 0, 1]]], [[[0, 1, 1]], [[0, 1, 1]]]],
             "minor ideal [[2, 0], [1, 1]] is not m-primary: infinite length")):
        mat = ic.matrix_from_json({"rank": 2, "cols": cols})
        for check in (ic.check_difference_formula, ic.audit_gap_bound,
                      ic.audit_summand_hypotheses):
            with pytest.raises(NotFiniteColength) as info:
                check(mat)
            assert str(info.value) == reason, check.__name__


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
        assert rec["pass"], [p.to_pairs() for p in parts]
