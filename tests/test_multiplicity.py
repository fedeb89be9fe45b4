import random

import pytest

import icmod as ic
from icmod.algebra import BiPoly
from icmod.modmat import NotFiniteColength, PresMatrix
from icmod.multiplicity import _sampled_minors

from conftest import permutation_det


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
    s = ic.reduction_multiplicity(ic.maximal_ideal(), trials=4, seed=0)
    assert s.value == 1 and s.certified
    s = ic.reduction_multiplicity(ic.canonicalize([(2, 0), (0, 3)]), trials=4, seed=0)
    assert s.value == 6
    s = ic.reduction_multiplicity(showcase_a, trials=4, seed=0)
    assert s.value == ic.area_multiplicity(showcase_a)


def test_reduction_requires_primary_and_enough_trials():
    with pytest.raises(ValueError):
        ic.reduction_multiplicity(ic.canonicalize([(1, 0)]), trials=4, seed=0)
    with pytest.raises(ValueError):
        ic.reduction_multiplicity(ic.maximal_ideal(), trials=1, seed=0)


def test_module_multiplicity_examples(showcase_a):
    s = ic.module_multiplicity(ic.from_ideal(ic.maximal_ideal()), trials=4, seed=0)
    assert s.value == 1
    for k in (1, 2, 3, 4):
        s = ic.module_multiplicity(free_times_max_ideal(k), trials=4, seed=0)
        assert s.value == (k + 1) * k // 2 and s.certified
    s = ic.module_multiplicity(ic.build_module(showcase_a, 4), trials=4, seed=0)
    assert s.value == 28  # area 34 minus the colength gap 6


def test_module_multiplicity_infinite_colength():
    single = PresMatrix(1, ((BiPoly.term(1, 0),),))
    with pytest.raises(NotFiniteColength):
        ic.module_multiplicity(single, trials=2, seed=0, cap=16)


def test_sampled_minors_match_permutation_expansion(showcase_a):
    mat = ic.build_module(showcase_a, 3)
    rng = random.Random(42)
    lam = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(mat.ncols)]
    minors = _sampled_minors(mat, lam)
    # the combined 3x4 polynomial matrix, expanded independently
    w = [[BiPoly.zero() for _ in range(4)] for _ in range(3)]
    for j, col in enumerate(mat.cols):
        for i in range(3):
            for jj in range(4):
                w[i][jj] = w[i][jj] + col[i] * lam[j][jj]
    for drop in range(4):
        entries = [[w[i][jj] for jj in range(4) if jj != drop] for i in range(3)]
        assert minors[drop] == permutation_det(entries)
    # a combination that kills a column leaves a degenerate draw
    lam = [row[:3] + [0] for row in lam]
    assert _sampled_minors(mat, lam) == []


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

    pair = ic.direct_sum(ic.from_ideal(ic.simple_closure(2, 3)),
                         ic.from_ideal(ic.maximal_ideal_power(2)))
    chk = ic.check_difference_formula(pair, trials=4, seed=0)
    assert chk.equal


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
            mat = ic.direct_sum(mat, ic.from_ideal(p))
        e = mat.rank
        rec = ic.audit_gap_bound(mat, e)
        assert rec.passed, [p.to_pairs() for p in parts]
