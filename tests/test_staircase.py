import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import icmod as ic
from icmod.staircase import EmptyGenerators, NotComplete, NotPrimary

from conftest import P, brute_closure, brute_hull_vertices, lattice_colength


def test_canonicalize_drops_divisible_generators():
    ideal = ic.canonicalize([(2, 0), (2, 1), (0, 3)])
    assert ideal.to_pairs() == [[2, 0], [0, 3]]


def test_canonicalize_keeps_reference_ideal(example_reference):
    assert example_reference.to_pairs() == [[8, 0], [6, 1], [3, 2], [2, 3], [1, 4], [0, 8]]


def test_canonicalize_rejects_bad_input_and_keeps_non_primary():
    # a staircase that misses an axis is a valid value; its invariants refuse it
    half = ic.canonicalize([(1, 0)])
    assert not half.is_m_primary
    with pytest.raises(NotPrimary):
        half.order()
    with pytest.raises(EmptyGenerators):
        ic.canonicalize([])
    with pytest.raises(ValueError):
        ic.canonicalize([(-1, 2)])


def test_contains(showcase_b):
    assert showcase_b.contains((5, 0))
    assert not showcase_b.contains((4, 1))
    assert not showcase_b.contains((0, 0))


def test_contains_matches_linear_scan():
    non_primary = [ic.canonicalize([(3, 1), (1, 4)]), ic.canonicalize([(2, 0)])]
    for ideal in list(ic.enumerate_staircases(5, 5)) + non_primary:
        for a in range(7):
            for b in range(7):
                expected = any(g.a <= a and g.b <= b for g in ideal.gens)
                assert ideal.contains((a, b)) == expected, (ideal.to_pairs(), a, b)


def test_order(showcase_a):
    assert showcase_a.order() == 5
    assert ic.maximal_ideal().order() == 1
    assert ic.canonicalize([(4, 0), (3, 1), (2, 2), (0, 4)]).order() == 4


def test_mu(showcase_a, example_reference):
    assert showcase_a.mu() == 6
    assert example_reference.mu() == 6
    for n in (1, 2, 5):
        assert ic.maximal_ideal_power(n).mu() == n + 1


def test_colength(showcase_a):
    assert ic.maximal_ideal().colength() == 1
    assert ic.maximal_ideal_power(3).colength() == 6
    assert showcase_a.colength() == 23
    assert lattice_colength(showcase_a) == 23


def test_product_and_sum():
    m = ic.maximal_ideal()
    j = ic.canonicalize([(1, 0), (0, 2)])
    assert (m * j).to_pairs() == [[2, 0], [1, 1], [0, 3]]
    assert ic.canonicalize(m.gens + j.gens) == m
    with pytest.raises(ValueError):
        m ** 0


def test_product_of_reference_factors(example_reference):
    prod = (
        ic.simple_closure(5, 2)
        * ic.maximal_ideal() ** 2
        * ic.canonicalize([(1, 0), (0, 4)])
    )
    assert prod == example_reference


def test_newton_vertices(example_reference, showcase_b):
    assert [tuple(v) for v in example_reference.newton_vertices().vertices] == [
        (8, 0), (3, 2), (1, 4), (0, 8)]
    assert [tuple(v) for v in ic.canonicalize([(2, 0), (0, 3)]).newton_vertices().vertices] == [
        (2, 0), (0, 3)]
    got = [tuple(v) for v in showcase_b.newton_vertices().vertices]
    assert got == [(5, 0), (2, 4), (1, 6), (0, 9)]
    assert got == brute_hull_vertices(showcase_b.to_pairs())


def test_integral_closure(example_reference):
    assert ic.canonicalize([(2, 0), (0, 3)]).integral_closure().to_pairs() == [
        [2, 0], [1, 2], [0, 3]]
    assert example_reference.integral_closure() == example_reference
    for n in (1, 2, 4):
        mn = ic.maximal_ideal_power(n)
        assert mn.integral_closure() == mn


def test_completeness_and_contractedness_flags(showcase_a):
    not_contracted = ic.canonicalize([(4, 0), (3, 1), (2, 2), (0, 4)])
    assert not not_contracted.is_contracted_numeric()
    assert showcase_a.is_complete()
    assert showcase_a.is_contracted_numeric()
    simple = ic.simple_closure(3, 4)
    assert simple.to_pairs() == [[3, 0], [2, 2], [1, 3], [0, 4]]
    assert simple.is_simple()
    assert not showcase_a.is_simple()


def test_zariski_factor(example_reference, showcase_b, chain_ideal):
    assert example_reference.zariski_factor().factors == ((5, 2, 1), (1, 1, 2), (1, 4, 1))
    assert showcase_b.zariski_factor().factors == ((3, 4, 1), (1, 2, 1), (1, 3, 1))
    assert chain_ideal.zariski_factor().factors == (
        (1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1))
    with pytest.raises(NotComplete):
        ic.canonicalize([(2, 0), (0, 3)]).zariski_factor()


def test_swap_axes(showcase_a):
    assert ic.canonicalize([(3, 0), (0, 2)]).swap_axes().to_pairs() == [[2, 0], [0, 3]]
    swapped = showcase_a.swap_axes()
    assert swapped.swap_axes() == showcase_a
    assert swapped.order() == 5
    assert swapped.to_pairs() == [[9, 0], [5, 1], [4, 2], [2, 3], [1, 4], [0, 7]]


def test_json_roundtrip(showcase_a):
    assert ic.from_json(showcase_a.to_json()) == showcase_a
    with pytest.raises(ValueError):
        ic.from_json({"gens": [[1, "x"]]})
    with pytest.raises(ValueError):
        ic.from_json([1, 2])
    # the wire format refuses the unit ideal, also when a generator reduces to it
    for gens in ([[0, 0]], [[3, 1], [0, 0]]):
        with pytest.raises(NotPrimary):
            ic.from_json({"gens": gens})


def test_unit_ideal_in_the_library():
    # the unit ideal touches both axes, and a unit Fitting ideal has colength 0
    unit = ic.canonicalize([(0, 0), (3, 1)])
    assert unit.is_m_primary
    assert (unit.order(), unit.colength()) == (0, 0)
    assert unit.integral_closure() == unit


# ---------------------------------------------------------------------------
# property sweeps
# ---------------------------------------------------------------------------

def test_closure_idempotent_extensive_exhaustive_8x8():
    for ideal in ic.enumerate_staircases(8, 8):
        closed = ideal.integral_closure()
        assert closed.integral_closure() == closed
        assert all(closed.contains(g) for g in ideal.gens)
        assert closed.colength() <= ideal.colength()


def test_closure_matches_brute_polyhedron_scan():
    rng = random.Random(3)
    ideals = list(ic.enumerate_staircases(6, 6))
    for ideal in rng.sample(ideals, 80):
        assert ideal.integral_closure() == brute_closure(ideal)


def test_product_of_complete_ideals_is_complete():
    rng = random.Random(5)
    complete = ic.enumerate_complete_staircases(10, 10)
    for _ in range(200):
        a, b = rng.choice(complete), rng.choice(complete)
        assert (a * b).is_complete()


def test_factorization_rebuild_identity():
    for ideal in ic.enumerate_complete_staircases(10, 10):
        assert ideal.zariski_factor().rebuild() == ideal


def test_order_additive_on_complete_products():
    rng = random.Random(9)
    complete = ic.enumerate_complete_staircases(8, 8)
    for _ in range(120):
        a, b = rng.choice(complete), rng.choice(complete)
        assert (a * b).order() == a.order() + b.order()


def test_complete_normalization_order_equals_r_and_last_step_one():
    # complete staircases have order r and next-to-last x-exponent 1
    for ideal in ic.enumerate_complete_staircases(9, 9, star_only=True):
        assert ideal.order() == ideal.r
        if ideal.r >= 1:
            assert ideal.gens[-2].a == 1


def test_colength_of_principal_sum_with_linear_form():
    # cutting by a generic linear form leaves length equal to the order
    from icmod.algebra import BiPoly
    from icmod.modmat import PresMatrix, colength_module

    rng = random.Random(1)
    ideals = list(ic.enumerate_staircases(5, 5, min_r=1))
    for ideal in rng.sample(ideals, 25):
        cols = [(BiPoly.term(g.a, g.b),) for g in ideal.gens]
        cols.append((P((1, 0, 1), (0, 1, 1)),))
        assert colength_module(PresMatrix(1, tuple(cols))) == ideal.order()


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=8))
def test_canonicalize_minimality_property(points):
    ideal = ic.canonicalize(points)
    gens = ideal.gens
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j:
                assert not (g.a <= h.a and g.b <= h.b)
    assert all(gens[i].a > gens[i + 1].a for i in range(len(gens) - 1))
    assert all(gens[i].b < gens[i + 1].b for i in range(len(gens) - 1))


def test_enumerate_complete_matches_filter():
    # chain enumeration equals brute filtering of all staircases
    chain = set(ic.enumerate_complete_staircases(5, 5))
    brute = {i for i in ic.enumerate_staircases(5, 5) if i.is_complete()}
    assert chain == brute
