import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import icmod as ic
from icmod import algebra
from icmod.algebra import GraphSpan, PivotSpan, X, Y, tri

from conftest import P, permutation_det, rank_exact


def test_poly_add_cancellation():
    # a repeated monomial adds up, and a zero sum leaves no term
    assert P((1, 0, 1), (0, 1, 1), (0, 1, -1)) == X
    assert P((2, 1, 3), (2, 1, -3)) == ic.BiPoly.zero()
    assert not P((2, 1, 3), (2, 1, -3))


def test_poly_add_identity():
    p = P((2, 1, 3), (0, 0, -1))
    assert P((2, 1, 3), (1, 1, 0), (0, 0, -1)) == p
    assert ic.BiPoly(p.items()) == p


def test_poly_add_doubling():
    assert P((2, 1, 1), (2, 1, 1)) == P((2, 1, 2))
    assert P((2, 1, 1), (0, 3, 5), (2, 1, 1)).to_triples() == [[2, 1, 2], [0, 3, 5]]


def test_poly_str_and_triples_roundtrip():
    p = P((2, 1, -3), (0, 0, 1))
    assert ic.BiPoly.from_triples(p.to_triples()) == p
    assert repr(ic.BiPoly.zero()) == "BiPoly([])"
    assert repr(P((0, 1, 1), (1, 0, 1))) == "BiPoly([[1, 0, 1], [0, 1, 1]])"


@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.integers(-9, 9).filter(bool), max_size=8).flatmap(
    lambda terms: st.permutations(sorted(terms.items()))))
def test_writers_render_terms_in_canonical_order(terms):
    # whatever order the terms went in, the writers list degree descending, then x descending
    p = ic.BiPoly(terms)
    canonical = sorted(terms, key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))
    assert p.to_triples() == [[a, b, c] for (a, b), c in canonical]
    assert sorted(p.items()) == sorted(terms)


def test_engines_read_terms_without_sorting(monkeypatch, showcase_a):
    # only the writers order terms; every engine reads them as stored
    def refuse(_item):
        raise AssertionError("an engine sorted the terms of an entry")

    monkeypatch.setattr(algebra, "_term_key", refuse)
    lin = ic.BiPoly.from_triples([[1, 0, 1], [0, 1, 1]])
    cut = ic.PresMatrix(1, ((ic.BiPoly.term(2, 0),), (lin,), (ic.BiPoly.term(0, 3),)))
    assert (ic.colength_module(cut), ic.mu_module(cut)) == (2, 2)
    assert ic.signed_minor_table(cut)[2] == {(1, 0): 1, (0, 1): 1}
    sample = ic.reduction_multiplicity(showcase_a, trials=4, seed=0)
    assert sample.value == ic.area_multiplicity(showcase_a)
    built = ic.build_module(ic.canonicalize([(2, 0), (1, 1), (0, 2)]), 2)
    assert ic.module_multiplicity(built, trials=4, seed=0).certified
    with pytest.raises(AssertionError):
        lin.to_triples()


def test_rank_exact_trivial():
    assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[2, 4], [1, 2]]) == 1


def _dense_rank(rows, ncols):
    mat = []
    for row in rows:
        dense = [0] * ncols
        for c, v in row:
            dense[c] += v
        mat.append(dense)
    return rank_exact(mat)


def _signed(rng, mag):
    return rng.choice((-mag, mag))


def test_graph_span_matches_dense_rank():
    # few single rows leave components without one, so their cycle signs decide the rank
    rng = random.Random(7)
    for trial in range(90):
        small = trial < 60
        n = rng.randint(2, 14) if small else rng.randint(40, 200)
        singles = (0.0, 0.1, 0.4)[trial % 3]
        rows = []
        if trial % 2:
            # a long chain over a shuffled path
            path = rng.sample(range(n), n)
            for u, v in zip(path, path[1:]):
                mag = rng.choice((1, 2, 3, 7))
                rows.append([(u, _signed(rng, mag)), (v, _signed(rng, mag))])
        for _ in range(rng.randint(1, 25 if small else n // 2)):
            if rng.random() < singles:
                rows.append([(rng.randrange(n), _signed(rng, rng.randint(1, 5)))])
            else:
                u, v = rng.sample(range(n), 2)
                mag = rng.choice((1, 1, 2, 3))
                rows.append([(u, _signed(rng, mag)), (v, _signed(rng, mag))])
        rng.shuffle(rows)
        span = GraphSpan(n)
        if small:  # row by row
            before = 0
            for k, row in enumerate(rows):
                after = _dense_rank(rows[:k + 1], n)
                assert span.add(list(row)) == (after > before) and span.rank == after
                before = after
        else:
            got = sum(1 for row in rows if span.add(list(row)))
            assert got == span.rank == _dense_rank(rows, n)


def test_pivot_span_matches_dense_rank():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 10)
        rows = []
        for _ in range(rng.randint(1, 18)):
            row = [(c, rng.randint(-4, 4)) for c in rng.sample(range(n), rng.randint(1, n))]
            rows.append([(c, v) for c, v in row if v])
        rows = [r for r in rows if r]
        span = PivotSpan(n)
        got = sum(1 for row in rows if span.add(row))
        assert got == span.rank == _dense_rank(rows, n)


def _suffix_filling_rows(rng, n):
    """Random rows in random order, among them ones that fill a coordinate suffix.

    For each coordinate j from a random start up there is a row leading at j,
    so the span holds that whole suffix once they are all in.  The other rows
    are random, or integer combinations of two other rows (these reduce to
    zero when they come after both).
    """
    start = rng.randrange(n)
    rows = [[(j, rng.choice((-3, -2, -1, 1, 2, 3)))]
            + [(c, rng.randint(-5, 5)) for c in range(j + 1, n)] for j in range(start, n)]
    for _ in range(rng.randint(0, 2 * n)):
        if len(rows) >= 2 and rng.random() < 0.3:
            (r1, r2), (m1, m2) = rng.sample(rows, 2), (rng.randint(-3, 3), rng.randint(-3, 3))
            dense = [0] * n
            for r, m in ((r1, m1), (r2, m2)):
                for c, v in r:
                    dense[c] += m * v
            rows.append([(c, v) for c, v in enumerate(dense)])
        else:
            rows.append([(c, rng.randint(-4, 4)) for c in rng.sample(range(n), rng.randint(1, n))])
    rng.shuffle(rows)
    return [[(c, v) for c, v in row if v] for row in rows]


def test_pivot_span_trimmed_suffix_matches_dense_rank():
    rng = random.Random(23)
    trimmed = 0
    for _ in range(80):
        n = rng.randint(1, 9)
        span = PivotSpan(n)
        seen = []
        for row in _suffix_filling_rows(rng, n):
            before, top = _dense_rank(seen, n), span.top
            seen.append(row)
            after = _dense_rank(seen, n)
            assert span.add(row) == (after > before) and span.rank == after
            members = [_dense_rank(seen + [[(u, 1)]], n) == after for u in range(n)]
            assert [span.contains_single(u) for u in range(n)] == members
            # top is the start of the longest coordinate suffix inside the span
            assert span.top == next(t for t in range(n + 1) if all(members[t:]))
            trimmed += any(c >= top for c, _v in row)
        assert span.top < n
    assert trimmed > 100


def test_span_membership_of_basis_vectors():
    ps = PivotSpan(3)
    ps.add([(0, 2), (1, 3)])
    assert not ps.contains_single(0)
    ps.add([(1, 1)])
    assert ps.contains_single(0) and not ps.contains_single(2)


def monomial_position(a: int, b: int) -> int:
    """Index of x^a y^b in the truncation engine's degree-lex coordinates (x before y)."""
    return tri(a + b) + b


def test_monomial_position_is_degree_lex():
    order = sorted(
        ((a, b) for a in range(6) for b in range(6) if a + b < 5),
        key=lambda m: monomial_position(*m),
    )
    # within a degree block, x-heavy monomials come first
    assert order[:6] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(order) == tri(5)


def test_minor_table_agrees_with_permutation_expansion():
    cols = (
        (P((1, 0, 1), (0, 1, 1)), ic.BiPoly.term(0, 2)),
        (ic.BiPoly.term(2, 0, -1), X),
        (Y, ic.BiPoly.zero()),
    )
    mat = ic.PresMatrix(2, cols)
    table = ic.signed_minor_table(mat)
    from itertools import combinations

    for cs in combinations(range(3), 2):
        entries = [[mat.cols[j][i] for j in cs] for i in range(2)]
        mask = sum(1 << j for j in cs)
        assert table.get(mask, {}) == permutation_det(entries)
