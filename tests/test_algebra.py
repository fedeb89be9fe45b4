import random

from hypothesis import given
from hypothesis import strategies as st

import icmod as ic
from icmod.algebra import GraphSpan, PivotSpan, X, Y, tri

from conftest import permutation_det, rank_exact, term_dict


def P(*terms):
    return ic.BiPoly(((a, b), c) for a, b, c in terms)


def test_poly_add_cancellation():
    assert (X + Y) + (-Y) == X


def test_poly_add_identity():
    p = P((2, 1, 3), (0, 0, -1))
    assert ic.BiPoly.zero() + p == p


def test_poly_add_doubling():
    p = P((2, 1, 1))
    assert p + p == P((2, 1, 2))


def test_poly_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == P((2, 0, 1), (0, 2, -1))


def test_poly_mul_identity():
    p = P((3, 2, 5), (1, 0, -2))
    assert p * ic.BiPoly.term(0, 0) == p


def test_poly_mul_square():
    assert (X + Y) * (X + Y) == P((2, 0, 1), (1, 1, 2), (0, 2, 1))


def test_poly_str_and_triples_roundtrip():
    p = P((2, 1, -3), (0, 0, 1))
    assert ic.BiPoly.from_triples(p.to_triples()) == p
    assert str(ic.BiPoly.zero()) == "0"
    assert str(X + Y) == "x + y"


small_polys = st.builds(
    ic.BiPoly,
    st.dictionaries(
        keys=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda m: m[0] + m[1] <= 3
        ),
        values=st.integers(-3, 3),
        max_size=5,
    ),
)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_ring_axioms_exhaustive_monomials():
    monos = [ic.BiPoly.term(a, b, c)
             for a in range(3) for b in range(3) if a + b <= 2
             for c in (-3, 1, 3)]
    for p in monos[:6]:
        for q in monos:
            for r in monos:
                assert (p + q) * r == p * r + q * r
                assert p * q == q * p


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


def test_graph_span_matches_dense_rank():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 14)
        rows = []
        for _ in range(rng.randint(1, 25)):
            if rng.random() < 0.4:
                rows.append([(rng.randrange(n), rng.choice((-1, 1)))])
            else:
                u, v = rng.sample(range(n), 2)
                rows.append([(u, rng.choice((-1, 1))), (v, rng.choice((-1, 1)))])
        span = GraphSpan(n)
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
    span = GraphSpan(4)
    span.add([(0, 1), (1, 1)])
    assert not span.contains_single(0)
    span.add([(1, 1)])
    assert span.contains_single(0) and span.contains_single(1)
    assert not span.contains_single(2)

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
        (X + Y, ic.BiPoly.term(0, 2)),
        (ic.BiPoly.term(2, 0, -1), X),
        (Y, ic.BiPoly.zero()),
    )
    mat = ic.PresMatrix(2, cols)
    table = ic.signed_minor_table(mat, 2)
    from itertools import combinations

    for cs in combinations(range(3), 2):
        entries = [[mat.cols[j][i] for j in cs] for i in range(2)]
        expected = term_dict(permutation_det(entries))
        mask = sum(1 << j for j in cs)
        assert table.get(((0, 1), mask), {}) == expected
