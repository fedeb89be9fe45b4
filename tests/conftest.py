"""Shared fixtures, matrix strategies and independent brute-force oracles for
the test suite.

The oracles deliberately avoid the library's own algorithms: colengths come
from lattice scans, hull vertices from pairwise domination tests over exact
fractions, determinants from permutation expansion, and ranks from dense
fraction-free elimination.  The integral closure also has an oracle that is
fast enough for exponents in the hundreds: the maximum over all edge forms.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import strategies as st

import icmod as ic
import icmod.modmat as modmat
import icmod.multiplicity as multiplicity


def lattice_colength(ideal: ic.MonomialIdeal) -> int:
    """Count lattice points outside the staircase by brute scan."""
    a0 = ideal.gens[0].a
    br = ideal.gens[-1].b
    count = 0
    for a in range(a0 + 1):
        for b in range(br + 1):
            if not ideal.contains((a, b)):
                count += 1
    return count


def _dominated_by_segment(p, q1, q2) -> bool:
    """Is p componentwise above some convex combination of q1 and q2?"""
    lo, hi = Fraction(0), Fraction(1)
    for k in (0, 1):
        d = q1[k] - q2[k]
        rhs = p[k] - q2[k]
        if d == 0:
            if rhs < 0:
                return False
        elif d > 0:
            hi = min(hi, Fraction(rhs, d))
        else:
            lo = max(lo, Fraction(rhs, d))
    return lo <= hi


def in_newton_polyhedron(p, points) -> bool:
    """Exact membership of p in the hull of points plus the positive quadrant."""
    pts = list(points)
    for q1 in pts:
        for q2 in pts:
            if _dominated_by_segment(p, q1, q2):
                return True
    return False


def brute_hull_vertices(points) -> list[tuple[int, int]]:
    """Vertices as points not dominated by the polyhedron of the others."""
    pts = [tuple(p) for p in points]
    verts = [p for p in pts if not in_newton_polyhedron(p, [q for q in pts if q != p])]
    return sorted(verts, key=lambda v: (-v[0], v[1]))


def brute_closure(ideal: ic.MonomialIdeal) -> ic.MonomialIdeal:
    """Integral closure by scanning every lattice point against the polyhedron."""
    pts = [tuple(g) for g in ideal.gens]
    a0 = ideal.gens[0].a
    br = ideal.gens[-1].b
    members = []
    for a in range(a0 + 1):
        for b in range(br + 1):
            if in_newton_polyhedron((a, b), pts):
                members.append((a, b))
    return ic.canonicalize(members)


def closure_by_edge_forms(ideal: ic.MonomialIdeal) -> ic.MonomialIdeal:
    """Integral closure as the maximum over every hull edge's form at each height.

    The hull comes from the library (checked against brute_hull_vertices
    elsewhere); the closure itself does not assume that the binding edge at a
    height is the one spanning it.
    """
    hull = ideal.newton_vertices().vertices
    forms = []  # (dq, dp, c): a point (u, v) is over the edge iff dq*u + dp*v >= c
    for i in range(1, len(hull)):
        dp = hull[i - 1].a - hull[i].a
        dq = hull[i].b - hull[i - 1].b
        forms.append((dq, dp, dq * hull[i - 1].a + dp * hull[i - 1].b))
    gens = []
    for b in range(ideal.gens[-1].b + 1):
        need = 0
        for dq, dp, c in forms:
            rem = c - dp * b
            if rem > 0:
                need = max(need, -(-rem // dq))  # ceiling division
        gens.append((need, b))
    return ic.canonicalize(gens)


def rectangle_witness(ideal: ic.MonomialIdeal, closure: ic.MonomialIdeal):
    """Least (degree, b) point of the closure outside the ideal, by a full box scan."""
    best = None
    for b in range(ideal.gens[-1].b + 1):
        for a in range(ideal.gens[0].a + 1):
            if closure.contains((a, b)) and not ideal.contains((a, b)):
                if best is None or (a + b, b) < (sum(best), best[1]):
                    best = (a, b)
    return best


def is_contracted_numeric(ideal: ic.MonomialIdeal) -> bool:
    """Numeric contraction test: generator count equals order plus one."""
    return len(ideal.gens) == min(g.a + g.b for g in ideal.gens) + 1


def P(*terms) -> ic.BiPoly:
    """Polynomial from (a, b, coefficient) triples; repeated monomials add up."""
    return ic.BiPoly(((a, b), c) for a, b, c in terms)


small_entries = st.dictionaries(
    keys=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    values=st.integers(-2, 2),
    max_size=3,
).map(ic.BiPoly)


@st.composite
def small_matrices(draw):
    """Multi-term matrices of rank 1-4 with one to six columns."""
    e = draw(st.integers(1, 4))
    column = st.lists(small_entries, min_size=e, max_size=e).map(tuple).filter(any)
    return ic.PresMatrix(e, tuple(draw(st.lists(column, min_size=1, max_size=6))))


@st.composite
def truncation_matrices(draw):
    """Multi-term matrices of rank 1-3.

    Most draws add an x-power and a y-power column for each component, some
    with an xy term, so that the certificate holds below the degree built.
    """
    e = draw(st.integers(1, 3))
    column = st.lists(small_entries, min_size=e, max_size=e).map(tuple).filter(any)
    cols = draw(st.lists(column, min_size=1, max_size=3))
    if draw(st.integers(0, 3)):
        for k in range(e):
            for a, b in ((draw(st.integers(1, 3)), 0), (0, draw(st.integers(1, 2)))):
                col = [ic.BiPoly.zero()] * e
                col[k] = P((a, b, 1), *draw(st.sampled_from(((), ((1, 1, 1),)))))
                cols.append(tuple(col))
    return ic.PresMatrix(e, tuple(cols))


def direct_sum(p1: ic.PresMatrix, p2: ic.PresMatrix) -> ic.PresMatrix:
    """Block-diagonal sum; colengths add and top minors multiply."""
    zero = ic.BiPoly.zero()
    top = [tuple(col) + (zero,) * p2.rank for col in p1.cols]
    bot = [(zero,) * p1.rank + tuple(col) for col in p2.cols]
    return ic.PresMatrix(p1.rank + p2.rank, tuple(top + bot))


def ideal_sum(ideals) -> ic.PresMatrix:
    """Presentation of I_1 + ... + I_p inside the rank-p free module: row k holds
    the generators of I_k, one single-term column each."""
    mat = ic.from_ideal(ideals[0])
    for ideal in ideals[1:]:
        mat = direct_sum(mat, ic.from_ideal(ideal))
    return mat


def mixed_multiplicity(i: ic.MonomialIdeal, j: ic.MonomialIdeal) -> int:
    """e(I | J) = (e(IJ) - e(I) - e(J)) / 2, the mixed multiplicity of two m-primary ideals."""
    twice = (ic.area_multiplicity(i * j) - ic.area_multiplicity(i)
             - ic.area_multiplicity(j))
    assert twice % 2 == 0
    return twice // 2


def kirby_rees_multiplicity(ideals) -> int:
    """Buchsbaum-Rim multiplicity of I_1 + ... + I_p by Kirby and Rees: the sum of
    the e(I_k) and of the mixed e(I_k | I_l) over k < l ("Multiplicities in graded
    rings I: the general theory", Contemp. Math. 159, 1994).  Each e is an area,
    so no sample is drawn."""
    return (sum(ic.area_multiplicity(i) for i in ideals)
            + sum(mixed_multiplicity(i, j) for i, j in combinations(ideals, 2)))


class Work(Exception):
    """Raised in place of the first sample, minor table or truncation build."""


def _work(*_args, **_kwargs):
    raise Work


@contextlib.contextmanager
def refusing_work():
    """Make a sample, a minor table or a truncation build raise Work, so that a
    refusal met inside the block came before all three."""
    with (mock.patch.object(multiplicity, "_sampled_reduction", _work),
          mock.patch.object(modmat, "signed_minor_table", _work),
          mock.patch.object(modmat, "_truncation", _work)):
        yield


def permutation_det(entries) -> dict[tuple[int, int], int]:
    """Determinant of a small square matrix of polynomials, by full expansion.

    The result is a term dict {(a, b): coefficient} without zero coefficients,
    the form the minor table stores.
    """
    n = len(entries)
    total: dict[tuple[int, int], int] = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = {(0, 0): sign}
        for i in range(n):
            nxt: dict[tuple[int, int], int] = {}
            for (a, b), c in prod.items():
                for mon, d in entries[i][perm[i]].items():
                    key = (a + mon.a, b + mon.b)
                    nxt[key] = nxt.get(key, 0) + c * d
            prod = nxt
        for key, c in prod.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def term_dict(poly: ic.BiPoly) -> dict[tuple[int, int], int]:
    """Terms of a polynomial as the minor table stores them: {(a, b): coefficient}."""
    return {(mon.a, mon.b): c for mon, c in poly.items()}


def brute_minors(mat: ic.PresMatrix, t: int) -> dict:
    """Every nonzero t-minor as a term dict, keyed by (row tuple, column bitmask)."""
    minors = {}
    for rows in combinations(range(mat.rank), t):
        for cs in combinations(range(mat.ncols), t):
            det = permutation_det([[mat.cols[j][i] for j in cs] for i in rows])
            if det:
                minors[(rows, sum(1 << j for j in cs))] = det
    return minors


def brute_fitting(mat: ic.PresMatrix, t: int) -> ic.MonomialIdeal | None:
    """Ideal of the one-term t-minors if it holds every term of every t-minor, else None."""
    dets = brute_minors(mat, t).values()
    singles = [mon for det in dets if len(det) == 1 for mon in det]
    if not singles:
        return None
    for det in dets:
        for a, b in det:
            if not any(a >= sa and b >= sb for sa, sb in singles):
                return None
    return ic.canonicalize(singles)


def rank_exact(rows) -> int:
    """Rank over the rationals of an integer matrix, by Bareiss elimination."""
    mat = [list(map(int, row)) for row in rows]
    if not mat or not mat[0]:
        return 0
    m, n = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        for i in range(rank + 1, m):
            f = mat[i][col]
            for j in range(col + 1, n):
                mat[i][j] = (mat[i][j] * pivot - f * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = pivot
        rank += 1
        if rank == m:
            break
    return rank


@pytest.fixture(scope="session")
def example_reference():
    """The complete order-8-by-8 reference ideal with four hull vertices."""
    return ic.canonicalize([(8, 0), (6, 1), (3, 2), (2, 3), (1, 4), (0, 8)])


@pytest.fixture(scope="session")
def showcase_a():
    """Complete ideal of order 5 whose top-rank module is decomposable."""
    return ic.canonicalize([(7, 0), (4, 1), (3, 2), (2, 4), (1, 5), (0, 9)])


@pytest.fixture(scope="session")
def showcase_b():
    """Complete ideal of order 5 whose modules are indecomposable up to rank 5."""
    return ic.canonicalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 9)])


@pytest.fixture(scope="session")
def chain_ideal():
    """Product of the ideals (x, y^i) for i = 1..4; order 4, five generators."""
    acc = ic.canonicalize([(1, 0), (0, 1)])
    for i in range(2, 5):
        acc = acc * ic.canonicalize([(1, 0), (0, i)])
    return acc


@pytest.fixture(scope="session")
def remark_counterexample():
    """Complete ideal whose rank-4 module fails to be integrally closed."""
    return ic.canonicalize([(1, 0), (0, 3)]) * ic.simple_closure(5, 3)
