import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icmod as ic
from icmod.algebra import BiPoly, PivotSpan, X, Y, tri
from icmod.modmat import (
    DEFAULT_CAP,
    NonMonomialIdeal,
    NotFiniteColength,
    NotNormalized,
    PresMatrix,
    RankOutOfRange,
    _certified_degree,
    _column_terms,
    _grading,
    _truncation,
    certified_colength,
)

from conftest import P, brute_fitting, brute_minors, lattice_colength, rank_exact, term_dict


def entries_row1(mat):
    return [col[0] for col in mat.cols]


def test_build_structure_showcase_a(showcase_a):
    mat = ic.build_module(showcase_a, 4)
    assert mat.rank == 4 and mat.ncols == 9
    f_exps = [mon for col in mat.cols[:3] for mon, _c in col[0].items()]
    assert f_exps == [(4, 0), (1, 1), (0, 2)]
    h_exps = [mon for i, col in enumerate(mat.cols[6:]) for mon, _c in col[i + 1].items()]
    assert h_exps == [(0, 3), (0, 3), (0, 6)]


def test_build_structure_showcase_b(showcase_b):
    mat = ic.build_module(showcase_b, 5)
    assert mat.ncols == 10
    h_exps = [mon for i, col in enumerate(mat.cols[6:]) for mon, _c in col[i + 1].items()]
    assert h_exps == [(0, 2), (0, 2), (0, 3), (0, 5)]


def test_build_errors(showcase_a):
    with pytest.raises(RankOutOfRange):
        ic.build_module(showcase_a, 6)
    with pytest.raises(RankOutOfRange):
        ic.build_module(showcase_a, 1)
    with pytest.raises(NotNormalized):
        ic.build_module(showcase_a.swap_axes(), 2)
    with pytest.raises(RankOutOfRange):
        ic.build_module(ic.maximal_ideal(), 2)


def test_module_spec_invariants(showcase_b):
    spec = ic.module_spec(showcase_b, 4)
    assert list(spec.aprime) == sorted(spec.aprime, reverse=True)
    assert spec.aprime[-1] >= 0
    assert list(spec.c) == sorted(spec.c)
    assert spec.c[0] >= showcase_b.gens[showcase_b.r - 4 + 1].b


def test_minors_counts_and_band_recursion(showcase_a):
    mat = ic.build_module(showcase_a, 2)
    # each 1-minor is one nonzero entry, keyed by its row and its column's bit
    entries = {((i,), 1 << j): term_dict(entry)
               for j, col in enumerate(mat.cols) for i, entry in enumerate(col) if entry}
    assert ic.signed_minor_table(mat, 1) == entries

    # 2x4 band with unit y-powers: top minors generate the maximal ideal squared
    band = PresMatrix(2, ((X, BiPoly.zero()), (Y, X), (Y, BiPoly.zero()),
                          (BiPoly.zero(), Y)))
    assert ic.fitting_ideal(band, 2) == ic.maximal_ideal_power(2)


def test_minor_table_against_permutation_expansion(showcase_a):
    multi_term = PresMatrix(2, ((P((1, 0, 1), (0, 1, 1)), BiPoly.term(0, 2)),
                                (BiPoly.term(2, 0, -1), X), (Y, BiPoly.zero())))
    for mat, t in ((ic.build_module(showcase_a, 3), 3), (multi_term, 2)):
        assert ic.signed_minor_table(mat, t) == brute_minors(mat, t)


small_entries = st.dictionaries(
    keys=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    values=st.integers(-2, 2),
    max_size=3,
).map(BiPoly)


@st.composite
def small_matrices(draw):
    e = draw(st.integers(1, 4))
    column = st.lists(small_entries, min_size=e, max_size=e).map(tuple).filter(any)
    return PresMatrix(e, tuple(draw(st.lists(column, min_size=1, max_size=6))))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_minor_table_matches_permutation_expansion_on_multi_term_matrices(mat):
    for t in range(1, mat.rank + 1):
        assert ic.signed_minor_table(mat, t) == brute_minors(mat, t)


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_fitting_ideal_matches_one_term_minor_oracle(mat):
    for t in range(1, mat.rank + 1):
        expected = brute_fitting(mat, t)
        if expected is None:
            with pytest.raises(NonMonomialIdeal):
                ic.fitting_ideal(mat, t)
        else:
            assert ic.fitting_ideal(mat, t) == expected


def test_fitting_ideal_examples(showcase_a):
    mat = ic.build_module(showcase_a, 4)
    assert ic.fitting_ideal(mat, 4) == showcase_a
    assert ic.fitting_ideal(mat, 3) == ic.maximal_ideal_power(3)
    diag = PresMatrix(2, ((BiPoly.term(2, 0), BiPoly.zero()),
                          (BiPoly.zero(), BiPoly.term(0, 3))))
    assert ic.fitting_ideal(diag, 2).to_pairs() == [[2, 3]]


def test_fitting_ideal_refuses_non_monomial():
    mixed = PresMatrix(1, ((P((1, 0, 1), (0, 1, 1)),), (BiPoly.term(0, 2),)))
    with pytest.raises(NonMonomialIdeal):
        ic.fitting_ideal(mixed, 1)


def test_closed_form_examples(showcase_a, remark_counterexample):
    assert ic.closed_form_fitting(showcase_a, 4) == showcase_a
    widened = ic.canonicalize([(5, 0), (4, 1), (3, 2), (2, 3), (0, 5)])
    assert ic.closed_form_fitting(widened, 3).to_pairs() == [
        [5, 0], [4, 1], [3, 2], [1, 3], [0, 5]]
    fit = ic.closed_form_fitting(remark_counterexample, 4)
    closure = fit.integral_closure()
    assert closure.contains((4, 1)) and not fit.contains((4, 1))


def test_mu_module_examples(showcase_a, showcase_b):
    assert ic.mu_module(ic.build_module(showcase_a, 4)) == 9
    assert ic.mu_module(ic.build_module(showcase_b, 5)) == 10
    single = PresMatrix(1, ((X,),))
    assert ic.mu_module(single) == 1
    dup = PresMatrix(1, ((X,), (X,), (BiPoly.term(0, 1),)))
    assert ic.mu_module(dup) == 2


def test_colength_module_examples(showcase_a):
    assert ic.colength_module(ic.from_ideal(showcase_a)) == 23
    assert ic.colength_module(ic.build_module(showcase_a, 4)) == 17
    # entries of degree 90: the truncation engine would need degree 91 or more
    power = ic.canonicalize([(3, 0), (0, 3)])
    for _ in range(29):
        power = power * ic.canonicalize([(3, 0), (0, 3)])
    assert ic.colength_module(ic.build_module(power, 3)) == 4176
    with pytest.raises(NotFiniteColength):
        ic.colength_module(PresMatrix(1, ((X,),)), cap=20)


def test_truncation_cap_is_itself_tried():
    # (x^8, y^8) first certifies at degree 15: from the start degree 9 the
    # sequence 9, 11, 13 reaches it at the cap, whether the cap is 15 or 16
    pure = ic.from_ideal(ic.canonicalize([(8, 0), (0, 8)]))
    for cap in (15, 16):
        assert ic.colength_module(pure, cap=cap) == 64
        assert certified_colength(pure, cap) == (64, 15)
    assert certified_colength(pure, 15, start=40) == (64, 15)  # a start above the cap
    # a build above the smallest certifying degree still reports that degree
    assert certified_colength(pure, 40, start=20) == (64, 15)
    with pytest.raises(NotFiniteColength):
        certified_colength(pure, 14)
    # a repeated column keeps mu below the column count, so mu needs the certificate too;
    # repeated as x^8 + y^8, it leaves the module ungraded, so the truncation engine runs
    dup = PresMatrix(1, pure.cols + ((P((8, 0, 1), (0, 8, 1)),),))
    assert ic.mu_module(dup, cap=15) == 2
    with pytest.raises(NotFiniteColength):
        ic.mu_module(dup, cap=14)
    # graded input is summed over its degree grid, so the cap does not bind it
    assert ic.colength_module(pure, cap=14) == 64
    assert ic.mu_module(PresMatrix(1, pure.cols + pure.cols[:1]), cap=14) == 2


# ---------------------------------------------------------------------------
# the truncation engine: one elimination read at every lower degree
# ---------------------------------------------------------------------------

def row_major_truncation(cols, e, deg):
    """The component-major builder the engine replaced, kept as an oracle.

    Component k owns the coordinates [k * tri(deg + 1), (k + 1) * tri(deg + 1)),
    and the shifted rows go in by ascending shift degree before the columns.
    """
    block = tri(deg + 1)
    span = PivotSpan(e * block)
    gained = 0
    for shifted in (True, False):
        for terms, ordj in cols:
            for d in range(1, deg + 1 - ordj) if shifted else (0,):
                for alpha in range(d + 1):
                    row = [(k * block + tri(a + b + d) + b + d - alpha, c)
                           for k, a, b, c in terms if a + b + d <= deg]
                    if row and span.add(row) and not shifted:
                        gained += 1
    return span, gained


def read_at(span, e, t):
    """Deficiency and certificate at degree t, read off an elimination at a degree >= t.

    The coordinates of degree <= t are the prefix [0, e * tri(t + 1)); its rank
    counts the pivot leads in it, and the trimmed suffix [top, n) counts as leads.
    """
    end = e * tri(t + 1)
    leads = {c for c in span.pivots if c < end} | set(range(span.top, end))
    return end - len(leads), all(c in leads for c in range(e * tri(t), end))


def dense_truncation(mat, t):
    """Deficiency and certificate at degree t from dense multiples and Bareiss ranks."""
    keys = [(k, a, s - a) for s in range(t + 1) for k in range(mat.rank) for a in range(s + 1)]
    index = {key: i for i, key in enumerate(keys)}
    rows = []
    for col in mat.cols:
        for d in range(t + 1):
            for alpha in range(d + 1):
                row = [0] * len(index)
                for k, entry in enumerate(col):
                    for mon, c in entry.items():
                        key = (k, mon.a + alpha, mon.b + d - alpha)
                        if key in index:
                            row[index[key]] += c
                if any(row):
                    rows.append(row)
    rank = rank_exact(rows)
    units = [[int(index[(k, a, t - a)] == i) for i in range(len(index))]
             for k in range(mat.rank) for a in range(t + 1)]
    return len(index) - rank, rank_exact(rows + units) == rank


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
                col = [BiPoly.zero()] * e
                col[k] = P((a, b, 1), *draw(st.sampled_from(((), ((1, 1, 1),)))))
                cols.append(tuple(col))
    return PresMatrix(e, tuple(cols))


@settings(max_examples=100, deadline=None)
@given(truncation_matrices(), st.integers(0, 5))
def test_truncation_reads_every_lower_degree_off_one_elimination(mat, deg):
    cols = _column_terms(mat)
    e = mat.rank
    span, gained = _truncation(cols, e, deg)
    old_span, old_gained = row_major_truncation(cols, e, deg)
    assert (span.rank, gained) == (old_span.rank, old_gained)
    certifying = []
    for t in range(deg + 1):
        fresh, _gained = _truncation(cols, e, t)
        read = read_at(span, e, t)
        assert read == (e * tri(t + 1) - fresh.rank, _certified_degree(fresh, e, t) is not None)
        assert read == dense_truncation(mat, t)
        if read[1]:
            certifying.append(t)
    smallest = certifying[0] if certifying else None
    assert _certified_degree(span, e, deg) == smallest
    if smallest is None:
        with pytest.raises(NotFiniteColength):
            certified_colength(mat, deg, start=0)
    else:
        assert certified_colength(mat, deg, start=0) == (read_at(span, e, deg)[0], smallest)


# ---------------------------------------------------------------------------
# the graded engine against the truncation engine
# ---------------------------------------------------------------------------

def ungraded(mat):
    """The same module with its first column times the unit 1 + y of the local ring.

    The two-term entries leave the matrix without a grading, so colength_module
    and mu_module run the truncation engine on it.
    """
    first = tuple(BiPoly(((m.a, m.b + k), c) for m, c in entry.items() for k in (0, 1))
                  for entry in mat.cols[0])
    return PresMatrix(mat.rank, (first,) + mat.cols[1:])


def truncation_values(mat, cap):
    """Colength (None when no degree up to the cap certifies) and mu by truncation."""
    twisted = ungraded(mat)
    assert _grading(twisted) is None
    try:
        colength = certified_colength(mat, cap)[0]
    except NotFiniteColength:
        colength = None
    try:
        mu = ic.mu_module(twisted, cap)
    except NotFiniteColength:
        mu = None
    return colength, mu


def graded_values(mat):
    assert _grading(mat) is not None
    try:
        colength = ic.colength_module(mat)
    except NotFiniteColength:
        colength = None
    return colength, ic.mu_module(mat)


def test_graded_engine_matches_truncation_on_box_slice():
    # every 20th (staircase, rank) pair of the 9x9 box
    pairs = [pair for k, pair in enumerate(_sweep_pairs(9)) if k % 20 == 0]
    assert len(pairs) == 5932
    for ideal, e in pairs:
        mat = ic.build_module(ideal, e)
        assert graded_values(mat) == truncation_values(mat, DEFAULT_CAP), (ideal.to_pairs(), e)


@st.composite
def graded_matrices(draw):
    """Single-term entries consistent with random row and column degrees.

    Rows may stay empty and columns may repeat, so colengths are finite or not;
    pure powers on every row, when drawn, make it finite.
    """
    e = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                         min_size=e, max_size=e))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        dx, dy = draw(st.sampled_from(rows))
        dx += draw(st.integers(0, 2))
        dy += draw(st.integers(0, 2))
        below = [i for i, (wx, wy) in enumerate(rows) if wx <= dx and wy <= dy]
        used = draw(st.lists(st.sampled_from(below), min_size=1, unique=True))
        col = [BiPoly.zero()] * e
        for i in used:
            col[i] = BiPoly.term(dx - rows[i][0], dy - rows[i][1],
                                 draw(st.sampled_from((-2, -1, 1, 3))))
        cols.append(tuple(col))
    cols += draw(st.lists(st.sampled_from(cols), max_size=2))
    if draw(st.booleans()):  # pure powers on every row make the colength finite
        for i in range(e):
            for a, b in ((draw(st.integers(1, 3)), 0), (0, draw(st.integers(1, 3)))):
                col = [BiPoly.zero()] * e
                col[i] = BiPoly.term(a, b)
                cols.append(tuple(col))
    return PresMatrix(e, tuple(cols))


@settings(max_examples=150, deadline=None)
@given(graded_matrices(), st.one_of(st.none(), graded_matrices()))
def test_graded_engine_matches_truncation_on_random_graded_matrices(mat, other):
    if other is not None:
        mat = ic.direct_sum(mat, other)
    colength, mu = graded_values(mat)
    # every such module of finite colength certifies well below this cap
    t_colength, t_mu = truncation_values(mat, 24)
    assert t_colength == colength
    assert t_mu == mu or (t_mu is None and colength is None)


def test_grading_refuses_multi_term_entries_and_degree_conflicts():
    assert _grading(PresMatrix(1, ((P((1, 0, 1), (0, 1, 1)),), (BiPoly.term(0, 2),)))) is None
    # rows 0 and 1 meet in two columns: x e_0 + y e_1 puts w_1 at w_0 + (1, -1),
    # and e_0 + e_1 puts it at w_0
    one = BiPoly.term(0, 0)
    assert _grading(PresMatrix(2, ((X, Y), (one, one)))) is None
    rows, cols, vecs = _grading(PresMatrix(2, ((X, Y), (one, BiPoly.zero()))))
    assert rows == [(0, 0), (1, -1)] and cols == [(1, 0), (0, 0)]
    assert vecs == [[(0, 1), (1, 1)], [(0, 1)]]


def test_direct_sum(showcase_a):
    m1 = ic.from_ideal(ic.maximal_ideal())
    both = ic.direct_sum(m1, m1)
    assert both.rank == 2
    assert ic.colength_module(both) == 2
    assert ic.fitting_ideal(both, 2) == ic.maximal_ideal_power(2)

    mixed = ic.direct_sum(ic.from_ideal(showcase_a), m1)
    assert ic.fitting_ideal(mixed, 2) == showcase_a * ic.maximal_ideal()

    empty = PresMatrix(0, ())
    assert ic.direct_sum(m1, empty) == m1


def test_matrix_json_roundtrip(showcase_b):
    mat = ic.build_module(showcase_b, 3)
    again = ic.matrix_from_json(mat.to_json())
    assert again == mat
    with pytest.raises(ValueError):
        ic.matrix_from_json({"rank": 2})
    with pytest.raises(ValueError):
        ic.matrix_from_json({"rank": 2, "cols": [[[[0, 0, 1]]]]})


# ---------------------------------------------------------------------------
# desk-scale sweeps (small boxes; the exhaustive boxes live in the acceptance suite)
# ---------------------------------------------------------------------------

def _sweep_pairs(box):
    for ideal in ic.enumerate_staircases(box, box, min_r=2, star_only=True):
        for e in range(2, ideal.r + 1):
            yield ideal, e


def test_minor_fitting_matches_closed_form_small_box():
    for ideal, e in _sweep_pairs(6):
        mat = ic.build_module(ideal, e)
        fit = ic.fitting_ideal(mat, e)
        assert fit == ic.closed_form_fitting(ideal, e)
        assert all(fit.contains(g) for g in ideal.gens)
        assert fit.mu() == ideal.r + 1
        assert ic.fitting_ideal(mat, e - 1) == ic.maximal_ideal_power(e - 1)


def test_generator_count_small_box():
    for ideal, e in _sweep_pairs(6):
        assert ic.mu_module(ic.build_module(ideal, e)) == ideal.r + e


def test_contractedness_chain_small_box():
    # numeric contractedness propagates from the ideal to the minor ideal,
    # and for the module it is equivalent to the minor-ideal statement
    for ideal, e in _sweep_pairs(5):
        mat = ic.build_module(ideal, e)
        fit = ic.closed_form_fitting(ideal, e)
        if ideal.is_contracted_numeric():
            assert fit.is_contracted_numeric()
        assert fit.is_contracted_numeric() == (
            ic.mu_module(mat) == fit.order() + e)


def test_complete_with_tight_corner_reproduces_input():
    for ideal, e in _sweep_pairs(6):
        if ideal.is_complete() and ideal.gens[ideal.r - e + 2].a == e - 2:
            assert ic.closed_form_fitting(ideal, e) == ideal


def test_rank_one_engine_equals_lattice_count_small_box():
    for ideal in ic.enumerate_staircases(6, 6, min_r=1):
        assert ic.colength_module(ic.from_ideal(ideal)) == lattice_colength(ideal)


def test_truncation_engine_equals_lattice_count_8x8_box():
    # acceptance 10 now runs the graded engine; this keeps the truncation
    # engine's certificate checked on the same box
    cases = 0
    for ideal in ic.enumerate_staircases(8, 8, min_r=1):
        cases += 1
        assert certified_colength(ic.from_ideal(ideal), DEFAULT_CAP)[0] == lattice_colength(ideal)
    assert cases == 12869
