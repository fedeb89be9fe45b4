import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import icmod as ic
from icmod import modmat
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
    _forest_fitting,
    _grading,
    _relation_leads,
    _truncation,
    certified_colength,
)
from icmod.multiplicity import COEFF_BOUND, _sampled_reduction

from conftest import (P, brute_fitting, brute_minors, direct_sum, is_contracted_numeric,
                      lattice_colength, rank_exact, small_entries, small_matrices, term_dict,
                      truncation_matrices)


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
        ic.build_module(ic.maximal_ideal_power(1), 2)


def test_module_spec_invariants(showcase_b):
    aprime, c = ic.module_spec(showcase_b, 4)
    assert list(aprime) == sorted(aprime, reverse=True)
    assert aprime[-1] >= 0
    assert list(c) == sorted(c)
    assert c[0] >= showcase_b.gens[showcase_b.r - 4 + 1].b


def test_minors_counts_and_band_recursion(showcase_a):
    mat = ic.build_module(showcase_a, 2)
    # each maximal minor of one row is one nonzero entry, keyed by its column's bit
    for i in range(mat.rank):
        row = [col[i] for col in mat.cols if col[i]]
        entries = {1 << j: term_dict(entry) for j, entry in enumerate(row)}
        assert ic.signed_minor_table(PresMatrix(1, tuple((entry,) for entry in row))) == entries

    # 2x4 band with unit y-powers: top minors generate the maximal ideal squared
    band = PresMatrix(2, ((X, BiPoly.zero()), (Y, X), (Y, BiPoly.zero()),
                          (BiPoly.zero(), Y)))
    assert ic.fitting_ideal(band, 2) == ic.maximal_ideal_power(2)


def brute_maximal_minors(mat):
    """The oracle's maximal minors, keyed by column bitmask as the table keys them."""
    return {mask: det for (_rows, mask), det in brute_minors(mat, mat.rank).items()}


def test_minor_table_against_permutation_expansion(showcase_a):
    multi_term = PresMatrix(2, ((P((1, 0, 1), (0, 1, 1)), BiPoly.term(0, 2)),
                                (BiPoly.term(2, 0, -1), X), (Y, BiPoly.zero())))
    for mat in (ic.build_module(showcase_a, 3), multi_term):
        assert ic.signed_minor_table(mat) == brute_maximal_minors(mat)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_minor_table_matches_permutation_expansion_on_multi_term_matrices(mat):
    assert ic.signed_minor_table(mat) == brute_maximal_minors(mat)


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


def table_fitting(mat):
    """Maximal-minor ideal from the minor table; None when every maximal minor vanishes."""
    dets = ic.signed_minor_table(mat).values()
    # every minor of a graded matrix is a single term
    assert all(len(det) == 1 for det in dets)
    return ic.canonicalize([mon for det in dets for mon in det]) if dets else None


def forest_fitting(mat):
    """The tree walk's ideal; None when every maximal minor vanishes."""
    pairs = _forest_fitting(mat)
    assert pairs is not None, "a graded forest must not fall back to the table"
    return ic.canonicalize(pairs) if pairs else None


def test_forest_fitting_matches_minor_table_on_box_slice():
    # the DP runs on build_module's attached grading, which the test below ties to the walk
    for ideal, e in _box_slice():
        mat = ic.build_module(ideal, e)
        assert forest_fitting(mat) == table_fitting(mat), (ideal.to_pairs(), e)


def test_forest_fitting_matches_minor_table_on_sums(showcase_a, showcase_b, remark_counterexample):
    parts = [ic.from_ideal(showcase_a), ic.from_ideal(ic.maximal_ideal_power(3)),
             ic.build_module(showcase_a, 3), ic.build_module(showcase_b, 2),
             ic.build_module(remark_counterexample, 4)]
    for first in parts:
        assert forest_fitting(first) == table_fitting(first)
        for second in parts:
            both = direct_sum(first, second)
            if both.rank <= 6:
                assert forest_fitting(both) == table_fitting(both)
            # top minors of a block sum multiply
            assert forest_fitting(both) == forest_fitting(first) * forest_fitting(second)


@st.composite
def graded_forests(draw, max_rank=6):
    """Graded matrices whose two-entry columns form a forest on the rows.

    Coefficients are nonzero integers of unequal magnitudes and either sign.
    A row may hold several one-entry columns or none, a tree may have no
    one-entry column, and the columns may be fewer than the rows.
    """
    e = draw(st.integers(1, max_rank))
    rows = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         min_size=e, max_size=e))
    coefficients = st.integers(-7, 100).filter(bool)

    def column(used):
        dx = max(rows[i][0] for i in used) + draw(st.integers(0, 2))
        dy = max(rows[i][1] for i in used) + draw(st.integers(0, 2))
        col = [BiPoly.zero()] * e
        for i in used:
            col[i] = BiPoly.term(dx - rows[i][0], dy - rows[i][1], draw(coefficients))
        return tuple(col)

    # joining each row to at most one earlier row keeps the edges a forest
    cols = [column([draw(st.integers(0, k - 1)), k])
            for k in range(1, e) if draw(st.booleans())]
    singles = draw(st.integers(0, 2 * e + 1))
    cols += [column([draw(st.integers(0, e - 1))]) for _ in range(singles)]
    return PresMatrix(e, tuple(draw(st.permutations(cols))))


@seed(2021)
@settings(max_examples=300, deadline=None)
@given(graded_forests())
def test_forest_fitting_matches_minor_table_on_random_forests(mat):
    assert forest_fitting(mat) == table_fitting(mat)


def fitting_or_none(mat, t):
    try:
        return ic.fitting_ideal(mat, t)
    except NonMonomialIdeal:
        return None


# I_t sums the maximal minors of every row set R; an edge that R cuts is a
# single of M_R, and an R with an empty row adds nothing
@seed(2021)
@settings(max_examples=150, deadline=None)
@given(graded_forests(max_rank=4))
def test_fitting_ideal_matches_the_oracle_at_every_t_on_random_forests(mat):
    for t in range(1, mat.rank + 1):
        assert fitting_or_none(mat, t) == brute_fitting(mat, t), t


def test_fitting_ideal_matches_the_oracle_at_every_t_on_built_modules_and_sums(showcase_a):
    zero = BiPoly.zero()
    empty_row = PresMatrix(3, ((X, zero, zero), (Y, X, zero), (zero, Y, zero)))
    mats = [empty_row] + [ic.build_module(ideal, e) for ideal, e in _sweep_pairs(5)]
    small = [ic.from_ideal(ic.maximal_ideal_power(2)), ic.from_ideal(ic.simple_closure(2, 3)),
             ic.build_module(ic.maximal_ideal_power(2), 2)]
    mats += [direct_sum(first, second) for first in small for second in small]
    mats.append(direct_sum(mats[-1], small[0]))
    for mat in mats:
        for t in range(1, mat.rank + 1):
            assert fitting_or_none(mat, t) == brute_fitting(mat, t), (mat, t)


@st.composite
def graded_non_forests(draw):
    """A graded forest with one more column that leaves the forest tests.

    The extra column joins two rows of one tree (closing a cycle, or doubling
    an edge when the rows are adjacent) or holds three entries.  It sits at a
    random position, so the walk may meet it before or after the tree's edges.
    """
    mat = draw(graded_forests().filter(lambda m: m.rank >= 2))
    e = mat.rank
    tree = list(range(e))  # union-find over the two-entry columns

    def root(i):
        while tree[i] != i:
            i = tree[i]
        return i

    for col in mat.cols:
        ends = [i for i, entry in enumerate(col) if entry]
        if len(ends) == 2:
            tree[root(ends[0])] = root(ends[1])
    if e >= 3 and draw(st.booleans()):
        used = draw(st.lists(st.integers(0, e - 1), min_size=3, max_size=3, unique=True))
    else:
        pairs = [(i, k) for i in range(e) for k in range(i + 1, e) if root(i) == root(k)]
        assume(pairs)
        used = list(draw(st.sampled_from(pairs)))
    rows = _grading(mat)[0]  # a grading of mat, which the new column keeps
    dx = max(rows[i][0] for i in used) + draw(st.integers(0, 2))
    dy = max(rows[i][1] for i in used) + draw(st.integers(0, 2))
    col = [BiPoly.zero()] * e
    for i in used:
        col[i] = BiPoly.term(dx - rows[i][0], dy - rows[i][1], draw(st.integers(-7, 100).filter(bool)))
    at = draw(st.integers(0, mat.ncols))
    return PresMatrix(e, mat.cols[:at] + (tuple(col),) + mat.cols[at:])


@seed(2021)
@settings(max_examples=200, deadline=None)
@given(graded_non_forests())
def test_forest_fitting_leaves_cycles_and_three_entry_columns_to_the_table(mat):
    assert _grading(mat) is not None
    assert _forest_fitting(mat) is None
    expected = table_fitting(mat)
    if expected is None:
        with pytest.raises(NonMonomialIdeal):
            ic.fitting_ideal(mat, mat.rank)
    else:
        assert ic.fitting_ideal(mat, mat.rank) == expected


def test_fitting_ideal_uses_the_table_only_off_graded_forests(monkeypatch, showcase_a):
    calls = []
    table = modmat.signed_minor_table
    monkeypatch.setattr(modmat, "signed_minor_table",
                        lambda mat: calls.append(mat.rank) or table(mat))
    one, zero = BiPoly.term(0, 0), BiPoly.zero()
    x2, y2 = BiPoly.term(2, 0), BiPoly.term(0, 2)
    cycle = PresMatrix(3, ((X, X, zero), (zero, X, X), (X, zero, X), (y2, zero, zero)))
    parallel = PresMatrix(2, ((X, X), (Y, Y), (x2, zero), (zero, y2)))
    three = PresMatrix(3, ((X, X, X), (Y, zero, zero), (zero, Y, zero), (zero, zero, Y)))
    ungraded = PresMatrix(2, ((X, Y), (one, one), (y2, zero)))
    multi_term = PresMatrix(2, ((P((1, 0, 1), (0, 1, 1)), zero), (zero, X), (Y, zero)))
    # a tree with no single on rows 0-1 comes before a cycle on rows 2-4: the
    # edges are counted before any tree is solved, so the cycle still sends it to the table
    bare_then_cycle = PresMatrix(5, ((X, X, zero, zero, zero), (zero, zero, X, X, zero),
                                     (zero, zero, zero, X, X), (zero, zero, X, zero, X)))
    for mat in (cycle, parallel, three, ungraded, multi_term, bare_then_cycle):
        assert _forest_fitting(mat) is None
        try:
            ic.fitting_ideal(mat, mat.rank)
        except NonMonomialIdeal:  # the table's certificate may refuse; it was still asked
            pass
        assert calls == [mat.rank]
        calls.clear()
    # below the rank each row set picks its engine: dropping a row cuts the
    # cycle, and only row 0 of multi_term holds the two-term entry
    assert ic.fitting_ideal(cycle, 2) == brute_fitting(cycle, 2)
    assert ic.fitting_ideal(multi_term, 1) == brute_fitting(multi_term, 1)
    assert calls == [1]
    calls.clear()
    # a built module's I_t lists no minor at any t
    module = ic.build_module(showcase_a, 4)
    fits = [ic.fitting_ideal(module, t) for t in range(1, 5)]
    assert fits[2:] == [ic.maximal_ideal_power(3), showcase_a] and calls == []


def test_forest_fitting_refuses_when_every_maximal_minor_vanishes():
    # the DP gives no degrees, and fitting_ideal makes the one refusal
    zero = BiPoly.zero()
    path = PresMatrix(3, ((X, Y, zero), (zero, X, Y)))  # fewer columns than rows
    bare_tree = PresMatrix(3, ((X, zero, zero), (Y, zero, zero), (BiPoly.term(1, 1), zero, zero),
                               (zero, X, Y)))  # the tree on rows 1 and 2 has no one-entry column
    for mat in (path, bare_tree):
        assert table_fitting(mat) is None
        assert _forest_fitting(mat) == []
        with pytest.raises(NonMonomialIdeal, match="no single-term 3-minors"):
            ic.fitting_ideal(mat, 3)


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


@st.composite
def abort_matrices(draw):
    """A small m-primary ideal with r >= 2 as a rank-one matrix, or its rank-2 module."""
    a, b = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    inner = st.lists(st.tuples(st.integers(1, a - 1), st.integers(1, b - 1)), min_size=1,
                     max_size=3)
    ideal = ic.canonicalize([(a, 0), (0, b)] + draw(inner)).normalized()
    return ic.build_module(ideal, 2) if draw(st.booleans()) else ic.from_ideal(ideal)


@settings(max_examples=60, deadline=None)
@given(abort_matrices())
def test_early_abort_never_changes_a_colength_it_returns(mat):
    # the reduction sampler passes its best value so far as abort_above; a threshold
    # at or above the colength L must give the unaborted answer, and 0 must abort
    length, degree = certified_colength(mat, DEFAULT_CAP)
    assert length >= 1
    for k in range(length, length + 3):
        assert certified_colength(mat, DEFAULT_CAP, abort_above=k) == (length, degree)
    assert certified_colength(mat, DEFAULT_CAP, abort_above=0) is None
    for k in range(1, length):
        assert certified_colength(mat, DEFAULT_CAP, abort_above=k) in (None, (length, degree))


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
# relations: the rows a build skips leave its span as it was
# ---------------------------------------------------------------------------

BOX4_MODULES = [(ideal, e) for ideal in ic.enumerate_staircases(4, 4, min_r=2)
                if ideal.is_normalized for e in range(2, ideal.r + 1)
                if ideal.gens[ideal.r - e + 1].a >= e - 1]  # module_spec's shifted exponent


def sampled_reduction(ideal, e, seed):
    """A sampled reduction of a built module, as the sampler draws it: the rank-one
    matrix of its nonzero minors, and their relations."""
    mat = ic.build_module(ideal, e)
    rng = random.Random(seed)
    coeffs = [[rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(mat.ncols)]
              for _ in range(e + 1)]
    gens, relations = _sampled_reduction(mat, coeffs)
    return PresMatrix(1, tuple((g,) for g in gens)), relations


def shifted(relations, shifts=((1, 0), (0, 1))):
    """The relations followed by their multiples by each monomial shift.  A
    multiplicative order leads s r at s times the lead of r, so the multiples skip
    no row of their own; an order that is not multiplicative can lead them elsewhere."""
    return list(relations) + [tuple(BiPoly(((m.a + da, m.b + db), c) for m, c in poly.items())
                                    for poly in rel)
                              for da, db in shifts for rel in relations]


def koszul(mat):
    """The relations g_l e_k - g_k e_l, k < l, among the entries of a rank-one matrix."""
    gens = [col[0] for col in mat.cols]
    zero = BiPoly.zero()
    out = []
    for k in range(len(gens)):
        for l in range(k + 1, len(gens)):
            rel = [zero] * len(gens)
            rel[k] = gens[l]
            rel[l] = BiPoly((m, -c) for m, c in gens[k].items())
            out.append(tuple(rel))
    return out


def colength_or_cap(mat, cap, **kwargs):
    try:
        return certified_colength(mat, cap, **kwargs)
    except NotFiniteColength:
        return "cap"


def assert_skips_change_no_build(mat, relations, top_deg):
    cols = _column_terms(mat)
    leads = _relation_leads(relations, mat.ncols)
    assert any(leads)
    for deg in range(top_deg + 1):
        full, _gained = _truncation(cols, mat.rank, deg)
        skipping, _gained = _truncation(cols, mat.rank, deg, leads)
        assert (skipping.rank, set(skipping.pivots), skipping.top) == (
            full.rank, set(full.pivots), full.top), deg


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BOX4_MODULES), st.integers(0, 10 ** 6))
def test_relations_change_no_build_of_a_sampled_reduction(module, seed):
    # the rank, the pivot leads and top of every build, and so the values returned
    mat, relations = sampled_reduction(*module, seed)
    assume(mat.ncols >= 2)
    found = colength_or_cap(mat, DEFAULT_CAP)
    assert found != "cap"
    assert colength_or_cap(mat, DEFAULT_CAP, relations=relations) == found
    assert_skips_change_no_build(mat, shifted(relations), found[1] + 2)


def test_relations_skip_rows_of_every_sampled_reduction_of_the_4x4_box(monkeypatch):
    rows = []
    add = PivotSpan.add
    monkeypatch.setattr(PivotSpan, "add", lambda span, row: rows.append(1) or add(span, row))
    full = kept = 0
    for ideal, e in BOX4_MODULES:
        mat, relations = sampled_reduction(ideal, e, 0)
        value, degree = certified_colength(mat, DEFAULT_CAP)
        full += len(rows)
        rows.clear()
        assert certified_colength(mat, DEFAULT_CAP, relations=relations) == (value, degree)
        kept += len(rows)
        rows.clear()
        assert_skips_change_no_build(mat, relations, degree)
    assert kept < 0.8 * full


@st.composite
def rank_one_matrices(draw):
    """Two to five multi-term generators of an ideal, most often with x^a and y^b among them."""
    gens = draw(st.lists(small_entries.filter(bool), min_size=1, max_size=3))
    if draw(st.integers(0, 3)):
        gens += [P((draw(st.integers(1, 4)), 0, 1)), P((0, draw(st.integers(1, 4)), 1))]
    assume(len(gens) >= 2)
    return PresMatrix(1, tuple((g,) for g in gens))


def test_a_koszul_relation_and_its_multiple_keep_the_maximal_ideal():
    # x e_0 - y e_1 on (y, x) is led by y e_1 and its x-multiple by xy e_1; an order
    # that led the multiple at x^2 e_0 would skip both rows that reach x^2 y,
    # x^2 times column 0 and xy times column 1
    mat = PresMatrix(1, ((Y,), (X,)))
    relations = shifted(koszul(mat), ((1, 0),))
    assert _relation_leads(relations, 2) == [[], [(0, 1), (1, 1)]]
    assert certified_colength(mat, 8, start=0, relations=relations) == (1, 1)
    assert_skips_change_no_build(mat, relations, 4)


@settings(max_examples=100, deadline=None)
@given(rank_one_matrices(), st.integers(0, 6))
def test_koszul_relations_change_no_build_of_a_rank_one_matrix(mat, deg):
    relations = shifted(koszul(mat))
    assert colength_or_cap(mat, 10, relations=relations) == colength_or_cap(mat, 10)
    assert colength_or_cap(mat, 10, start=0, relations=relations) == colength_or_cap(
        mat, 10, start=0)
    assert_skips_change_no_build(mat, relations, deg)


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


def _box_slice():
    # every 20th (staircase, rank) pair of the 9x9 box
    pairs = [pair for k, pair in enumerate(_sweep_pairs(9)) if k % 20 == 0]
    assert len(pairs) == 5932
    return pairs


def test_graded_engine_matches_truncation_on_box_slice():
    # the sweep runs on build_module's attached grading, which the test below ties to the walk
    for ideal, e in _box_slice():
        mat = ic.build_module(ideal, e)
        assert graded_values(mat) == truncation_values(mat, DEFAULT_CAP), (ideal.to_pairs(), e)


def test_built_modules_carry_the_grading_the_walk_finds():
    # the same columns without the attachment are walked
    pairs = _box_slice() + list(_sweep_pairs(6))
    for ideal, e in pairs:
        mat = ic.build_module(ideal, e)
        graded = _grading(mat)
        assert graded is mat._built_grading
        assert graded == _grading(PresMatrix(mat.rank, mat.cols)), (ideal.to_pairs(), e)
    assert len(pairs) == 5932 + 1328
    # every other constructor leaves the grading to the walk
    one = ic.from_ideal(ic.maximal_ideal_power(2))
    both = direct_sum(ic.build_module(ic.maximal_ideal_power(3), 2), one)
    assert one._built_grading is None and both._built_grading is None
    assert _grading(one) is not None and _grading(both) is not None


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
        mat = direct_sum(mat, other)
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
    rows, cols, vecs, walk = _grading(PresMatrix(2, ((X, Y), (one, BiPoly.zero()))))
    assert rows == [(0, 0), (1, -1)] and cols == [(1, 0), (0, 0)]
    assert vecs == [[(0, 1), (1, 1)], [(0, 1)]]
    assert walk == [(0, -1, -1), (1, 0, 0)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(graded_forests(), graded_matrices()))
def test_grading_walk_places_every_row_once_after_its_parent(mat):
    vecs, walk = _grading(mat)[2:]
    assert sorted(v for v, _p, _j in walk) == list(range(mat.rank))
    placed = set()
    for v, p, j in walk:
        if p < 0:
            assert j == -1
        else:  # reached from its parent through a column holding both rows
            assert p in placed and {p, v} <= {i for i, _c in vecs[j]}
        placed.add(v)


def test_direct_sum(showcase_a):
    m1 = ic.from_ideal(ic.maximal_ideal_power(1))
    both = direct_sum(m1, m1)
    assert both.rank == 2
    assert ic.colength_module(both) == 2
    assert ic.fitting_ideal(both, 2) == ic.maximal_ideal_power(2)

    mixed = direct_sum(ic.from_ideal(showcase_a), m1)
    assert ic.fitting_ideal(mixed, 2) == showcase_a * ic.maximal_ideal_power(1)

    empty = PresMatrix(0, ())
    assert direct_sum(m1, empty) == m1


def test_matrix_json_roundtrip(showcase_b):
    mat = ic.build_module(showcase_b, 3)
    again = ic.matrix_from_json(mat.to_json())
    assert again == mat and hash(again) == hash(mat) and repr(again) == repr(mat)
    # the attached grading is no part of the value: the JSON copy has none and walks to it
    assert again._built_grading is None and _grading(again) == _grading(mat)
    assert again.to_json() == mat.to_json()
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
        if is_contracted_numeric(ideal):
            assert is_contracted_numeric(fit)
        assert is_contracted_numeric(fit) == (
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
