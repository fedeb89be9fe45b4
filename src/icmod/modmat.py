"""Presentation matrices of finite-colength submodules of a free module.

Builds the rank-e module attached to a normalized staircase, computes Fitting
ideals as sums over row sets of maximal minors (a tree DP on a graded forest,
exact minors otherwise), and measures colengths and minimal generator counts
with two engines.  A Z^2-graded matrix (every entry a single term, and row
and column degrees that fit every entry; build_module and from_ideal give
one, and so does a block sum of graded matrices) gets exact sums over the
grid of its row and column degrees, with no truncation and no cap;
build_module attaches its grading in closed form, and a walk over the
row/column graph finds the grading of every other matrix.  An ungraded
matrix, such as a sampled reduction, gets truncated linear algebra with a
Nakayama stopping certificate, run by one truncation builder over one degree
sequence that ends at the cap.  Pure computation throughout; the minor sweep
and the spans are deterministic regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial, gcd, prod

from .algebra import BiPoly, GraphSpan, Monomial, PivotSpan, X, Y, tri
from .staircase import MonomialIdeal, canonicalize, minimal_pairs

DEFAULT_CAP = 64  # largest truncation degree the Nakayama certificates try by default


class RankOutOfRange(ValueError):
    """Requested rank outside 2..r."""


class NegativeExponent(ValueError):
    """Shifted x-exponents would become negative."""


class NotNormalized(ValueError):
    """Staircase violates the normalization expected by the construction."""


class NonMonomialIdeal(RuntimeError):
    """Minor ideal could not be certified."""


class NotFiniteColength(RuntimeError):
    """Infinite length proven (refuse_infinite_length), or finite length not
    certified (Nakayama up to the truncation cap, or the sampler)."""


@dataclass(frozen=True)
class PresMatrix:
    """Columns generating a submodule of the rank-e free module."""

    rank: int
    cols: tuple[tuple[BiPoly, ...], ...]
    # build_module's closed-form grading, in _grading's form; not part of the value
    _built_grading: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for col in self.cols:
            if len(col) != self.rank:
                raise ValueError("column length must equal the rank")
            if not any(col):
                raise ValueError("columns must be nonzero")

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def to_json(self) -> dict:
        """Matrix wire format: entries as lists of [a, b, coefficient] triples."""
        return {
            "rank": self.rank,
            "cols": [[entry.to_triples() for entry in col] for col in self.cols],
        }


def _is_entry(entry) -> bool:
    """True when a wire-format matrix entry is a list of [a, b, c] integer triples."""
    if not isinstance(entry, list):
        return False
    for term in entry:
        if not isinstance(term, list) or len(term) != 3:
            return False
        a, b, c = term
        if type(a) is bool or type(b) is bool or type(c) is bool or not (
                isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
            return False
    return True


def matrix_from_json(obj) -> PresMatrix:
    if not isinstance(obj, dict) or "rank" not in obj or "cols" not in obj:
        raise ValueError('matrix JSON must be an object with "rank" and "cols"')
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError('"rank" must be a positive integer')
    if not isinstance(obj["cols"], list) or not obj["cols"]:
        raise ValueError('"cols" must be a nonempty list of columns')
    cols = []
    for col in obj["cols"]:
        if not isinstance(col, list) or len(col) != rank:
            raise ValueError("each column must list one entry per row")
        for entry in col:
            if not _is_entry(entry):
                raise ValueError(f"entry {entry!r} is not a list of [a, b, c] integer triples")
        cols.append(tuple(BiPoly.from_triples(entry) for entry in col))
    return PresMatrix(rank, tuple(cols))


def module_spec(ideal: MonomialIdeal, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shifted exponents (aprime, c) of the rank-e module; raises NotPrimary,
    RankOutOfRange, NotNormalized or NegativeExponent where the construction fails."""
    ideal.require_primary()
    r = ideal.r
    if not 2 <= rank <= r:
        raise RankOutOfRange(f"rank must lie in 2..{r}, got {rank}")
    gens = ideal.gens
    if not ideal.is_normalized:
        raise NotNormalized(
            "pure x power exceeds pure y power; swap_axes gives the normalized form"
        )
    aprime = tuple(gens[i].a - rank + 1 for i in range(r - rank + 2))
    if aprime[-1] < 0:
        raise NegativeExponent(f"shifted exponent {aprime[-1]} is negative")
    c = tuple(gens[r - rank + 1 + i].b - i for i in range(1, rank))
    return aprime, c


def build_module(ideal: MonomialIdeal, rank: int) -> PresMatrix:
    """Presentation matrix of the rank-e module attached to a staircase.

    Columns come in three blocks: the staircase block in the first row, the
    two-term band shifting each basis vector into the next, and the pure
    y-power columns closing the band.
    """
    aprime, c = module_spec(ideal, rank)
    e = rank
    zero = BiPoly.zero()
    # each column's degree and coefficient vector as _grading would find them:
    # e_i has degree (-i, i), and the walk is the band path from row 0
    cols, col_deg, vecs = [], [], []
    for ap, g in zip(aprime, ideal.gens):
        col = [zero] * e
        col[0] = BiPoly.term(ap, g.b)
        cols.append(tuple(col))
        col_deg.append((ap, g.b))
        vecs.append([(0, 1)])
    for i in range(1, e):
        col = [zero] * e
        col[i - 1] = Y
        col[i] = X
        cols.append(tuple(col))
        col_deg.append((1 - i, i))
        vecs.append([(i - 1, 1), (i, 1)])
    for i in range(1, e):
        col = [zero] * e
        col[i] = BiPoly.term(0, c[i - 1])
        cols.append(tuple(col))
        col_deg.append((-i, i + c[i - 1]))
        vecs.append([(i, 1)])
    mat = PresMatrix(e, tuple(cols))
    n = len(aprime)
    walk = [(0, -1, -1)] + [(i, i - 1, n + i - 1) for i in range(1, e)]
    object.__setattr__(mat, "_built_grading", ([(-i, i) for i in range(e)], col_deg, vecs, walk))
    return mat


def from_ideal(ideal: MonomialIdeal) -> PresMatrix:
    """Rank-one matrix whose columns are the staircase generators."""
    return PresMatrix(1, tuple((BiPoly.term(g.a, g.b),) for g in ideal.gens))


# ---------------------------------------------------------------------------
# minors and Fitting ideals
# ---------------------------------------------------------------------------

def signed_minor_table(mat: PresMatrix) -> dict[int, dict]:
    """All nonzero maximal minors keyed by column bitmask (bit j for column j).

    Laplace expansion along the rows: the partial minor of the first k rows
    is kept per set of used columns as a term dict {(a, b): coefficient} and
    dropped once it cancels to zero, so only live column sets are extended;
    the final dicts are the values.
    """
    row_entries: list[list] = [[] for _ in range(mat.rank)]
    for j, col in enumerate(mat.cols):
        for i, entry in enumerate(col):
            if entry:
                row_entries[i].append((j, [(m.a, m.b, c) for m, c in entry.items()]))
    partial: dict[int, dict] = {0: {(0, 0): 1}}
    for entries in row_entries:
        grown: dict[int, dict] = {}
        for mask, poly in partial.items():
            for j, terms in entries:
                if mask >> j & 1:
                    continue
                # moving column j into sorted position passes every used column right of it
                sign = -1 if (mask >> j).bit_count() & 1 else 1
                acc = grown.setdefault(mask | 1 << j, {})
                for (pa, pb), pc in poly.items():
                    for a, b, c in terms:
                        mon = (pa + a, pb + b)
                        nc = acc.get(mon, 0) + sign * pc * c
                        if nc:
                            acc[mon] = nc
                        else:
                            acc.pop(mon, None)
        partial = {mask: poly for mask, poly in grown.items() if poly}
    return partial


def _plus(front, other) -> list[tuple[int, int]]:
    """Every pairwise sum of two degree collections (the Minkowski sum)."""
    return [(a + c, b + d) for a, b in front for c, d in other]


def _forest_fitting(mat: PresMatrix) -> list[tuple[int, int]] | None:
    """Minimal degrees of the maximal minors of a graded forest presentation, or None.

    A graded matrix has maximal minors c_C x^(delta(C) - sum w) for column
    sets C, with delta(C) the sum of their column degrees, w the row degrees
    and c_C the determinant of their coefficient vectors.  When every column
    has one entry (a single of its row) or two (an edge between its rows) and
    the edges form a forest, C is a basis exactly when each tree of its edges
    holds one single, whatever the coefficients: a tree of edges spans a
    hyperplane whose normal has no zero coordinate, so one unit vector leaves
    it and a second is dependent.  The grading walk roots every component, so
    the edges form a forest exactly when they are as many as its non-root
    rows; each edge is then the one by which the walk reached a row.  The walk
    is solved in reverse, keeping at each row v the Pareto-minimal degree sums
    of its subtree in two states: no_single, v's component has no single yet,
    and one_single, it has one; a root closes its tree into the product.
    The list is empty when every maximal minor vanishes; any other matrix
    gives None, for the minor table.
    """
    graded = _grading(mat)
    if graded is None:
        return None
    row_deg, col_deg, vecs, walk = graded
    e = mat.rank
    singles: list[list[tuple[int, int]]] = [[] for _ in range(e)]
    edges = 0
    for d, vec in zip(col_deg, vecs):
        if len(vec) == 1:
            singles[vec[0][0]].append(d)
        elif len(vec) == 2:
            edges += 1
        else:
            return None
    if edges != sum(p >= 0 for _v, p, _j in walk):  # a cycle, parallel columns included
        return None
    no_single = [[(0, 0)]] * e
    one_single = [minimal_pairs(s) for s in singles]
    total = [(0, 0)]
    for u, v, j in reversed(walk):
        if v < 0:  # every row of u's tree is merged into the root u
            total = minimal_pairs(_plus(total, one_single[u]))
            continue
        # the edge to u is cut, so u's component is closed, or kept and merged
        dx, dy = col_deg[j]
        o_up = [(a + dx, b + dy) for a, b in no_single[u]]
        k_up = [(a + dx, b + dy) for a, b in one_single[u]]
        o, k = no_single[v], one_single[v]
        no_single[v] = minimal_pairs(_plus(o, one_single[u]) + _plus(o, o_up))
        one_single[v] = minimal_pairs(_plus(k, one_single[u]) + _plus(k, o_up) + _plus(o, k_up))
    wx = sum(w[0] for w in row_deg)
    wy = sum(w[1] for w in row_deg)
    return [(a - wx, b - wy) for a, b in total]


def fitting_ideal(mat: PresMatrix, t: int) -> MonomialIdeal:
    """Certified monomial ideal of t-minors.

    I_t(M) is the sum over the row sets R of size t of the maximal-minor
    ideals of M_R, which keeps the rows in R and the columns nonzero on R; at
    t the rank, M_R is M itself, with build_module's attached grading.  A
    graded forest M_R (build_module and from_ideal give one, and every M_R
    of a graded forest is one, an edge cut by R becoming a single) gets a tree
    DP over its grading walk (_forest_fitting) with no minor listed; any
    other M_R gets the minor table.  The candidate is generated by the
    one-term minors of both (signs dropped), each of which is then divisible
    by a candidate generator; the certificate checks that every term of
    every table minor with two or more terms is too, in canonical term order.
    Refuses with NonMonomialIdeal otherwise, so callers never reason about an
    uncertified monomial structure.
    """
    if not 1 <= t <= mat.rank:
        raise ValueError(f"minor size must lie in 1..{mat.rank}")
    singles, multi = [], []
    for rows in combinations(range(mat.rank), t):
        sub = mat if t == mat.rank else PresMatrix(t, tuple(
            part for col in mat.cols if any(part := tuple(col[i] for i in rows))))
        forest = _forest_fitting(sub)
        if forest is not None:
            singles += forest
            continue
        for det in signed_minor_table(sub).values():
            if len(det) == 1:
                singles += det
            else:
                multi.append(det)
    if not singles:
        raise NonMonomialIdeal(f"no single-term {t}-minors to generate from")
    ideal = canonicalize(singles)
    for det in multi:
        for a, b, _c in BiPoly(det).to_triples():
            if not ideal.contains((a, b)):
                raise NonMonomialIdeal(
                    f"minor term x^{a} y^{b} is not reducible by the candidate ideal"
                )
    return ideal


def _rank_at(mat: PresMatrix, k: int, t: int) -> int:
    """Rank over Q of M with variable k (0 for x, 1 for y) set to 0 and the other to t.

    At t = 0 it reads the constant terms, since 0 ** 0 == 1.
    """
    e = mat.rank
    span = PivotSpan(e)
    for col in mat.cols:
        row: dict[int, int] = {}
        for i, entry in enumerate(col):
            for mon, c in entry.items():
                if not mon[k]:
                    row[i] = row.get(i, 0) + c * t ** mon[1 - k]
        if span.add(row.items()) and span.rank == e:
            break
    return span.rank


def refuse_infinite_length(mat: PresMatrix) -> None:
    """Refuse a module whose I_e is not m-primary, so of infinite length (Fitting's lemma).

    A square M has I_e = (det M), m-primary iff M(0, 0) has rank e, and that
    decides.  With fewer columns than rows I_e = 0, and x is named at once.
    Otherwise x divides every maximal minor iff M(0, y), M with every term of
    positive x-degree dropped, has rank below e over Q(y).  Its rank at y = 1
    is no larger, so rank e there passes; a graded M, where M(0, y) =
    diag(y^-w) C diag(y^delta), has there the rank it has over Q(y).
    Otherwise the rank is read at y = t, with t the bound
    e! prod_i max_j |M(0, .)_ij|_1 on the absolute coefficient sum of every
    maximal minor of M(0, y), plus 2: no root of a nonzero one (Cauchy's
    bound).  The same runs for y.  The proof is complete on graded input: I_e
    is monomial, and if not m-primary it lies in (x) or (y).
    """
    e = mat.rank
    if mat.ncols == e:
        if _rank_at(mat, 0, 0) < e:
            raise NotFiniteColength("the determinant lies in the maximal ideal: infinite length")
        return
    if mat.ncols < e:
        raise NotFiniteColength("every maximal minor is divisible by x: infinite length")
    for k, var in enumerate("xy"):
        if _rank_at(mat, k, 1) == e:
            continue
        t = factorial(e) * prod(max(sum(abs(c) for mon, c in col[i].items() if not mon[k])
                                    for col in mat.cols) for i in range(e)) + 2
        if _rank_at(mat, k, t) < e:
            raise NotFiniteColength(f"every maximal minor is divisible by {var}: infinite length")


def finite_fitting(mat: PresMatrix) -> MonomialIdeal:
    """I_e(M), certified after refuse_infinite_length, so m-primary (Fitting's lemma)."""
    refuse_infinite_length(mat)
    return fitting_ideal(mat, mat.rank)


def closed_form_fitting(ideal: MonomialIdeal, rank: int) -> MonomialIdeal:
    """Monomial ideal the maximal minors must generate, read off the staircase."""
    _aprime, c = module_spec(ideal, rank)  # refuses what the construction refuses
    gens = list(ideal.gens[: ideal.r - rank + 2])
    for i in range(1, rank):
        gens.append(Monomial(rank - 1 - i, c[i - 1] + i))
    return canonicalize(gens)


# ---------------------------------------------------------------------------
# graded presentations: exact sums over the grid of row and column degrees
# ---------------------------------------------------------------------------

def _grading(mat: PresMatrix):
    """Row degrees, column degrees, column coefficient vectors and the walk, or None.

    A matrix from build_module carries them in closed form, and they are
    returned as they are; every other matrix (matrix JSON, from_ideal,
    block sums) is walked.  A single-term entry c x^a y^b in row i and column
    j ties the degrees together: delta_j = w_i + (a, b).  One walk over the
    row/column graph fixes every degree from one root row per connected
    component, put at (0, 0); a row with no entries is a component of its
    own.  The matrix is not graded when an entry has two or more terms or
    when two entries of a column give it two different degrees.  The vector
    of column j lists its (row, coefficient) pairs.  The walk lists every row
    once, as (row, parent row or -1 for a root, column it was reached by or
    -1), in placement order: each row after its parent, each component after
    the one before.
    """
    if mat._built_grading is not None:
        return mat._built_grading
    e = mat.rank
    col_terms = []
    row_edges: list[list[tuple[int, int, int]]] = [[] for _ in range(e)]
    for j, col in enumerate(mat.cols):
        terms = []
        for i, entry in enumerate(col):
            if entry:
                items = entry.items()
                if len(items) > 1:
                    return None
                (a, b), c = items[0]
                terms.append((i, a, b, c))
                row_edges[i].append((j, a, b))
        col_terms.append(terms)
    row_deg: list = [None] * e
    col_deg: list = [None] * len(col_terms)
    walk = []
    for root in range(e):
        if row_deg[root] is not None:
            continue
        row_deg[root] = (0, 0)
        walk.append((root, -1, -1))
        stack = [root]
        while stack:
            i = stack.pop()
            wx, wy = row_deg[i]
            # every row is popped once, so this checks every entry against its column
            for j, a, b in row_edges[i]:
                d = (wx + a, wy + b)
                if col_deg[j] is None:
                    col_deg[j] = d
                    for k, ka, kb, _c in col_terms[j]:
                        if row_deg[k] is None:
                            row_deg[k] = (d[0] - ka, d[1] - kb)
                            walk.append((k, i, j))
                            stack.append(k)
                elif col_deg[j] != d:
                    return None
    vecs = [[(i, c) for i, _a, _b, c in terms] for terms in col_terms]
    return row_deg, col_deg, vecs, walk


def _graded_sweep(row_deg, col_deg, vecs) -> tuple[int | None, int]:
    """Colength (None when infinite) and generator count of a graded presentation.

    The degree-delta piece of the free module has one basis vector
    x^(delta - w_i) e_i for each row with w_i <= delta, and the submodule's
    piece is spanned by the vectors of the columns with delta_j <= delta.  Both
    are constant on the cells of the grid cut out by the row and column
    degrees.  Each x-strip of the grid is swept in y order with one span on the
    rows: the colength sums deficiency times cell area, and the generator count
    sums the rank that the columns of degree exactly the cell corner add to the
    columns below them, which go in first (at equal y, those left of the strip).
    """
    graph = all(len(v) == 1 or (len(v) == 2 and abs(v[0][1]) == abs(v[1][1])) for v in vecs)
    events = sorted([(wy, wx, None) for wx, wy in row_deg]
                    + [(dy, dx, v) for (dx, dy), v in zip(col_deg, vecs)],
                    key=lambda ev: (ev[0], ev[1]))
    strips = sorted({x for _y, x, _v in events})
    colength = mu = 0
    finite = True
    for k, strip in enumerate(strips):
        width = strips[k + 1] - strip if k + 1 < len(strips) else None
        span = (GraphSpan if graph else PivotSpan)(len(row_deg))
        rows = deficiency = 0
        low = None
        for y, x, vec in events:
            if x > strip:
                continue
            if deficiency and y != low:  # close the cells [low, y) of this strip
                if width is None:
                    finite = False
                else:
                    colength += deficiency * width * (y - low)
            low = y
            if vec is None:
                rows += 1
            elif span.add(vec) and x == strip:
                mu += 1
            deficiency = rows - span.rank
        if deficiency:  # the cell above the last event is unbounded
            finite = False
    return (colength if finite else None), mu


# ---------------------------------------------------------------------------
# truncated linear algebra with Nakayama certificates (ungraded input)
# ---------------------------------------------------------------------------

def _column_terms(mat: PresMatrix) -> list[tuple[list[tuple[int, int, int, int]], int]]:
    cols = []
    for col in mat.cols:
        terms = []
        for k, entry in enumerate(col):
            for mon, c in entry.items():
                terms.append((k, mon.a, mon.b, c))
        cols.append((terms, min(a + b for _k, a, b, _c in terms)))
    return cols


def _relation_leads(relations, ncols: int) -> list[list[tuple[int, int]]]:
    """Leading monomials, per column, of an echelon basis of the relations' span over Q.

    A relation r lists one polynomial per column with sum_j r_j col_j = 0.  Its
    terms x^a y^b e_j are ordered by the key (a + b, a, j), and its leading term
    has the least key: lowest total degree first, as in a local order, then the
    x-exponent, then the column.  The key is additive under monomial shifts, so
    for a relation led by x^a y^b e_j and any shift s, s x^a y^b col_j is a
    combination of the shifted columns s m col_k whose terms (m, k) come after
    the lead.  Fraction-free integer elimination on the least keys gives a basis
    whose leads are distinct.
    """
    pivots: dict[tuple[int, int, int], dict] = {}
    for rel in relations:
        row = {(m.a + m.b, m.a, j): c for j, poly in enumerate(rel) for m, c in poly.items()}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            g = gcd(piv[lead], row[lead])
            p, q = piv[lead] // g, row[lead] // g
            row = {t: p * v for t, v in row.items()}
            for t, v in piv.items():
                w = row.get(t, 0) - q * v
                if w:
                    row[t] = w
                else:
                    row.pop(t, None)
    leads: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for t, a, j in pivots:
        leads[j].append((a, t - a))
    return leads


def _truncation(cols, e: int, deg: int, leads=None) -> tuple[PivotSpan, int]:
    """Span of every monomial multiple of the columns of degree <= deg.

    Coordinates are numbered degree first: x^a y^b in component k sits at
    e * tri(t) + k * (t + 1) + b with t = a + b, so the coordinates of degree
    <= t are a prefix.  The multiples go in by descending shift degree, which
    fills the top degrees first and lets the span trim them early; the columns
    themselves go last, and the second value counts the columns that still
    raised the rank.  Pivots lead at their minimal coordinate, so projected to
    the prefix of degree <= t this elimination is the one at t.

    leads (from _relation_leads) lists per column the leading monomials of its
    relations; a shift divisible by one of them is skipped.  The skipped row is a
    combination of rows behind it in the order, each built, skipped in turn, or
    of degree above deg and so zero in the truncation; the span, its rank, its
    pivot leads and top are those of the full build (gained is not, so mu_module
    passes none).
    """
    span = PivotSpan(e * tri(deg + 1))
    gained = 0
    for d in range(deg, -1, -1):
        for j, (terms, ordj) in enumerate(cols):
            if ordj + d > deg:
                continue
            # x^alpha y^(d - alpha) is a multiple of the lead x^a y^b when a <= alpha <= d - b
            covered = {alpha for a, b in leads[j] for alpha in range(a, d - b + 1)} if leads else ()
            # y^d times the column; x^alpha y^(d - alpha) sits alpha coordinates below it
            base = [(e * tri(t) + k * (t + 1) + b + d, c)
                    for k, a, b, c in terms if (t := a + b + d) <= deg]
            for alpha in range(d + 1):
                if alpha in covered:
                    continue
                if span.add([(u - alpha, c) for u, c in base]) and not d:
                    gained += 1
    return span, gained


def _certified_degree(span: PivotSpan, e: int, deg: int) -> int | None:
    """Smallest degree t <= deg at which the Nakayama certificate holds, or None.

    The certificate at t says that every basis vector of degree t lies in the
    span truncated at t: read off the elimination at deg, every coordinate of
    degree t is a pivot lead, counting the trimmed suffix [top, n) as leads.
    It holds at every degree above one where it holds, so the scan walks down
    from deg and stops at the first degree where it fails.
    """
    leads = span.pivots
    top = span.top
    found = None
    for t in range(deg, -1, -1):
        if not all(c in leads for c in range(e * tri(t), min(top, e * tri(t + 1)))):
            break
        found = t
    return found


def _degrees(cols, cap: int, start: int | None):
    # the certificate is monotone in the degree, so any sequence ending at the cap is sound
    if start is None:
        start = max(a + b for terms, _o in cols for _k, a, b, _c in terms) + 1
    yield from range(min(start, cap), cap, 2)
    yield cap


def certified_colength(mat: PresMatrix, cap: int, abort_above: int | None = None,
                       start: int | None = None, relations=()) -> tuple[int, int] | None:
    """Certified colength and the smallest truncation degree that certifies it.

    Builds at the degrees start, start + 2, ... below the cap, and last at the
    cap itself; start defaults to one past the largest entry degree.  The first
    build whose elimination certifies some degree returns that build's
    deficiency with the smallest certifying degree, which may lie below the
    degree built.  Every degree that certifies gives the exact colength, so any
    nonnegative start is sound.  Returns None instead once a build's
    deficiency, a lower bound on the colength, exceeds abort_above.  This is
    the truncation engine, for any matrix; the reduction sampler calls it
    directly.

    relations are syzygies of the columns, each one polynomial per column with
    sum_j r_j col_j = 0; the caller vouches for them.  Every build skips the
    shifted columns that their leading terms prove redundant (_relation_leads),
    which leaves the span, and so every value returned, unchanged.
    """
    cols = _column_terms(mat)
    e = mat.rank
    leads = _relation_leads(relations, mat.ncols) if relations else None
    for deg in _degrees(cols, cap, start):
        span, _gained = _truncation(cols, e, deg, leads)
        deficiency = e * tri(deg + 1) - span.rank
        if abort_above is not None and deficiency > abort_above:
            return None
        certified = _certified_degree(span, e, deg)
        if certified is not None:
            return deficiency, certified
    raise NotFiniteColength(f"certificate failed at all truncation degrees up to the cap {cap}")


def colength_module(mat: PresMatrix, cap: int = DEFAULT_CAP) -> int:
    """Length of the free quotient: a grid sum when graded, else truncated ranks.

    A graded matrix (every entry a single term, with row and column degrees
    that agree, as for build_module and from_ideal) gets the exact
    sum over the degree grid, with no cap (build_module's grading comes
    attached, and any other is walked).  Any other matrix goes to
    certified_colength, whose truncation degrees stop at the cap, after
    refuse_infinite_length; so does a graded one whose sweep finds a nonzero
    piece on an unbounded cell, and the proof, complete on graded input, refuses
    it.  A finite sweep never runs the proof.
    """
    graded = _grading(mat)
    if graded is not None:
        colength = _graded_sweep(*graded[:3])[0]
        if colength is not None:
            return colength
    refuse_infinite_length(mat)
    return certified_colength(mat, cap)[0]


def mu_module(mat: PresMatrix, cap: int = DEFAULT_CAP) -> int:
    """Minimal number of generators.

    A graded matrix gets the exact count from the degree grid, with no cap,
    whether or not its colength is finite.  Otherwise it is a certified
    truncated rank difference: the rank the columns add to their
    positive-degree multiples is a lower bound at every truncation degree; it
    is exact as soon as it reaches the column count, and otherwise once the
    Nakayama certificate holds.
    """
    graded = _grading(mat)
    if graded is not None:
        return _graded_sweep(*graded[:3])[1]
    cols = _column_terms(mat)
    for deg in _degrees(cols, cap, None):
        span, gained = _truncation(cols, mat.rank, deg)
        if gained == mat.ncols or _certified_degree(span, mat.rank, deg) is not None:
            return gained
    raise NotFiniteColength(
        f"generator count did not stabilize at truncation degrees up to the cap {cap}"
    )
