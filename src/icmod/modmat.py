"""Presentation matrices of finite-colength submodules of a free module.

Builds the rank-e module attached to a normalized staircase, computes Fitting
ideals from exact minors, and certifies minimal generator counts and
colengths by truncated linear algebra with a Nakayama stopping certificate;
both run one truncation builder over one degree sequence that ends at the
cap.  Pure computation throughout; the minor sweep and the truncated spans
are deterministic regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import BiPoly, GraphSpan, Monomial, PivotSpan, X, Y, tri
from .staircase import MonomialIdeal, NotPrimary, canonicalize


class RankOutOfRange(ValueError):
    """Requested rank outside 2..r."""


class NegativeExponent(ValueError):
    """Shifted x-exponents would become negative."""


class NotNormalized(ValueError):
    """Staircase violates the normalization expected by the construction."""


class NonMonomialIdeal(RuntimeError):
    """Minor ideal could not be certified monomial."""


class NotFiniteColength(RuntimeError):
    """Nakayama certificate failed up to the configured truncation cap."""


class AbortColength(Exception):
    """Partial colength already exceeded the caller's threshold."""


@dataclass(frozen=True)
class ModuleSpec:
    """Shifted exponent data defining the rank-e module of a staircase."""

    ideal: MonomialIdeal
    rank: int
    aprime: tuple[int, ...]
    c: tuple[int, ...]


@dataclass(frozen=True)
class PresMatrix:
    """Columns generating a submodule of the rank-e free module."""

    rank: int
    cols: tuple[tuple[BiPoly, ...], ...]

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


def _is_term(term) -> bool:
    return (isinstance(term, list) and len(term) == 3
            and all(isinstance(v, int) and not isinstance(v, bool) for v in term))


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
            if not isinstance(entry, list) or not all(map(_is_term, entry)):
                raise ValueError(f"entry {entry!r} is not a list of [a, b, c] integer triples")
        cols.append(tuple(BiPoly.from_triples(entry) for entry in col))
    return PresMatrix(rank, tuple(cols))


def module_spec(ideal: MonomialIdeal, rank: int) -> ModuleSpec:
    if not ideal.is_m_primary:
        raise NotPrimary("construction needs an m-primary staircase")
    r = ideal.r
    if not 2 <= rank <= r:
        raise RankOutOfRange(f"rank must lie in 2..{r}, got {rank}")
    gens = ideal.gens
    if gens[0].a > gens[-1].b:
        raise NotNormalized(
            "pure x power exceeds pure y power; swap_axes gives the normalized form"
        )
    aprime = tuple(gens[i].a - rank + 1 for i in range(r - rank + 2))
    if aprime[-1] < 0:
        raise NegativeExponent(f"shifted exponent {aprime[-1]} is negative")
    c = tuple(gens[r - rank + 1 + i].b - i for i in range(1, rank))
    return ModuleSpec(ideal, rank, aprime, c)


def build_module(ideal: MonomialIdeal, rank: int) -> PresMatrix:
    """Presentation matrix of the rank-e module attached to a staircase.

    Columns come in three blocks: the staircase block in the first row, the
    two-term band shifting each basis vector into the next, and the pure
    y-power columns closing the band.
    """
    spec = module_spec(ideal, rank)
    e = rank
    gens = ideal.gens
    zero = BiPoly.zero()
    cols: list[tuple[BiPoly, ...]] = []
    for i, ap in enumerate(spec.aprime):
        col = [zero] * e
        col[0] = BiPoly.term(ap, gens[i].b)
        cols.append(tuple(col))
    for i in range(1, e):
        col = [zero] * e
        col[i - 1] = Y
        col[i] = X
        cols.append(tuple(col))
    for i in range(1, e):
        col = [zero] * e
        col[i] = BiPoly.term(0, spec.c[i - 1])
        cols.append(tuple(col))
    return PresMatrix(e, tuple(cols))


def from_ideal(ideal: MonomialIdeal) -> PresMatrix:
    """Rank-one matrix whose columns are the staircase generators."""
    return PresMatrix(1, tuple((BiPoly.term(g.a, g.b),) for g in ideal.gens))


def direct_sum(p1: PresMatrix, p2: PresMatrix) -> PresMatrix:
    """Block-diagonal sum; colengths add and top minors multiply."""
    if p2.rank == 0:
        return p1
    if p1.rank == 0:
        return p2
    zero = BiPoly.zero()
    top = [tuple(col) + (zero,) * p2.rank for col in p1.cols]
    bot = [(zero,) * p1.rank + tuple(col) for col in p2.cols]
    return PresMatrix(p1.rank + p2.rank, tuple(top + bot))


# ---------------------------------------------------------------------------
# minors and Fitting ideals
# ---------------------------------------------------------------------------

def signed_minor_table(mat: PresMatrix, t: int) -> dict[tuple, BiPoly]:
    """All nonzero t-by-t minors keyed by (row tuple, column tuple).

    Laplace expansion along the rows of each row subset: the partial minor of
    the first k rows is kept per set of used columns (a bitmask) as a sparse
    term dict, and dropped as soon as it cancels to zero, so only column sets
    that can still carry a nonzero determinant are extended.
    """
    e = mat.rank
    if not 1 <= t <= e:
        raise ValueError(f"minor size must lie in 1..{e}")
    row_entries: list[list] = [[] for _ in range(e)]
    for j, col in enumerate(mat.cols):
        for i, entry in enumerate(col):
            if entry:
                row_entries[i].append((j, [(m.a, m.b, c) for m, c in entry.items()]))
    table: dict[tuple, BiPoly] = {}
    for rows in combinations(range(e), t):
        partial: dict[int, dict] = {0: {(0, 0): 1}}
        for i in rows:
            grown: dict[int, dict] = {}
            for mask, poly in partial.items():
                for j, terms in row_entries[i]:
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
        for mask, poly in partial.items():
            cols = tuple(j for j in range(mat.ncols) if mask >> j & 1)
            table[(rows, cols)] = BiPoly(poly)
    return table


def fitting_ideal(mat: PresMatrix, t: int) -> MonomialIdeal:
    """Certified monomial ideal of t-minors.

    The candidate is generated by the single-term minors (signs dropped); the
    certificate checks that every term of every minor is divisible by some
    candidate generator.  Refuses with NonMonomialIdeal otherwise, so callers
    never reason about an uncertified monomial structure.
    """
    dets = list(signed_minor_table(mat, t).values())
    singles = []
    for det in dets:
        if det.num_terms == 1:
            a, b, _c = det.single_term()
            singles.append((a, b))
    if not singles:
        raise NonMonomialIdeal(f"no single-term {t}-minors to generate from")
    ideal = canonicalize(singles)
    for det in dets:
        for mon, _c in det.items():
            if not ideal.contains(mon):
                raise NonMonomialIdeal(
                    f"minor term x^{mon.a} y^{mon.b} is not reducible by the candidate ideal"
                )
    return ideal


def closed_form_fitting(ideal: MonomialIdeal, rank: int) -> MonomialIdeal:
    """Monomial ideal the maximal minors must generate, from the shifted data."""
    spec = module_spec(ideal, rank)
    gens = list(ideal.gens[: ideal.r - rank + 2])
    for i in range(1, rank):
        gens.append(Monomial(rank - 1 - i, spec.c[i - 1] + i))
    return canonicalize(gens)


# ---------------------------------------------------------------------------
# truncated linear algebra with Nakayama certificates
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


def _graph_mode(cols) -> bool:
    for terms, _o in cols:
        if len(terms) > 2:
            return False
        if len(terms) == 2 and abs(terms[0][3]) != abs(terms[1][3]):
            return False
    return True


def _truncation(cols, e: int, graph: bool, deg: int) -> tuple[GraphSpan | PivotSpan, int]:
    """Span of every monomial multiple of the columns of degree <= deg.

    The positive-degree multiples go in first, then the columns themselves;
    the second value counts the columns that still raised the rank.
    """
    block = tri(deg + 1)
    span = (GraphSpan if graph else PivotSpan)(e * block)
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


def _tail_certified(span, e: int, deg: int) -> bool:
    # Nakayama: every basis vector of degree deg lies in the span truncated at deg
    block = tri(deg + 1)
    base = tri(deg)
    return all(span.contains_single(k * block + base + y)
               for k in range(e) for y in range(deg + 1))


def _degrees(cols, cap: int, start: int | None):
    # the certificate is monotone in the degree, so any sequence ending at the cap is sound
    if start is None:
        start = max(a + b for terms, _o in cols for _k, a, b, _c in terms) + 1
    yield from range(min(start, cap), cap, 2)
    yield cap


def certified_colength(mat: PresMatrix, cap: int, abort_above: int | None = None,
                       start: int | None = None) -> tuple[int, int]:
    """Certified colength and the truncation degree that certified it.

    Tries the degrees start, start + 2, ... below the cap, and last the cap
    itself; start defaults to one past the largest entry degree.  Every degree
    that certifies gives the exact colength, so any nonnegative start is sound.
    """
    cols = _column_terms(mat)
    graph = _graph_mode(cols)
    e = mat.rank
    for deg in _degrees(cols, cap, start):
        span, _gained = _truncation(cols, e, graph, deg)
        deficiency = e * tri(deg + 1) - span.rank
        if abort_above is not None and deficiency > abort_above:
            raise AbortColength(deficiency)
        if _tail_certified(span, e, deg):
            return deficiency, deg
    raise NotFiniteColength(f"certificate failed at all truncation degrees up to the cap {cap}")


def colength_module(mat: PresMatrix, cap: int = 64) -> int:
    """Length of the free quotient, certified by the Nakayama stopping rule.

    At truncation degree D the deficiency of the span of all monomial
    multiples of degree <= D equals the colength once every degree-D basis
    vector lies in that span; the degrees tried are those of certified_colength.
    """
    return certified_colength(mat, cap)[0]


def mu_module(mat: PresMatrix, cap: int = 64) -> int:
    """Minimal number of generators, as a certified truncated rank difference.

    The rank the columns add to their positive-degree multiples is a lower
    bound at every truncation degree; it is exact as soon as it reaches the
    column count, and otherwise once the Nakayama certificate holds.
    """
    cols = _column_terms(mat)
    graph = _graph_mode(cols)
    for deg in _degrees(cols, cap, None):
        span, gained = _truncation(cols, mat.rank, graph, deg)
        if gained == mat.ncols or _tail_certified(span, mat.rank, deg):
            return gained
    raise NotFiniteColength(
        f"generator count did not stabilize at truncation degrees up to the cap {cap}"
    )
