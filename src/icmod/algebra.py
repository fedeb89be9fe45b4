"""Exact arithmetic substrate: monomials, bivariate integer polynomials, exact ranks.

Everything in this module is immutable and pure, so values can be shared and
evaluated concurrently without coordination.  Coefficients are arbitrary
precision integers; ranks are ranks over the rationals.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple


def tri(n: int) -> int:
    """Number of monomials in two variables of total degree < n."""
    return n * (n + 1) // 2


class Monomial(NamedTuple):
    """Exponent pair (a, b) standing for x^a y^b."""

    a: int
    b: int

    @property
    def degree(self) -> int:
        return self.a + self.b

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b)


def _term_key(item):
    mon, _ = item
    return (-(mon.a + mon.b), -mon.a)


class BiPoly:
    """Bivariate polynomial with integer coefficients, stored sparsely.

    The zero polynomial is the empty term map; stored coefficients are never
    zero.  Term order for display and serialization is degree-lex with x
    before y, highest terms first.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable | dict | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mon, c in items:
                if not c:
                    continue
                m = Monomial(int(mon[0]), int(mon[1]))
                if m.a < 0 or m.b < 0:
                    raise ValueError("negative exponent in polynomial term")
                nc = clean.get(m, 0) + c
                if nc:
                    clean[m] = nc
                elif m in clean:
                    del clean[m]
        self._terms = clean

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def term(cls, a: int, b: int, c: int = 1) -> "BiPoly":
        p = cls.__new__(cls)
        p._terms = {Monomial(a, b): c} if c else {}
        return p

    def items(self) -> list[tuple[Monomial, int]]:
        """Terms in canonical order (degree-lex, x before y, descending)."""
        return sorted(self._terms.items(), key=_term_key)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def order(self) -> int | None:
        """Minimal total degree of a term; None for the zero polynomial."""
        if not self._terms:
            return None
        return min(m.a + m.b for m in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_triples(self) -> list[list[int]]:
        """Serialize as [a, b, coefficient] triples in canonical order."""
        return [[m.a, m.b, c] for m, c in self.items()]

    @classmethod
    def from_triples(cls, triples) -> "BiPoly":
        return cls((Monomial(int(t[0]), int(t[1])), int(t[2])) for t in triples)

    def __repr__(self) -> str:
        return f"BiPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mon, c in self.items():
            body = []
            if mon.a:
                body.append("x" if mon.a == 1 else f"x^{mon.a}")
            if mon.b:
                body.append("y" if mon.b == 1 else f"y^{mon.b}")
            mag = abs(c)
            if mag != 1 or not body:
                body.insert(0, str(mag))
            frag = "*".join(body)
            if not parts:
                parts.append(frag if c > 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if c > 0 else f"- {frag}")
        return " ".join(parts)


X = BiPoly.term(1, 0)
Y = BiPoly.term(0, 1)


# ---------------------------------------------------------------------------
# incremental row spans for the graded and truncation engines
# ---------------------------------------------------------------------------

class GraphSpan:
    """Incremental rank of rows having at most two nonzero entries.

    Rows must be single entries (any nonzero coefficient) or pairs of entries
    with equal coefficient magnitude.  Such rows form a signed graph on the
    coordinate set; a component either spans a hyperplane cut out by a +-1
    potential or the full coordinate subspace.  Rank updates are then
    near-constant time.
    """

    __slots__ = ("parent", "sign", "full", "size", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.full = bytearray(n)
        self.size = [1] * n
        self.rank = 0

    def _find(self, u: int) -> tuple[int, int]:
        parent = self.parent
        sign = self.sign
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        acc = 1
        for node in reversed(path):
            acc *= sign[node]
            parent[node] = u
            sign[node] = acc
        return u, acc

    def add(self, row) -> bool:
        """Insert a row; return True when it increased the rank."""
        if len(row) == 1:
            u, _c = row[0]
            r, _ = self._find(u)
            if self.full[r]:
                return False
            self.full[r] = 1
            self.rank += 1
            return True
        (u, cu), (v, cv) = row
        if abs(cu) != abs(cv):
            raise ValueError("pair row with unequal magnitudes")
        ru, su = self._find(u)
        rv, sv = self._find(v)
        eu = su * (1 if cu > 0 else -1)
        ev = sv * (1 if cv > 0 else -1)
        if ru == rv:
            if self.full[ru]:
                return False
            if eu + ev == 0:
                return False  # consistent with the component potential
            self.full[ru] = 1
            self.rank += 1
            return True
        if self.full[ru] and self.full[rv]:
            self._union(ru, rv, 1)
            return False
        # potential ratio making the new row orthogonal to the glued functional
        self._union(ru, rv, -eu * ev)
        self.rank += 1
        return True

    def _union(self, ru: int, rv: int, rel: int) -> None:
        # rel is the required sign of root rv relative to root ru
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.sign[rv] = rel
        self.size[ru] += self.size[rv]
        if self.full[rv]:
            self.full[ru] = 1


class PivotSpan:
    """Incremental exact rank for general sparse integer rows on n coordinates.

    Rows are sequences of (coordinate, coefficient) pairs with distinct
    coordinates.  Reduction keeps integer entries, clearing content as it goes;
    pivots are chosen on the smallest coordinate index, which in the engines
    below means lowest degree first.

    ``top`` is the smallest index such that every coordinate in [top, n) is a
    pivot lead.  A pivot's support starts at its lead, so the pivots leading
    there span that whole coordinate suffix, and a row lies in the span if and
    only if its part below ``top`` does.  Rows and pivots are therefore only
    worked on below ``top``, and the pivots leading at or above it are dropped.
    """

    __slots__ = ("pivots", "rank", "top")

    def __init__(self, n: int):
        self.pivots: dict[int, dict[int, int]] = {}
        self.rank = 0
        self.top = n

    @staticmethod
    def _normalize(row: dict[int, int], lead: int) -> None:
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                break
        if row[lead] < 0:
            g = -g
        if g not in (0, 1):
            for c in row:
                row[c] //= g

    def _reduce(self, row: dict[int, int]) -> tuple[dict[int, int], int | None]:
        # Registered pivot rows have their lead at their minimal coordinate, so
        # reduction only ever adds coordinates above the current one and the
        # lead cursor moves strictly upward.  Entries at or above top are
        # dropped: the span holds that suffix whole.
        pivots = self.pivots
        top = self.top
        if not row:
            return row, None
        cursor = min(row)
        get = row.get
        while row:
            while cursor not in row:
                cursor += 1
            piv = pivots.get(cursor)
            if piv is None:
                return row, cursor
            a = piv[cursor]
            b = row.pop(cursor)
            if a == 1:
                mul = b
            elif b % a == 0:
                mul = b // a
            else:
                g = gcd(a, b)
                scale = a // g
                mul = b // g
                for c in row:
                    row[c] *= scale
            for c, v in piv.items():
                if c == cursor or c >= top:
                    continue
                w = get(c, 0) - mul * v
                if w:
                    row[c] = w
                elif c in row:
                    del row[c]
            cursor += 1
        return row, None

    def add(self, row) -> bool:
        """Insert a row of (coordinate, coefficient) pairs; True when it raised the rank."""
        top = self.top
        work, lead = self._reduce({c: v for c, v in row if v and c < top})
        if lead is None:
            return False
        self._normalize(work, lead)
        pivots = self.pivots
        pivots[lead] = work
        self.rank += 1
        # the suffix grows down through consecutive leads; its pivots are no longer read
        while top - 1 in pivots:
            top -= 1
            del pivots[top]
        self.top = top
        return True

    # no engine calls this; it stays because perfbench/tracer.py wraps it by name
    def contains_single(self, u: int) -> bool:
        if u >= self.top:
            return True
        work, lead = self._reduce({u: 1})
        return lead is None
