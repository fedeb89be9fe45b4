"""Calculus of m-primary monomial ideals in two variables.

An ideal is kept as its minimal staircase generating set, sorted with the
x-exponent strictly decreasing.  All invariants (order, colength, Newton
hull, integral closure, factorization into coprime blocks) are computed with
integer arithmetic only.  Lengths are lengths over the rationals as the
coefficient field.  All values are immutable; functions are pure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator

from .algebra import Monomial


class EmptyGenerators(ValueError):
    """No generators were supplied."""


class NotPrimary(ValueError):
    """The staircase does not touch both axes."""


class NotComplete(ValueError):
    """Operation requires an integrally closed ideal."""


def _minimalize(points: list[Monomial]) -> list[Monomial]:
    # in (a, b) order a point is minimal iff its b is below every earlier b;
    # the kept points then have a increasing and b strictly decreasing
    keep: list[Monomial] = []
    for p in sorted(points):
        if not keep or p.b < keep[-1].b:
            keep.append(p)
    return keep[::-1]


def canonicalize(points: Iterable) -> "MonomialIdeal":
    """Minimal sorted generating set from an arbitrary list of exponent pairs."""
    pts = []
    for p in points:
        a, b = int(p[0]), int(p[1])
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in generator ({a}, {b})")
        pts.append(Monomial(a, b))
    if not pts:
        raise EmptyGenerators("a monomial ideal needs at least one generator")
    return MonomialIdeal(tuple(_minimalize(pts)))


@dataclass(frozen=True)
class NewtonHull:
    """Lattice vertices of the Newton polyhedron, x-exponent decreasing."""

    vertices: tuple[Monomial, ...]

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Edge steps (da, db) with da = drop in x and db = rise in y."""
        v = self.vertices
        return [(v[i - 1].a - v[i].a, v[i].b - v[i - 1].b) for i in range(1, len(v))]


@dataclass(frozen=True)
class SimpleFactorization:
    """Coprime blocks (p, q, multiplicity) sorted by increasing slope q/p."""

    factors: tuple[tuple[int, int, int], ...]

    def expand(self) -> list[tuple[int, int]]:
        """Unit factors with multiplicities written out."""
        out = []
        for p, q, mult in self.factors:
            out.extend([(p, q)] * mult)
        return out

    def rebuild(self) -> "MonomialIdeal":
        """Product of the closure blocks; reconstructs the factored ideal."""
        acc: MonomialIdeal | None = None
        for p, q, mult in self.factors:
            block = simple_closure(p, q) ** mult
            acc = block if acc is None else acc * block
        if acc is None:
            raise EmptyGenerators("factorization has no factors")
        return acc


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators of a monomial ideal, x-exponent strictly decreasing."""

    gens: tuple[Monomial, ...]

    @property
    def r(self) -> int:
        """Number of minimal generators minus one."""
        return len(self.gens) - 1

    @property
    def is_m_primary(self) -> bool:
        return self.gens[0].b == 0 and self.gens[-1].a == 0

    @property
    def is_normalized(self) -> bool:
        """m-primary with the pure x power not exceeding the pure y power."""
        return self.is_m_primary and self.gens[0].a <= self.gens[-1].b

    def _require_primary(self) -> None:
        if not self.is_m_primary:
            raise NotPrimary(f"ideal {self.to_pairs()} is not m-primary")

    def contains(self, mon) -> bool:
        """Monomial membership: some generator divides the given exponent pair.

        The y-exponents increase along the generators, so the last generator
        with y-exponent at most the monomial's has the least x-exponent of
        those that could divide it; a bisection finds it.
        """
        a, b = int(mon[0]), int(mon[1])
        i = bisect_right(self.gens, b, key=itemgetter(1)) - 1
        return i >= 0 and self.gens[i].a <= a

    def order(self) -> int:
        """Largest n with the ideal inside the n-th power of the maximal ideal."""
        self._require_primary()
        return min(g.a + g.b for g in self.gens)

    def mu(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    def colength(self) -> int:
        """Number of lattice points below the staircase."""
        self._require_primary()
        total = 0
        for i in range(len(self.gens) - 1):
            total += self.gens[i].a * (self.gens[i + 1].b - self.gens[i].b)
        return total

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return canonicalize([g.times(h) for g in self.gens for h in other.gens])

    def __pow__(self, n: int) -> "MonomialIdeal":
        if n < 1:
            # the unit ideal would break the m-primary staircase invariant
            raise ValueError("power must be a positive integer")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def newton_vertices(self) -> NewtonHull:
        """Lower-left convex hull vertices of the generator exponents."""
        self._require_primary()
        chain: list[Monomial] = []
        for p in self.gens:  # already sorted with a strictly decreasing
            while len(chain) >= 2:
                u, v = chain[-2], chain[-1]
                # pop v unless the slope strictly increases at v
                if (v.b - u.b) * (v.a - p.a) < (p.b - v.b) * (u.a - v.a):
                    break
                chain.pop()
            chain.append(p)
        return NewtonHull(tuple(chain))

    def _edge_forms(self) -> list[tuple[int, int, int]]:
        """Inequalities (dq, dp, c): a point (u, v) is over edge i iff dq*u + dp*v >= c."""
        hull = self.newton_vertices().vertices
        forms = []
        for i in range(1, len(hull)):
            dp = hull[i - 1].a - hull[i].a
            dq = hull[i].b - hull[i - 1].b
            c = dq * hull[i - 1].a + dp * hull[i - 1].b
            forms.append((dq, dp, c))
        return forms

    def integral_closure(self) -> "MonomialIdeal":
        """Staircase of all lattice points on or above the Newton hull."""
        self._require_primary()
        forms = self._edge_forms()
        b_top = self.gens[-1].b
        gens = []
        for b in range(b_top + 1):
            need = 0
            for dq, dp, c in forms:
                rem = c - dp * b
                if rem > 0:
                    need = max(need, -(-rem // dq))  # ceiling division
            gens.append(Monomial(need, b))
        return canonicalize(gens)

    def is_complete(self) -> bool:
        """True when the ideal equals its integral closure."""
        return self == self.integral_closure()

    def is_contracted_numeric(self) -> bool:
        """Numeric contraction test: generator count equals order plus one."""
        return self.mu() == self.order() + 1

    def zariski_factor(self) -> SimpleFactorization:
        """Unique factorization into coprime closure blocks, one per hull edge."""
        if not self.is_complete():
            raise NotComplete("factorization is defined for complete ideals only")
        factors = []
        for da, db in self.newton_vertices().edges:
            d = gcd(da, db)
            factors.append((da // d, db // d, d))
        return SimpleFactorization(tuple(factors))

    def is_simple(self) -> bool:
        """Complete and not a product of two proper ideals."""
        if not self.is_complete():
            return False
        f = self.zariski_factor().factors
        return len(f) == 1 and f[0][2] == 1

    def swap_axes(self) -> "MonomialIdeal":
        """Exchange the roles of x and y."""
        return canonicalize([Monomial(g.b, g.a) for g in self.gens])

    def normalized(self) -> "MonomialIdeal":
        """The ideal with axes swapped when the pure x power exceeds the pure y power.

        Returned unchanged when already normalized or not m-primary.
        """
        if self.is_normalized or not self.is_m_primary:
            return self
        return self.swap_axes()

    def to_pairs(self) -> list[list[int]]:
        return [[g.a, g.b] for g in self.gens]

    def to_json(self) -> dict:
        """Shared ideal wire format: {"gens": [[a, b], ...]}, a descending."""
        return {"gens": self.to_pairs()}


def from_json(obj) -> MonomialIdeal:
    """Parse the {"gens": [[a, b], ...]} wire format; the unit ideal is refused."""
    if not isinstance(obj, dict) or "gens" not in obj:
        raise ValueError('ideal JSON must be an object with a "gens" key')
    gens = obj["gens"]
    if not isinstance(gens, list):
        raise ValueError('"gens" must be a list of [a, b] pairs')
    pairs = []
    for g in gens:
        if not isinstance(g, (list, tuple)) or len(g) != 2:
            raise ValueError(f"bad generator entry {g!r}")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in g):
            raise ValueError(f"generator exponents must be integers, got {g!r}")
        pairs.append(g)
    ideal = canonicalize(pairs)
    if ideal.gens == (Monomial(0, 0),):
        # the unit ideal passes is_m_primary (it touches both axes) but is not proper
        raise NotPrimary("the unit ideal is not a proper ideal, so it is not m-primary")
    return ideal


def maximal_ideal() -> MonomialIdeal:
    return canonicalize([(1, 0), (0, 1)])


def maximal_ideal_power(n: int) -> MonomialIdeal:
    return canonicalize([(n - b, b) for b in range(n + 1)])


def simple_closure(p: int, q: int) -> MonomialIdeal:
    """Integral closure of the two-generator ideal with pure powers x^p, y^q."""
    if p < 1 or q < 1:
        raise ValueError("exponents must be positive")
    return canonicalize([(p, 0), (0, q)]).integral_closure()


def enumerate_staircases(max_a: int, max_b: int, min_r: int = 1,
                         star_only: bool = False) -> Iterator[MonomialIdeal]:
    """All m-primary staircases with exponents inside the given box.

    star_only keeps only those with the pure x power at most the pure y power.
    """
    top = min(max_a, max_b)
    for r in range(max(min_r, 1), top + 1):
        for aset in combinations(range(1, max_a + 1), r):
            a_seq = list(reversed(aset))  # strictly decreasing, then 0
            for bset in combinations(range(1, max_b + 1), r):
                if star_only and a_seq[0] > bset[-1]:
                    continue
                gens = tuple(
                    Monomial(a_seq[i] if i < r else 0, 0 if i == 0 else bset[i - 1])
                    for i in range(r + 1)
                )
                yield MonomialIdeal(gens)


def enumerate_complete_staircases(max_a: int, max_b: int, min_r: int = 1,
                                  star_only: bool = False) -> list[MonomialIdeal]:
    """All complete staircases in the box, via strictly convex hull chains."""
    ideals: list[MonomialIdeal] = []

    def extend(vertices: list[Monomial], last: tuple[int, int] | None) -> None:
        pa, pb = vertices[-1]
        if pa == 0:
            ideal = canonicalize(vertices).integral_closure()
            if ideal.r >= min_r and (not star_only or ideal.is_normalized):
                ideals.append(ideal)
            return
        for da in range(1, pa + 1):
            for db in range(1, max_b - pb + 1):
                # slopes must strictly increase along the chain
                if last is not None and db * last[0] <= last[1] * da:
                    continue
                vertices.append(Monomial(pa - da, pb + db))
                extend(vertices, (da, db))
                vertices.pop()

    for p0 in range(1, max_a + 1):
        extend([Monomial(p0, 0)], None)
    ideals.sort(key=lambda ideal: ideal.gens)
    return ideals
