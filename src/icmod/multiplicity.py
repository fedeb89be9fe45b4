"""Buchsbaum-Rim multiplicities by two independent routes.

The area route reads the multiplicity of an ideal off its Newton hull by an
exact shoelace sum.  The reduction route samples, for a module of rank e,
e+1 random integer combinations of its columns, computes the colength of the
ideal of maximal minors of the sampled e x (e+1) matrix with the
truncated-rank engine, and certifies the minimum once it is attained by two
samples with distinct derived seeds.  An ideal is the rank-one case: its
generators are the columns and the two minors are the two combinations.
Trials are independent; for a fixed (input, seed, trials) the certified value
is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import BiPoly
from .modmat import (
    DEFAULT_CAP,
    NotFiniteColength,
    PresMatrix,
    certified_colength,
    colength_module,
    finite_fitting,
    from_ideal,
    refuse_infinite_length,
    signed_minor_table,
)
from .staircase import MonomialIdeal

COEFF_BOUND = 9  # sampled combination weights lie in [-COEFF_BOUND, COEFF_BOUND]


class Uncertified(RuntimeError):
    """Trials exhausted without the minimum being attained twice."""


@dataclass(frozen=True)
class ReductionSample:
    """Outcome of randomized reduction sampling for one input."""

    seed: int
    coefficients: tuple[tuple[int, ...], ...]
    value: int
    certified: bool


def area_multiplicity(ideal: MonomialIdeal) -> int:
    """Twice the area between the axes and the Newton hull (exact shoelace).

    The hull of the generators equals the hull of the integral closure, so
    this is the multiplicity of the closure as well; invariance of the
    multiplicity under integral closure is what makes this an oracle for the
    ideal itself.
    """
    hull = ideal.newton_vertices().vertices
    cycle = [(0, 0)] + [(v.a, v.b) for v in hull] + [(0, 0)]
    total = 0
    for (x0, y0), (x1, y1) in zip(cycle, cycle[1:]):
        total += x0 * y1 - x1 * y0
    return abs(total)


def _derived_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _sampled_reduction(mat: PresMatrix, coeffs) -> tuple[list[BiPoly], list[tuple[BiPoly, ...]]]:
    """Nonzero maximal minors of the e x (e+1) matrix A with column k = mat * coeffs[k],
    and the relations among them.

    The k-th minor g_k omits column k.  Expanding the determinant of A with row
    i repeated gives sum_k (-1)^k a_ik g_k = 0, so row i yields the relation
    ((-1)^k a_ik) over the k with g_k nonzero, in the order of the minors
    returned.  Both lists are empty when a combined column vanishes: every
    minor but one is zero then.
    """
    e = mat.rank
    cols = []
    for weights in coeffs:
        col = tuple(
            BiPoly((mon, c * w) for src, w in zip(mat.cols, weights) for mon, c in src[i].items())
            for i in range(e)
        )
        if not any(col):
            return [], []
        cols.append(col)
    table = signed_minor_table(PresMatrix(e, tuple(cols)))
    full = (1 << (e + 1)) - 1
    live = [k for k in range(e + 1) if full ^ (1 << k) in table]
    relations = [tuple(BiPoly((mon, -c) for mon, c in cols[k][i].items()) if k & 1 else cols[k][i]
                       for k in live) for i in range(e)]
    return [BiPoly(table[full ^ (1 << k)]) for k in live], relations


def module_multiplicity(mat: PresMatrix, trials: int = 4, seed: int = 0,
                        cap: int = DEFAULT_CAP) -> ReductionSample:
    """Buchsbaum-Rim multiplicity from sampled rank-plus-one reductions.

    Each trial draws e+1 random integer combinations of the columns
    (coefficients[k][j] weights column j in combination k), forms the ideal of
    maximal minors of the resulting e x (e+1) matrix, and measures its
    colength with the rank-one engine.  Every sample is an upper bound;
    generic samples are exact, and agreement of two distinct-seed samples
    certifies the minimum.

    Degenerate samples (fewer than two nonzero minors) and samples whose
    colength no truncation degree up to the cap certifies still consume a
    trial; the two are counted apart, so a failure can name the cap.  Samples
    provably above the current best abort early; they can never improve the
    minimum.  The smallest truncation degree that certified one trial is the
    degree the next trial builds at first, since generic samples certify at
    the same degree.  Infinite length is refused first (refuse_infinite_length).
    At e >= 2 the sampled matrix's own relations among its minors
    (_sampled_reduction) go to certified_colength, whose builds skip the rows
    they prove redundant; every value and degree stays as without them.
    """
    if trials < 2:
        raise ValueError("certification needs at least two trials")
    refuse_infinite_length(mat)
    best: int | None = None
    hits = 0
    best_coeffs: tuple[tuple[int, ...], ...] = ()
    degenerate = capped = 0
    degree_hint: int | None = None
    for t in range(trials):
        rng = random.Random(_derived_seed(seed, t))
        coeffs = tuple(
            tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(mat.ncols))
            for _ in range(mat.rank + 1)
        )
        gens, relations = _sampled_reduction(mat, coeffs)
        if len(gens) < 2:
            degenerate += 1
            continue
        start = degree_hint
        if start is None:
            orders = sorted(g.order for g in gens)
            start = max(3, orders[0] + orders[1] + 1)
        try:
            # at e = 1 the one relation is Koszul's, whose skips were measured not to pay
            found = certified_colength(PresMatrix(1, tuple((g,) for g in gens)), cap,
                                       abort_above=best, start=start,
                                       relations=relations if mat.rank > 1 else ())
        except NotFiniteColength:
            capped += 1
            continue
        if found is None:
            continue  # completed trial, provably not the minimum
        value, degree_hint = found
        if best is None or value < best:
            best, hits, best_coeffs = value, 1, coeffs
        elif value == best:
            hits += 1
    if best is None and not capped:
        raise NotFiniteColength(f"all {trials} samples were degenerate")
    if best is None:
        raise NotFiniteColength(f"no sample certified a colength up to the truncation cap "
                                f"{cap} ({capped} of {trials} trials reached it, "
                                f"{degenerate} degenerate)")
    if hits < 2:
        raise Uncertified(f"minimum {best} attained once in {trials} trials ({degenerate} "
                          f"degenerate, {capped} uncertified up to the truncation cap {cap})")
    return ReductionSample(seed=seed, coefficients=best_coeffs, value=best, certified=True)


def reduction_multiplicity(ideal: MonomialIdeal, trials: int = 4, seed: int = 0,
                           cap: int = DEFAULT_CAP) -> ReductionSample:
    """Multiplicity of an m-primary ideal: the rank-one case of module_multiplicity.

    Each trial draws two integer combinations of the staircase generators and
    measures the colength of the ideal they span.
    """
    ideal.require_primary()
    return module_multiplicity(from_ideal(ideal), trials, seed, cap)


@dataclass(frozen=True)
class DifferenceCheck:
    """Both sides of the colength-versus-multiplicity difference identity."""

    lhs: int
    rhs: int
    equal: bool
    sample: ReductionSample


def check_difference_formula(mat: PresMatrix, trials: int = 4, seed: int = 0,
                             cap: int = DEFAULT_CAP) -> DifferenceCheck:
    """Compare colength gap and multiplicity gap for an integrally closed module.

    lhs is the colength of the minor ideal minus the module colength; rhs is
    the area multiplicity of the minor ideal minus the sampled module
    multiplicity.  The caller is responsible for integral closedness; on
    other inputs the record is still computed but carries no expectation.
    A module of infinite length raises NotFiniteColength (finite_fitting).
    """
    fit = finite_fitting(mat)
    lhs = fit.colength() - colength_module(mat, cap)
    sample = module_multiplicity(mat, trials=trials, seed=seed, cap=cap)
    rhs = area_multiplicity(fit) - sample.value
    return DifferenceCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs, sample=sample)
