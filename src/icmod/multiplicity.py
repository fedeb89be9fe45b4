"""Buchsbaum-Rim multiplicities by two independent routes.

The area route reads the multiplicity of an ideal off its Newton hull by an
exact shoelace sum.  The reduction route samples random integer combinations
of generators, computes the colength of the sampled reduction with the
truncated-rank engine, and certifies the minimum once it is attained by two
samples with distinct derived seeds.  Trials are independent; for a fixed
(input, seed, trials) the certified value is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import BiPoly
from .modmat import (
    AbortColength,
    NotFiniteColength,
    PresMatrix,
    certified_colength,
    signed_minor_table,
)
from .staircase import MonomialIdeal


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


def _combine(gens: list[BiPoly], coeffs) -> BiPoly:
    acc = BiPoly.zero()
    for g, c in zip(gens, coeffs):
        if c:
            acc = acc + g * c
    return acc


def _sample_minimum(draw, trials: int, seed: int, cap: int) -> ReductionSample:
    """Shared trial loop: draw generators, measure, keep the certified minimum.

    Degenerate samples (no finite colength up to the cap) are resampled
    automatically but still consume a trial.  Samples provably above the
    current best abort early; they can never improve the minimum.  The
    truncation level that certified one trial seeds the next, since generic
    samples certify at the same level.
    """
    if trials < 2:
        raise ValueError("certification needs at least two trials")
    best: int | None = None
    hits = 0
    best_coeffs: tuple[tuple[int, ...], ...] = ()
    degenerate = 0
    level_hint: int | None = None
    for t in range(trials):
        rng = random.Random(_derived_seed(seed, t))
        coeffs, gens = draw(rng)
        if not all(gens):
            degenerate += 1
            continue
        mat = PresMatrix(1, tuple((g,) for g in gens))
        start = level_hint
        if start is None:
            orders = sorted(g.order for g in gens)
            start = max(3, orders[0] + orders[1] + 1)
        try:
            value, level = certified_colength(mat, cap, abort_above=best, start=start)
        except AbortColength:
            continue  # completed trial, provably not the minimum
        except NotFiniteColength:
            degenerate += 1
            continue
        level_hint = level
        if best is None or value < best:
            best, hits, best_coeffs = value, 1, coeffs
        elif value == best:
            hits += 1
    if best is None:
        raise NotFiniteColength(f"all {trials} samples were degenerate")
    if hits < 2:
        raise Uncertified(
            f"minimum {best} attained once in {trials} trials ({degenerate} degenerate)"
        )
    return ReductionSample(seed=seed, coefficients=best_coeffs, value=best, certified=True)


def reduction_multiplicity(ideal: MonomialIdeal, trials: int = 4, seed: int = 0,
                           cap: int = 64, coeff_bound: int = 9) -> ReductionSample:
    """Multiplicity of an m-primary ideal from two random generator combinations.

    Each trial draws two integer combinations of the staircase generators and
    measures the colength of the ideal they span with the rank-one engine.
    Every sample is an upper bound for the multiplicity; generic samples are
    exact, and agreement of two distinct-seed samples certifies the minimum.
    """
    if not ideal.is_m_primary:
        raise ValueError("reduction sampling needs an m-primary ideal")
    gens = [BiPoly.term(g.a, g.b) for g in ideal.gens]

    def draw(rng):
        coeffs = tuple(
            tuple(rng.randint(-coeff_bound, coeff_bound) for _ in gens) for _ in range(2)
        )
        return coeffs, [_combine(gens, row) for row in coeffs]

    return _sample_minimum(draw, trials, seed, cap)


def _sampled_minors(mat: PresMatrix, lam) -> list[BiPoly]:
    """Maximal minors of the e x (e+1) matrix mat * lam, the k-th omitting column k.

    Empty when a combined column vanishes: every minor but one is zero then.
    """
    e = mat.rank
    cols = []
    for k in range(e + 1):
        col = tuple(
            BiPoly((mon, c * w[k]) for src, w in zip(mat.cols, lam) for mon, c in src[i].items())
            for i in range(e)
        )
        if not any(col):
            return []
        cols.append(col)
    table = signed_minor_table(PresMatrix(e, tuple(cols)), e)
    rows = tuple(range(e))
    zero = BiPoly.zero()
    return [table.get((rows, tuple(j for j in range(e + 1) if j != k)), zero)
            for k in range(e + 1)]


def module_multiplicity(mat: PresMatrix, trials: int = 4, seed: int = 0,
                        cap: int = 64, coeff_bound: int = 9) -> ReductionSample:
    """Buchsbaum-Rim multiplicity from sampled rank-plus-one reductions.

    Each trial draws e+1 random integer combinations of the columns, forms
    the ideal of maximal minors of the resulting e x (e+1) matrix, and
    measures its colength with the rank-one engine.  Certification is by
    agreement of the minimum across trials, as for ideals.
    """
    e = mat.rank

    def draw(rng):
        lam = [
            [rng.randint(-coeff_bound, coeff_bound) for _ in range(e + 1)]
            for _ in range(mat.ncols)
        ]
        coeffs = tuple(tuple(row) for row in lam)
        gens = [g for g in _sampled_minors(mat, lam) if g]
        if len(gens) < 2:
            return coeffs, [BiPoly.zero()]  # degenerate draw
        return coeffs, gens

    return _sample_minimum(draw, trials, seed, cap)


@dataclass(frozen=True)
class DifferenceCheck:
    """Both sides of the colength-versus-multiplicity difference identity."""

    lhs: int
    rhs: int
    equal: bool
    sample: ReductionSample


def check_difference_formula(mat: PresMatrix, trials: int = 4, seed: int = 0,
                             cap: int = 64) -> DifferenceCheck:
    """Compare colength gap and multiplicity gap for an integrally closed module.

    lhs is the colength of the minor ideal minus the module colength; rhs is
    the area multiplicity of the minor ideal minus the sampled module
    multiplicity.  The caller is responsible for integral closedness; on
    other inputs the record is still computed but carries no expectation.
    """
    from .modmat import colength_module, fitting_ideal

    fit = fitting_ideal(mat, mat.rank)
    lhs = fit.colength() - colength_module(mat, cap)
    sample = module_multiplicity(mat, trials=trials, seed=seed, cap=cap)
    rhs = area_multiplicity(fit) - sample.value
    return DifferenceCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs, sample=sample)
