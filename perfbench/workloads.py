"""The three benchmark workloads: seeded inputs, timed calls and oracles.

Each workload turns ``(icmod modules, seed)`` into a list of ``Item``s.  An
item's ``run`` is the timed call into the library; its ``check`` compares the
result with an oracle and runs outside the timed region.  Inputs are drawn by
``stratified``: every stratum of the population contributes a fixed number
of members, so the cost of a pass is nearly the same for every seed and only
the choice of members inside each stratum moves with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")

SWEEP9_FRACTION = 1 / 36  # ~920 ideals, ~3300 (ideal, rank) items, ~5 s a pass
# mult8: ~440 reduction items, so p50 falls among them, and ~190 module items,
# mostly of rank <= 4.  The heavy ranks hold 80% of the module time
# and the largest spread within a stratum, so they are sampled more thinly;
# a pass then takes ~10 s and repeats about three times in a 30 s run.
MULT8_IDEAL_FRACTION = 1 / 2
MULT8_LIGHT_MODULE_FRACTION = 1 / 8
MULT8_HEAVY_MODULE_FRACTION = 1 / 30
MULT8_HEAVY_RANK = 5
# cli-mix: fixed request pools drawn once from POOL_SEED; --seed picks from them.
# Requests per pass: 80 of each cheap small verb, 20 of each of the slower
# classify/mult/audit, 45 of each of the two slowest large verbs and 30 of the
# other two, 610 in all.  The cheap ones make up 66% of a pass and the two
# slowest 15%, so p50 and p90 fall inside dense clusters (1.3-1.6 ms and
# 6-30 ms) rather than on the edge between two clusters.
POOL_SEED = 2021
SMALL_BOX = 6
SMALL_POOL = 160
PER_PASS = {"closure": 80, "construct": 80, "length-ideal": 80, "length-matrix": 80,
            "factor": 80, "classify": 20, "mult": 20, "audit": 20,
            "large-closure": 45, "large-factor": 45, "large-length": 30,
            "large-mult-area": 30}
LARGE_POOL = 60


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def stratified(population, key, fraction: float, rng: random.Random) -> list:
    """round(len * fraction) members of each stratum, picked systematically.

    Within a stratum members keep their input order (sorted by a cost proxy
    where that matters) and are taken at a fixed step from a seeded offset.
    Strata too small for one pick contribute nothing.
    """
    groups: dict = {}
    for x in population:
        groups.setdefault(key(x), []).append(x)
    out = []
    for k in sorted(groups):
        group = groups[k]
        n = round(len(group) * fraction)
        if not n:
            continue
        step = len(group) / n
        offset = rng.random() * step
        out.extend(group[int(offset + i * step)] for i in range(n))
    return out


# ---------------------------------------------------------------------------
# oracles written without the library
# ---------------------------------------------------------------------------

def minimal_staircase(points) -> list[tuple[int, int]]:
    """Minimal monomial generators, x-exponent decreasing."""
    pts = set(points)
    keep = [p for p in pts
            if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)]
    return sorted(keep, key=lambda p: -p[0])


def closed_form_minor_ideal(gens, e: int) -> list[tuple[int, int]]:
    """Generators of the maximal-minor ideal of the rank-e module of a staircase.

    The first r-e+2 staircase generators, plus x^(e-1-i) y^(b_(r-e+1+i)) for
    i = 1..e-1.
    """
    r = len(gens) - 1
    pts = [tuple(g) for g in gens[: r - e + 2]]
    pts += [(e - 1 - i, gens[r - e + 1 + i][1]) for i in range(1, e)]
    return minimal_staircase(pts)


def lattice_colength(gens) -> int:
    """Lattice points outside the ideal, counted row by row."""
    total = 0
    for v in range(gens[-1][1]):
        total += min(a for a, b in gens if b <= v)
    return total


# ---------------------------------------------------------------------------
# sweep9: classify, mu and colength over the 9x9 box
# ---------------------------------------------------------------------------

def sweep9(ic, seed: int) -> list[Item]:
    rng = random.Random(seed)
    ideals = ic.staircase.enumerate_staircases(9, 9, min_r=2, star_only=True)
    ideals = stratified(ideals, lambda ideal: ideal.r, SWEEP9_FRACTION, rng)
    return [_sweep9_item(ic, ideal, e) for ideal in ideals for e in range(2, ideal.r + 1)]


def _sweep9_item(ic, ideal, e: int) -> Item:
    gens = [tuple(g) for g in ideal.gens]
    expected = closed_form_minor_ideal(gens, e)

    def run():
        verdict = ic.classify.classify(ideal, e)
        mat = ic.modmat.build_module(ideal, e)
        mu = ic.modmat.mu_module(mat)
        colength = ic.modmat.colength_module(mat) if verdict.fitting_complete else None
        return verdict, mu, colength

    def check(out) -> bool:
        verdict, mu, colength = out
        fit = [tuple(g) for g in verdict.fitting.gens]
        ok = verdict.construction_ok and fit == expected and mu == len(gens) - 1 + e
        if verdict.fitting_complete:
            ok = ok and lattice_colength(fit) - colength == e * (e - 1) // 2
        return ok

    return Item(f"sweep9 {gens} e={e}", run, check)


# ---------------------------------------------------------------------------
# mult8: both multiplicity routes over the complete 8x8 staircases
# ---------------------------------------------------------------------------

def mult8(ic, seed: int) -> list[Item]:
    rng = random.Random(seed)
    complete = sorted(ic.staircase.enumerate_complete_staircases(8, 8, min_r=1),
                      key=lambda ideal: (ideal.r, ideal.colength()))
    ideals = stratified(complete, lambda ideal: ideal.r, MULT8_IDEAL_FRACTION, rng)
    modules = [(ideal, e) for ideal in complete if ideal.is_normalized
               for e in range(2, ideal.r + 1)
               if ic.modmat.closed_form_fitting(ideal, e).is_complete()]
    light = [m for m in modules if m[1] < MULT8_HEAVY_RANK]
    heavy = [m for m in modules if m[1] >= MULT8_HEAVY_RANK]
    modules = (stratified(light, lambda m: (m[1], m[0].r), MULT8_LIGHT_MODULE_FRACTION, rng)
               + stratified(heavy, lambda m: (m[1], m[0].r), MULT8_HEAVY_MODULE_FRACTION, rng))
    items = [_reduction_item(ic, ideal) for ideal in ideals]
    items += [_module_item(ic, ideal, e) for ideal, e in modules]
    rng.shuffle(items)
    return items


def _reduction_item(ic, ideal) -> Item:
    def run():
        return ic.multiplicity.reduction_multiplicity(ideal, trials=4, seed=0)

    def check(sample) -> bool:
        return sample.certified and sample.value == ic.multiplicity.area_multiplicity(ideal)

    return Item(f"mult8 reduction {ideal.to_pairs()}", run, check)


def _module_item(ic, ideal, e: int) -> Item:
    def run():
        mat = ic.modmat.build_module(ideal, e)
        return ic.multiplicity.check_difference_formula(mat, trials=4, seed=0)

    def check(chk) -> bool:
        return chk.equal and chk.sample.certified and chk.lhs == e * (e - 1) // 2

    return Item(f"mult8 module {ideal.to_pairs()} e={e}", run, check)


# ---------------------------------------------------------------------------
# cli-mix: in-process CLI requests, stdout checked against recorded digests
# ---------------------------------------------------------------------------

def request_key(argv: list[str], stdin: str) -> str:
    return hashlib.sha256(json.dumps([argv, stdin]).encode()).hexdigest()[:16]


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def call_cli(main, argv: list[str], stdin: str) -> tuple[int, str]:
    """Run ``main(argv)`` with the input on stdin; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a request
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _large_points(rng: random.Random) -> list[list[int]]:
    """A staircase with 40-200 steps and exponents in the hundreds, plus
    dominated points and duplicates for the minimalization to discard."""
    A, B = rng.randint(150, 400), rng.randint(150, 400)
    k = rng.randint(min(A, B) // 4, min(A, B) // 2)
    xs = sorted(rng.sample(range(1, A), k), reverse=True)
    ys = sorted(rng.sample(range(1, B), k))
    pts = [[A, 0]] + [[x, y] for x, y in zip(xs, ys)] + [[0, B]]
    pts += [[a + rng.randint(0, 5), b + rng.randint(1, 5)] for a, b in rng.sample(pts, k // 2)]
    rng.shuffle(pts)
    return pts


def cli_pools(ic) -> dict[str, list[tuple[list[str], str]]]:
    """Request pools per verb, drawn from POOL_SEED and ordered by size.

    Small requests run on staircases of the 6x6 box; the four large verbs run
    on staircases with exponents in the hundreds.  Every request exits 0 at
    the commit that recorded ``cli_golden.json``.
    """
    st, mm = ic.staircase, ic.modmat
    rng = random.Random(POOL_SEED)

    def ideal_json(ideal) -> str:
        return json.dumps(ideal.to_json())

    def by_size(ideal):
        return ideal.r, ideal.colength()

    def draw(candidates, n, key=by_size):
        return sorted(rng.sample(candidates, min(n, len(candidates))), key=key)

    def pair_size(pair):
        return by_size(pair[0])

    small = list(st.enumerate_staircases(SMALL_BOX, SMALL_BOX, min_r=2))
    normalized = [ideal for ideal in small if ideal.is_normalized]
    complete = [ideal for ideal in small if ideal.is_complete()]
    ranked = []
    for ideal in normalized:
        for e in range(2, ideal.r + 1):
            try:
                mm.module_spec(ideal, e)
            except mm.NegativeExponent:
                continue
            ranked.append((ideal, e))
    gap = [(ideal, e) for ideal, e in ranked if mm.closed_form_fitting(ideal, e).is_complete()]

    pools = {
        "classify": [(["classify", "-", "--rank", "all"], ideal_json(i))
                     for i in draw(small, SMALL_POOL)],
        "construct": [(["construct", "-", "--rank", str(e)], ideal_json(i))
                      for i, e in draw(ranked, SMALL_POOL, pair_size)],
        "length-ideal": [(["length", "-"], ideal_json(i)) for i in draw(small, SMALL_POOL)],
        "length-matrix": [(["length", "-"], json.dumps(mm.build_module(i, e).to_json()))
                          for i, e in draw(ranked, SMALL_POOL, pair_size)],
        "mult": [(["mult", "-"], ideal_json(i)) for i in draw(complete, SMALL_POOL)],
        "audit": [(["audit", "-", "--check", "gap-equality", "--rank", str(e)], ideal_json(i))
                  for i, e in draw(gap, SMALL_POOL, pair_size)],
        "closure": [(["closure", "-"], ideal_json(i)) for i in draw(small, SMALL_POOL)],
        "factor": [(["factor", "-"], ideal_json(i)) for i in draw(complete, SMALL_POOL)],
    }
    large = sorted((_large_points(rng) for _ in range(LARGE_POOL)), key=len)
    pools["large-closure"] = [(["closure", "-"], json.dumps({"gens": p})) for p in large]
    pools["large-length"] = [(["length", "-"], json.dumps({"gens": p})) for p in large]
    pools["large-mult-area"] = [(["mult", "-", "--route", "area"], json.dumps({"gens": p}))
                                for p in large]
    pools["large-factor"] = [
        (["factor", "-"], ideal_json(st.canonicalize(p).integral_closure())) for p in large]
    return pools


def cli_mix(ic, seed: int) -> list[Item]:
    if not GOLDEN_PATH.is_file():
        raise FileNotFoundError(f"missing recorded CLI digests {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    rng = random.Random(seed)
    items = []
    for verb, pool in cli_pools(ic).items():
        for argv, stdin in stratified(pool, lambda _req: 0, PER_PASS[verb] / len(pool), rng):
            items.append(_cli_item(ic, verb, argv, stdin, golden.get(request_key(argv, stdin))))
    rng.shuffle(items)
    return items


def _cli_item(ic, verb: str, argv: list[str], stdin: str, digest: str | None) -> Item:
    def run():
        return call_cli(ic.cli.main, argv, stdin)

    def check(out) -> bool:
        code, text = out
        return code == 0 and digest is not None and stdout_digest(text) == digest

    return Item(f"cli-mix {verb} {' '.join(argv)} <{stdin[:60]}", run, check)


WORKLOADS = {"sweep9": sweep9, "mult8": mult8, "cli-mix": cli_mix}
