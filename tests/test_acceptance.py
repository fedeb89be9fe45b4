"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All tolerances are exact integer equalities or inequalities.  The exhaustive
box sweeps are shared through module-scoped fixtures so the suite stays
within a laptop-scale time budget.
"""

import random
from itertools import combinations

import pytest

import icmod as ic
from icmod.classify import TAG_LOW_RANK, TAG_TOP_RANK, UNKNOWN

from conftest import direct_sum, lattice_colength


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: {status}{tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


@pytest.fixture(scope="module")
def reference_ideal():
    return ic.canonicalize([(8, 0), (6, 1), (3, 2), (2, 3), (1, 4), (0, 8)])


@pytest.fixture(scope="module")
def order5_a():
    return ic.canonicalize([(7, 0), (4, 1), (3, 2), (2, 4), (1, 5), (0, 9)])


@pytest.fixture(scope="module")
def order5_b():
    return ic.canonicalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 9)])


@pytest.fixture(scope="module")
def sweep9():
    """Exhaustive pass over every normalized staircase in the 9x9 box.

    Collects, for every valid rank: minor-ideal equality with the closed
    form, generator counts, and the colength gap on the complete cases.
    """
    data = {
        "pairs": 0,
        "fitting_mismatches": [],
        "mu_mismatches": [],
        "gap_cases": 0,
        "gap_failures": [],
        "bound_failures": [],
        "tight_corner_only": True,
    }
    for ideal in ic.enumerate_staircases(9, 9, min_r=2, star_only=True):
        r = ideal.r
        for e in range(2, r + 1):
            data["pairs"] += 1
            mat = ic.build_module(ideal, e)
            fit = ic.fitting_ideal(mat, e)
            closed = ic.closed_form_fitting(ideal, e)
            if fit != closed:
                data["fitting_mismatches"].append((ideal.to_pairs(), e))
                continue
            if ic.mu_module(mat) != r + e:
                data["mu_mismatches"].append((ideal.to_pairs(), e))
            if fit == ideal and ideal.gens[r - e + 2].a != e - 2:
                # recorded observation only; no claim is made either way
                data["tight_corner_only"] = False
            if fit.is_complete():
                data["gap_cases"] += 1
                diff = fit.colength() - ic.colength_module(mat)
                bound = e * (e - 1) // 2
                if diff != bound:
                    data["gap_failures"].append((ideal.to_pairs(), e, diff))
                if diff < bound:
                    data["bound_failures"].append((ideal.to_pairs(), e, diff))
    return data


@pytest.fixture(scope="module")
def complete8():
    return ic.enumerate_complete_staircases(8, 8, min_r=1)


def test_acceptance_01_reference_hull_and_factorization(reference_ideal):
    hull = [tuple(v) for v in reference_ideal.newton_vertices().vertices]
    fact = reference_ideal.zariski_factor().factors
    ok = hull == [(8, 0), (3, 2), (1, 4), (0, 8)] and fact == (
        (5, 2, 1), (1, 1, 2), (1, 4, 1))
    report(1, "reference staircase hull and factorization", ok,
           f"vertices={hull} factors={fact}")


@pytest.mark.slow
def test_acceptance_02_minor_ideal_equals_closed_form(sweep9):
    ok = not sweep9["fitting_mismatches"] and sweep9["pairs"] >= 1000
    note = ("tight corner iff fitting==input held throughout"
            if sweep9["tight_corner_only"] else "observed fitting==input without tight corner")
    report(2, "minor ideal equals closed form on the exhaustive 9x9 sweep", ok,
           f"{sweep9['pairs']} cases, {len(sweep9['fitting_mismatches'])} mismatches; {note}")


@pytest.mark.slow
def test_acceptance_03_generator_count(sweep9):
    ok = not sweep9["mu_mismatches"]
    report(3, "generator count r+e on the exhaustive 9x9 sweep", ok,
           f"{sweep9['pairs']} cases, {len(sweep9['mu_mismatches'])} mismatches")


@pytest.mark.slow
def test_acceptance_04_colength_gap_equality(sweep9, order5_a):
    mat = ic.build_module(order5_a, 4)
    lat = lattice_colength(order5_a)
    eng = ic.colength_module(mat)
    anchor_ok = lat == 23 and eng == 17 and lat - eng == 6
    ok = anchor_ok and not sweep9["gap_failures"] and sweep9["gap_cases"] > 0
    report(4, "colength gap equals e(e-1)/2 on complete sweep cases", ok,
           f"{sweep9['gap_cases']} cases, anchor 23-17=6 -> {lat}-{eng}")


@pytest.mark.slow
def test_acceptance_05_colength_gap_bound(sweep9, complete8):
    rng = random.Random(20260810)
    violations = []
    for _ in range(100):
        parts = rng.sample(complete8, rng.choice((2, 2, 3)))
        mat = ic.from_ideal(parts[0])
        for p in parts[1:]:
            mat = direct_sum(mat, ic.from_ideal(p))
        rec = ic.audit_gap_bound(mat)
        if not rec.passed:
            violations.append([p.to_pairs() for p in parts])
    ok = not sweep9["bound_failures"] and not violations
    report(5, "colength gap bound on the integrally closed family", ok,
           f"{sweep9['gap_cases']} sweep cases + 100 direct sums, "
           f"{len(sweep9['bound_failures']) + len(violations)} violations")


def test_acceptance_06_classifier_verdicts(order5_a, order5_b):
    chain = ic.canonicalize([(1, 0), (0, 1)])
    for i in range(2, 5):
        chain = chain * ic.canonicalize([(1, 0), (0, i)])
    got = {
        "a": [ic.classify(order5_a, e).indecomposable for e in range(2, 6)],
        "b": [ic.classify(order5_b, e).indecomposable for e in range(2, 6)],
        "chain": ic.classify(chain, chain.r).indecomposable,
    }
    ok = (
        got["a"] == [TAG_LOW_RANK] * 3 + [UNKNOWN]
        and got["b"] == [TAG_LOW_RANK] * 3 + [TAG_TOP_RANK]
        and got["chain"] == UNKNOWN
    )
    report(6, "classifier verdicts match the narrative", ok, str(got))


def test_acceptance_07_counterexample_witness():
    ideal = ic.canonicalize([(1, 0), (0, 3)]) * ic.simple_closure(5, 3)
    verdict = ic.classify(ideal, 4)
    ok = (
        verdict.construction_ok
        and not verdict.integrally_closed
        and [tuple(w) for w in verdict.witnesses] == [(4, 1)]
    )
    report(7, "rank-4 counterexample is caught with witness x^4 y", ok,
           f"witnesses={[tuple(w) for w in verdict.witnesses]}")


@pytest.mark.slow
def test_acceptance_08_multiplicity_dual_oracle(complete8):
    from icmod.algebra import BiPoly
    from icmod.modmat import PresMatrix

    mism = []
    for ideal in complete8:
        sample = ic.reduction_multiplicity(ideal, trials=4, seed=0)
        if not sample.certified or sample.value != ic.area_multiplicity(ideal):
            mism.append(ideal.to_pairs())

    binom_bad = []
    for k in range(1, 6):
        zero = BiPoly.zero()
        cols = []
        for i in range(k):
            for mono in ((1, 0), (0, 1)):
                col = [zero] * k
                col[i] = BiPoly.term(*mono)
                cols.append(tuple(col))
        s = ic.module_multiplicity(PresMatrix(k, tuple(cols)), trials=4, seed=0)
        if s.value != (k + 1) * k // 2:
            binom_bad.append((k, s.value))

    km_cases = 0
    km_bad = []
    for ideal in complete8:
        if ideal.r < 2 or not ideal.is_normalized:
            continue
        for e in range(2, ideal.r + 1):
            if not ic.closed_form_fitting(ideal, e).is_complete():
                continue
            chk = ic.check_difference_formula(ic.build_module(ideal, e),
                                              trials=4, seed=0)
            km_cases += 1
            if not chk.equal:
                km_bad.append((ideal.to_pairs(), e, chk.lhs, chk.rhs))

    ok = not mism and not binom_bad and not km_bad
    report(8, "multiplicity dual oracle, binomial anchors, difference formula", ok,
           f"{len(complete8)} ideals, {km_cases} difference checks, "
           f"{len(mism) + len(binom_bad) + len(km_bad)} failures")


def test_acceptance_09_split_inequality_strict():
    cases = 0
    nonstrict = []
    for ideal in ic.enumerate_complete_staircases(8, 8, min_r=1):
        factors = ideal.zariski_factor().expand()
        if len(factors) < 2:
            continue
        r = ideal.order()
        if not ideal.contains((r, 0)) or ideal.contains((r - 1, 1)):
            continue
        for size in range(1, len(factors)):
            for part1 in combinations(range(len(factors)), size):
                if 0 not in part1:
                    continue  # complement gives the same split
                rec = ic.audit_split_inequality(ideal, set(part1))
                cases += 1
                if not rec.strict:
                    nonstrict.append((ideal.to_pairs(), part1))
    ok = cases > 0 and not nonstrict
    report(9, "split inequality strict on all admissible cases", ok,
           f"{cases} splits, {len(nonstrict)} non-strict")


def test_acceptance_10_engine_soundness():
    bad = []
    cases = 0
    for ideal in ic.enumerate_staircases(8, 8, min_r=1):
        cases += 1
        if ic.colength_module(ic.from_ideal(ideal)) != lattice_colength(ideal):
            bad.append(ideal.to_pairs())
    # all proper m-primary staircases in the box: C(16, 8) - 1
    ok = cases == 12869 and not bad
    report(10, "rank-one engine equals lattice count, certificate accepted", ok,
           f"{cases} staircases, {len(bad)} disagreements")
