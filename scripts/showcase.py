#!/usr/bin/env python3
"""Walk the two order-5 showcase ideals and the chain ideal through the full
pipeline: construction, verdicts, audits, and both multiplicity routes."""

import json

import icmod as ic


def inspect(name, ideal):
    print(f"== {name}: gens {ideal.to_pairs()}")
    print(f"   order {ideal.order()}  mu {ideal.mu()}  colength {ideal.colength()}"
          f"  complete {ideal.is_complete()}")
    fact = ideal.zariski_factor()
    print(f"   factors {list(fact.factors)}")
    print(f"   area multiplicity {ic.area_multiplicity(ideal)}")
    for e in range(2, ideal.r + 1):
        v = ic.classify(ideal, e)
        line = f"   rank {e}: {v.indecomposable:8s} closed={v.integrally_closed}"
        if v.fitting_complete:
            rec = ic.audit_gap_equality(ideal, e)
            line += f"  gap {rec['lhs']} (expect {rec['expected']})"
        if v.witnesses:
            line += f"  witness {[tuple(w) for w in v.witnesses]}"
        print(line)
    print()


def main():
    showcase_a = ic.canonicalize([(7, 0), (4, 1), (3, 2), (2, 4), (1, 5), (0, 9)])
    showcase_b = ic.canonicalize([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 9)])
    chain = ic.canonicalize([(1, 0), (0, 1)])
    for i in range(2, 5):
        chain = chain * ic.canonicalize([(1, 0), (0, i)])
    counterexample = ic.canonicalize([(1, 0), (0, 3)]) * ic.simple_closure(5, 3)

    inspect("order-5 ideal A (decomposable at top rank)", showcase_a)
    inspect("order-5 ideal B (indecomposable up to rank 5)", showcase_b)
    inspect("chain product of (x, y^i), i = 1..4", chain)
    inspect("complete ideal with a non-closed rank-4 module", counterexample)

    chk = ic.check_difference_formula(ic.build_module(showcase_a, 4), trials=4, seed=0)
    print("difference formula on A at rank 4:",
          json.dumps({"lhs": chk.lhs, "rhs": chk.rhs, "equal": chk.equal}))


if __name__ == "__main__":
    main()
