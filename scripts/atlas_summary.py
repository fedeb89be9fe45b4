#!/usr/bin/env python3
"""Summarize an atlas run: verdict counts by rank over a bounded box."""

import argparse
from collections import Counter

from icmod.cli import atlas_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-a", type=int, default=6)
    ap.add_argument("--max-b", type=int, default=6)
    ap.add_argument("--filter", choices=["all", "simple", "nonsimple"], default="all")
    args = ap.parse_args()

    rows = atlas_rows(args.max_a, args.max_b, which=args.filter)
    print(f"{len(rows)} rows over the {args.max_a}x{args.max_b} box "
          f"(filter={args.filter})")
    by_rank = Counter((row["e"], row["verdict"]) for row in rows)
    ranks = sorted({e for e, _v in by_rank})
    verdicts = ["thm_5_2", "thm_5_4", "unknown"]
    print(f"{'rank':>4}  " + "  ".join(f"{v:>8}" for v in verdicts))
    for e in ranks:
        print(f"{e:>4}  " + "  ".join(f"{by_rank.get((e, v), 0):>8}" for v in verdicts))
    closed = sum(1 for row in rows if row["integrally_closed"])
    print(f"integrally closed: {closed}/{len(rows)}")
    gaps = Counter(row["prop51_diff"] for row in rows if row["prop51_diff"] is not None)
    print("colength gaps observed:", dict(sorted(gaps.items())))


if __name__ == "__main__":
    main()
