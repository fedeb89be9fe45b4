"""Command-line surface: single-ideal analysis, batch atlas, and SVG rendering.

All output is machine readable (JSON, JSONL, CSV, or SVG) and byte-stable for
a fixed tool version and input.  Exit codes: 0 success, 2 malformed input or
unmet precondition, 3 internal certificate failure, 4 bounds guardrail.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields

from . import modmat, multiplicity, staircase
from .classify import (
    audit_gap_bound,
    audit_gap_equality,
    audit_split_inequality,
    audit_summand_hypotheses,
    classify,
)

ATLAS_MAX_BOUND = 12
MAX_EXPONENT = 1000  # closure, factor, classify, audit and render work per staircase row
MAX_RANK = 6  # classify and audit enumerate minors, about 2.5 times as many per rank
MAX_TRIALS = 100
MAX_TRUNC_CAP = 80  # a truncation at degree D has about D^2 / 2 coordinates per matrix row
MAX_COLUMNS = 12  # audits keep a partial minor per column set, length spans every column


class BoundsTooLarge(ValueError):
    """Input or flag value exceeds a size guardrail."""


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc


def _load_ideal(path: str) -> staircase.MonomialIdeal:
    return staircase.from_json(_load_json(path))


def _load_ideal_or_matrix(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and "cols" in obj:
        return modmat.matrix_from_json(obj)
    return staircase.from_json(obj)


def _check_size(obj, rank: int | None = None) -> None:
    """Refuse an ideal or matrix with an exponent, or a rank, above its guardrail."""
    if isinstance(obj, staircase.MonomialIdeal):
        top = max(obj.gens[0].a, obj.gens[-1].b)
    else:
        top = max(v for col in obj.cols for entry in col for mon, _c in entry.items() for v in mon)
    if top > MAX_EXPONENT:
        raise BoundsTooLarge(f"exponents are capped at {MAX_EXPONENT}")
    if rank is not None and rank > MAX_RANK:
        raise BoundsTooLarge(f"ranks are capped at {MAX_RANK}")


def _check_columns(obj) -> None:
    if isinstance(obj, modmat.PresMatrix) and obj.ncols > MAX_COLUMNS:
        raise BoundsTooLarge(f"matrix inputs are capped at {MAX_COLUMNS} columns")


def _check_trunc_cap(args) -> None:
    if args.trunc_cap > MAX_TRUNC_CAP:
        raise BoundsTooLarge(f"--trunc-cap is capped at {MAX_TRUNC_CAP}")


def _emit(obj, compact: bool) -> None:
    if compact:
        print(json.dumps(obj, separators=(",", ":"), sort_keys=True))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_closure(args) -> int:
    ideal = _load_ideal(args.input)
    _check_size(ideal)
    if not ideal.is_m_primary:
        raise ValueError("closure needs an m-primary staircase")
    closed = ideal.integral_closure()
    hull = closed.newton_vertices()
    _emit(
        {
            "gens": closed.to_pairs(),
            "vertices": [[v.a, v.b] for v in hull.vertices],
            "complete": ideal == closed,
        },
        args.json,
    )
    return 0


def _cmd_factor(args) -> int:
    ideal = _load_ideal(args.input)
    _check_size(ideal)
    fact = ideal.zariski_factor()
    _emit(
        {"factors": [{"p": p, "q": q, "mult": m} for p, q, m in fact.factors]},
        args.json,
    )
    return 0


def _cmd_classify(args) -> int:
    ideal = _load_ideal(args.input)
    if not ideal.is_m_primary:
        raise ValueError("classification needs an m-primary staircase")
    if args.rank == "all":
        ranks = list(range(2, ideal.r + 1))
        if not ranks:
            raise ValueError("--rank all needs ranks 2..r, so at least three generators")
    else:
        try:
            ranks = [int(args.rank)]
        except ValueError as exc:
            raise ValueError(f"--rank must be an integer or 'all', got {args.rank!r}") from exc
    _check_size(ideal, max(ranks))
    for e in ranks:
        verdict = classify(ideal, e)
        _emit(verdict.to_json(), compact=args.json or args.rank == "all")
    return 0


def _cmd_construct(args) -> int:
    ideal = _load_ideal(args.input)
    modmat.module_spec(ideal, args.rank)  # an unmet precondition exits 2 before the guardrail
    _check_size(ideal, args.rank)
    mat = modmat.build_module(ideal, args.rank)
    _emit(mat.to_json(), args.json)
    return 0


def _cmd_length(args) -> int:
    obj = _load_ideal_or_matrix(args.input)
    _check_trunc_cap(args)
    if isinstance(obj, staircase.MonomialIdeal):
        _emit({"kind": "ideal", "colength": obj.colength()}, args.json)
    else:
        _check_size(obj, obj.rank)
        _check_columns(obj)
        value = modmat.colength_module(obj, cap=args.trunc_cap)
        _emit({"kind": "module", "colength": value}, args.json)
    return 0


def _cmd_mult(args) -> int:
    obj = _load_ideal_or_matrix(args.input)
    if args.trials > MAX_TRIALS:
        raise BoundsTooLarge(f"--trials is capped at {MAX_TRIALS}")
    _check_trunc_cap(args)
    out: dict = {}
    if isinstance(obj, staircase.MonomialIdeal):
        if args.route in ("area", "both"):
            out["area"] = multiplicity.area_multiplicity(obj)
        sampler = multiplicity.reduction_multiplicity
    elif args.route == "area":
        raise ValueError("the area route applies to ideals, not matrices")
    else:
        _check_size(obj, obj.rank)
        sampler = multiplicity.module_multiplicity
    if args.route in ("reduction", "both"):
        sample = sampler(obj, trials=args.trials, seed=args.seed, cap=args.trunc_cap)
        out["reduction"] = {
            "value": sample.value,
            "certified": sample.certified,
            "seed": sample.seed,
            "trials": args.trials,
        }
    _emit(out, args.json)
    return 0


def _cmd_audit(args) -> int:
    if args.check in ("gap-equality", "split"):
        obj = _load_ideal(args.input)
    else:
        obj = _load_ideal_or_matrix(args.input)
    rank = obj.rank if isinstance(obj, modmat.PresMatrix) else args.rank
    _check_size(obj, None if args.check == "split" else rank)
    _check_columns(obj)
    _check_trunc_cap(args)
    if isinstance(obj, staircase.MonomialIdeal) and args.check in ("gap-bound", "summand"):
        obj = modmat.build_module(obj.normalized(), rank)
    if args.check == "gap-equality":
        rec = audit_gap_equality(obj, args.rank)
        _emit({"lhs": rec.lhs, "expected": rec.expected, "pass": rec.passed}, args.json)
    elif args.check == "gap-bound":
        rec = audit_gap_bound(obj, cap=args.trunc_cap)
        _emit({"diff": rec.diff, "bound": rec.bound, "pass": rec.passed}, args.json)
    elif args.check == "split":
        if not args.part1:
            raise ValueError("--part1 is required for the split audit")
        part1 = {int(tok) for tok in args.part1.split(",")}
        rec = audit_split_inequality(obj, part1)
        _emit({"lhs": rec.lhs, "rhs": rec.rhs, "strict": rec.strict}, args.json)
    elif args.check == "summand":
        rec = audit_summand_hypotheses(obj)
        _emit(
            {
                "ord_ge_rank_plus_1": rec.ord_ge_rank_plus_1,
                "next_fitting_closure_is_m_power": rec.next_fitting_closure_is_m_power,
            },
            args.json,
        )
    return 0


@dataclass(frozen=True)
class AtlasRow:
    """One atlas record per (complete ideal, rank) pair."""

    ideal_gens: list
    r: int
    order: int
    complete: bool
    e: int
    fitting_gens: list
    integrally_closed: bool
    verdict: str
    prop51_diff: int | None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def csv_values(self) -> list:
        # generator lists encode as a:b;a:b, an absent gap as the empty cell
        row = self.to_json()
        row.update(ideal_gens=_encode_gens(self.ideal_gens),
                   fitting_gens=_encode_gens(self.fitting_gens),
                   prop51_diff="" if self.prop51_diff is None else self.prop51_diff)
        return list(row.values())


ATLAS_COLUMNS = [f.name for f in fields(AtlasRow)]


def _encode_gens(pairs) -> str:
    return ";".join(f"{a}:{b}" for a, b in pairs)


def atlas_rows(max_a: int, max_b: int, which: str = "all") -> list[AtlasRow]:
    """Deterministic atlas over all complete normalized staircases in a box."""
    if max_a > ATLAS_MAX_BOUND or max_b > ATLAS_MAX_BOUND:
        raise BoundsTooLarge(f"bounds are capped at {ATLAS_MAX_BOUND}")
    rows: list[AtlasRow] = []
    for ideal in staircase.enumerate_complete_staircases(max_a, max_b, min_r=2,
                                                         star_only=True):
        if which == "simple" and not ideal.is_simple():
            continue
        if which == "nonsimple" and ideal.is_simple():
            continue
        for e in range(2, ideal.r + 1):
            verdict = classify(ideal, e)
            diff = None
            if verdict.fitting_complete:
                mat = modmat.build_module(ideal, e)
                diff = verdict.fitting.colength() - modmat.colength_module(mat)
            rows.append(
                AtlasRow(
                    ideal_gens=ideal.to_pairs(),
                    r=ideal.r,
                    order=ideal.order(),
                    complete=True,
                    e=e,
                    fitting_gens=verdict.fitting.to_pairs(),
                    integrally_closed=verdict.integrally_closed,
                    verdict=verdict.indecomposable,
                    prop51_diff=diff,
                )
            )
    return rows


def _cmd_atlas(args) -> int:
    _check_trunc_cap(args)
    rows = atlas_rows(args.max_a, args.max_b, which=args.filter)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ATLAS_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
        text = buf.getvalue()
    else:
        text = "".join(
            json.dumps(row.to_json(), separators=(",", ":"), sort_keys=True) + "\n"
            for row in rows
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def render_svg(ideal: staircase.MonomialIdeal) -> str:
    """Deterministic SVG of the staircase lattice with hull vertices emphasized."""
    hull = ideal.newton_vertices().vertices
    hullset = set(hull)
    max_a = ideal.gens[0].a
    max_b = ideal.gens[-1].b
    scale = 24
    pad = 20
    width = max_a * scale + 2 * pad
    height = max_b * scale + 2 * pad

    def px(a: int, b: int) -> tuple[int, int]:
        return (pad + a * scale, height - pad - b * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for a in range(max_a + 1):
        x0, y0 = px(a, 0)
        x1, y1 = px(a, max_b)
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#dddddd" stroke-width="1"/>'
        )
    for b in range(max_b + 1):
        x0, y0 = px(0, b)
        x1, y1 = px(max_a, b)
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#dddddd" stroke-width="1"/>'
        )
    pts = " ".join(f"{px(v.a, v.b)[0]},{px(v.a, v.b)[1]}" for v in hull)
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#3366cc" stroke-width="2"/>'
    )
    for g in ideal.gens:
        if g in hullset:
            continue
        x, y = px(g.a, g.b)
        parts.append(f'<circle class="gen" cx="{x}" cy="{y}" r="4" fill="#888888"/>')
    for v in hull:
        x, y = px(v.a, v.b)
        parts.append(f'<circle class="vertex" cx="{x}" cy="{y}" r="6" fill="#cc3333"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_render(args) -> int:
    ideal = _load_ideal(args.input)
    _check_size(ideal)
    if not ideal.is_m_primary:
        raise ValueError("rendering needs an m-primary staircase")
    text = render_svg(ideal)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # top-level carries the defaults; subcommand copies suppress theirs so a
    # flag may be written on either side of the subcommand name
    d = dict(default=argparse.SUPPRESS) if not top else {}
    parser.add_argument("--json", action="store_true",
                        help="compact single-line JSON output",
                        **({} if top else d))
    parser.add_argument("--seed", type=int,
                        help="seed for randomized reductions (default 0)",
                        **({"default": 0} if top else d))
    parser.add_argument("--trials", type=int,
                        help="trials for randomized reductions (default 4)",
                        **({"default": 4} if top else d))
    parser.add_argument("--trunc-cap", type=_int_at_least(2), dest="trunc_cap",
                        help="largest truncation degree the certificates try "
                        f"(default {modmat.DEFAULT_CAP})",
                        **({"default": modmat.DEFAULT_CAP} if top else d))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmod",
        description="Exact workbench for integrally closed modules built from "
        "staircase monomial ideals.",
    )
    _common_flags(parser, top=True)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, top=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", parents=[common],
                       help="integral closure and hull vertices")
    p.add_argument("input", help="ideal JSON path or - for stdin")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("factor", parents=[common],
                       help="factorization into coprime closure blocks")
    p.add_argument("input")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("classify", parents=[common],
                       help="verdicts for one rank or all ranks")
    p.add_argument("input")
    p.add_argument("--rank", default="all", help="integer rank or 'all' (default)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", parents=[common],
                       help="presentation matrix for a given rank")
    p.add_argument("input")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("length", parents=[common],
                       help="colength of an ideal or module")
    p.add_argument("input", help="ideal or matrix JSON")
    p.set_defaults(func=_cmd_length)

    p = sub.add_parser("mult", parents=[common],
                       help="multiplicity by area and/or reduction")
    p.add_argument("input")
    p.add_argument("--route", choices=["area", "reduction", "both"], default="both")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("audit", parents=[common], help="numeric audits")
    p.add_argument("input")
    p.add_argument("--check", required=True,
                   choices=["gap-equality", "gap-bound", "split", "summand"])
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--part1", default="",
                   help="comma-separated factor indices for the split audit")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("atlas", parents=[common],
                       help="batch classification over a bounded box")
    p.add_argument("--max-a", type=_int_at_least(1), required=True, dest="max_a")
    p.add_argument("--max-b", type=_int_at_least(1), required=True, dest="max_b")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--filter", choices=["all", "simple", "nonsimple"], default="all")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("render", parents=[common],
                       help="SVG drawing of the staircase and hull")
    p.add_argument("input")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundsTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (modmat.NonMonomialIdeal, modmat.NotFiniteColength,
            multiplicity.Uncertified) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, staircase.NotComplete) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
