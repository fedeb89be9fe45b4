"""Command-line surface: single-ideal analysis, batch atlas, and SVG rendering.

All output is machine readable (JSON, JSONL, CSV, or SVG) and byte-stable for
a fixed tool version and input.  Each verb returns its reply and `main` writes
it once.  Exit codes: 0 success, 2 malformed input, unmet precondition or a
reply that cannot be written, 3 internal certificate failure, 4 bounds
guardrail or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import modmat, multiplicity, staircase
from .classify import (
    audit_gap_bound,
    audit_gap_equality,
    audit_split_inequality,
    audit_summand_hypotheses,
    classify,
)

ATLAS_MAX_BOUND = 12
MAX_EXPONENT = 1000
MAX_RANK = 6
MAX_TRIALS = 100
MAX_TRUNC_CAP = 80
MAX_COLUMNS = 12


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
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ValueError(f"cannot read JSON input: {exc}") from exc


def _write_out(path: str, text: str) -> None:
    """Write the reply to the --out path, or to stdout when none was given."""
    try:
        if not path:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc


def _load_ideal(path: str) -> staircase.MonomialIdeal:
    return staircase.from_json(_load_json(path))


def _load_ideal_or_matrix(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and "cols" in obj:
        return modmat.matrix_from_json(obj)
    return staircase.from_json(obj)


def _admit(args, obj=None, rank: int | None = None) -> None:
    """Refuse a request above a size guardrail, checking the caps in this order:

    MAX_TRIALS: seeded trials of a sampled reduction.
    MAX_TRUNC_CAP: truncation degree D; a truncation has about D^2 / 2 coordinates per row.
    MAX_EXPONENT: staircase rows walked per ideal, and the degree of a matrix entry.
    MAX_RANK: the rank e of matrix JSON off the forest DP, each e listing ~2.5x as many
        minors; a built module lists none on any verb, so on an ideal's --rank the cap
        stands in for the size of classify, construct and the audits.
    MAX_COLUMNS: column sets of the minor table, the columns a truncation spans, and the
        terms each sampled combination of mult sums.

    A matrix brings its own rank and width; rank is an ideal's --rank.
    """
    if args.trials > MAX_TRIALS:
        raise BoundsTooLarge(f"--trials is capped at {MAX_TRIALS}")
    if args.trunc_cap > MAX_TRUNC_CAP:
        raise BoundsTooLarge(f"--trunc-cap is capped at {MAX_TRUNC_CAP}")
    width = None
    if isinstance(obj, modmat.PresMatrix):
        rank, width = obj.rank, obj.ncols
        top = max(v for col in obj.cols for entry in col for mon, _c in entry.items()
                  for v in mon)
    elif obj is not None:
        top = max(obj.gens[0].a, obj.gens[-1].b)
    if obj is not None and top > MAX_EXPONENT:
        raise BoundsTooLarge(f"exponents are capped at {MAX_EXPONENT}")
    if rank is not None and rank > MAX_RANK:
        raise BoundsTooLarge(f"ranks are capped at {MAX_RANK}")
    if width is not None and width > MAX_COLUMNS:
        raise BoundsTooLarge(f"matrix inputs are capped at {MAX_COLUMNS} columns")


def _indented(obj, pad: str = "") -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) for str-keyed obj.

    The stdlib serves indent only from its pure-Python encoder, one generator
    step per element.  Here an int is written by str, which gives the C
    encoder's digits, every other scalar and every key by the C encoder, and
    each container by one join.
    """
    if type(obj) is int:  # type, not isinstance: str(True) is not JSON
        return str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [_indented(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [json.dumps(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(obj)


def _dump(obj, compact: bool) -> str:
    if compact:
        return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
    return _indented(obj) + "\n"


def _cmd_closure(args) -> str:
    ideal = _load_ideal(args.input)
    _admit(args, ideal)
    hull = ideal.newton_vertices()  # an ideal and its closure share their hull
    closed = hull.closure()
    return _dump(
        {
            "gens": closed.to_pairs(),
            "vertices": [[v.a, v.b] for v in hull.vertices],
            "complete": ideal == closed,
        },
        args.json,
    )


def _cmd_factor(args) -> str:
    ideal = _load_ideal(args.input)
    _admit(args, ideal)
    fact = ideal.zariski_factor()
    return _dump(
        {"factors": [{"p": p, "q": q, "mult": m} for p, q, m in fact.factors]},
        args.json,
    )


def _cmd_classify(args) -> str:
    ideal = _load_ideal(args.input)
    ideal.require_primary()  # classify would report it as a verdict, not refuse it
    if args.rank == "all":
        ranks = list(range(2, ideal.r + 1))
        if not ranks:
            raise ValueError("--rank all needs ranks 2..r, so at least three generators")
    else:
        try:
            ranks = [int(args.rank)]
        except ValueError as exc:
            raise ValueError(f"--rank must be an integer or 'all', got {args.rank!r}") from exc
    _admit(args, ideal, max(ranks))
    compact = args.json or args.rank == "all"
    return "".join(_dump(classify(ideal, e).to_json(), compact) for e in ranks)


def _cmd_construct(args) -> str:
    ideal = _load_ideal(args.input)
    modmat.module_spec(ideal, args.rank)  # an unmet precondition exits 2 before the guardrail
    _admit(args, ideal, args.rank)
    mat = modmat.build_module(ideal, args.rank)
    return _dump(mat.to_json(), args.json)


def _cmd_length(args) -> str:
    obj = _load_ideal_or_matrix(args.input)
    ideal = isinstance(obj, staircase.MonomialIdeal)
    _admit(args, None if ideal else obj)  # no exponent cap on an ideal, columns on a graded matrix
    if ideal:
        return _dump({"kind": "ideal", "colength": obj.colength()}, args.json)
    value = modmat.colength_module(obj, cap=args.trunc_cap)
    return _dump({"kind": "module", "colength": value}, args.json)


def _cmd_mult(args) -> str:
    obj = _load_ideal_or_matrix(args.input)
    ideal = isinstance(obj, staircase.MonomialIdeal)
    _admit(args, None if ideal else obj)  # neither route has an exponent cap on an ideal
    out: dict = {}
    if ideal:
        if args.route in ("area", "both"):
            out["area"] = multiplicity.area_multiplicity(obj)
        sampler = multiplicity.reduction_multiplicity
    else:
        if args.route == "area":
            raise ValueError("the area route applies to ideals, not matrices")
        sampler = multiplicity.module_multiplicity
    if args.route in ("reduction", "both"):
        sample = sampler(obj, trials=args.trials, seed=args.seed, cap=args.trunc_cap)
        out["reduction"] = {
            "value": sample.value,
            "certified": sample.certified,
            "seed": sample.seed,
            "trials": args.trials,
        }
    return _dump(out, args.json)


def _cmd_audit(args) -> str:
    if args.check in ("gap-equality", "split"):
        obj = _load_ideal(args.input)
    else:
        obj = _load_ideal_or_matrix(args.input)
    _admit(args, obj, None if args.check == "split" else args.rank)
    if isinstance(obj, staircase.MonomialIdeal) and args.check in ("gap-bound", "summand"):
        obj = modmat.build_module(obj.normalized(), args.rank)
    if args.check == "gap-equality":
        reply = audit_gap_equality(obj, args.rank)
    elif args.check == "gap-bound":
        reply = audit_gap_bound(obj, cap=args.trunc_cap)
    elif args.check == "split":
        if not args.part1:
            raise ValueError("--part1 is required for the split audit")
        part1 = set()
        for tok in args.part1.split(","):
            try:
                part1.add(int(tok))
            except ValueError:
                raise ValueError(f"--part1 takes comma-separated integers, got {tok!r}") from None
        reply = audit_split_inequality(obj, part1)
    else:  # summand
        reply = audit_summand_hypotheses(obj)
    return _dump(reply, args.json)


ATLAS_COLUMNS = ["ideal_gens", "r", "order", "complete", "e", "fitting_gens",
                 "integrally_closed", "verdict", "prop51_diff"]


def _encode_gens(pairs) -> str:
    return ";".join(f"{a}:{b}" for a, b in pairs)


def atlas_rows(max_a: int, max_b: int, which: str = "all") -> list[dict]:
    """Deterministic atlas over all complete normalized staircases in a box:
    one record per (ideal, rank), keyed by ATLAS_COLUMNS in that order."""
    if max_a > ATLAS_MAX_BOUND or max_b > ATLAS_MAX_BOUND:
        raise BoundsTooLarge(f"bounds are capped at {ATLAS_MAX_BOUND}")
    rows: list[dict] = []
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
            rows.append({"ideal_gens": ideal.to_pairs(), "r": ideal.r, "order": ideal.order(),
                         "complete": True, "e": e, "fitting_gens": verdict.fitting.to_pairs(),
                         "integrally_closed": verdict.integrally_closed,
                         "verdict": verdict.indecomposable, "prop51_diff": diff})
    return rows


def _cmd_atlas(args) -> str:
    _admit(args)
    rows = atlas_rows(args.max_a, args.max_b, which=args.filter)
    if args.format == "csv":
        # generator lists encode as a:b;a:b; csv writes an absent gap as the empty cell
        buf = io.StringIO()
        writer = csv.DictWriter(buf, ATLAS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "ideal_gens": _encode_gens(row["ideal_gens"]),
                             "fitting_gens": _encode_gens(row["fitting_gens"])})
        return buf.getvalue()
    return "".join(_dump(row, True) for row in rows)


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


def _cmd_render(args) -> str:
    ideal = _load_ideal(args.input)
    _admit(args, ideal)
    return render_svg(ideal)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="compact single-line JSON output")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized reductions (default 0)")
    parser.add_argument("--trials", type=_int_at_least(2),
                        help="trials for randomized reductions (default 4)")
    parser.add_argument("--trunc-cap", type=_int_at_least(2), dest="trunc_cap",
                        help="largest truncation degree the certificates try "
                        f"(default {modmat.DEFAULT_CAP})")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use and kept for the process.  Reuse is safe: each parse
    fills a fresh namespace, the subcommand copies of the global flags add no
    defaults, and argparse looks up sys.stdout and sys.stderr when it prints."""
    parser = argparse.ArgumentParser(
        prog="icmod",
        description="Exact workbench for integrally closed modules built from "
        "staircase monomial ideals.",
    )
    _common_flags(parser)
    parser.set_defaults(seed=0, trials=4, trunc_cap=modmat.DEFAULT_CAP)
    # the top level carries the defaults; the subcommand copies suppress theirs,
    # so a global flag may be written on either side of the subcommand name
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _common_flags(common)
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
    args = _build_parser().parse_args(argv)
    try:
        _write_out(getattr(args, "out", ""), args.func(args))
        return 0
    except BoundsTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        pass  # the line is printed below, once the traceback has freed the failed call
    except (modmat.NonMonomialIdeal, modmat.NotFiniteColength,
            multiplicity.Uncertified) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("error: out of memory; the input is too large for this request", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
