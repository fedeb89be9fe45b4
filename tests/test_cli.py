import contextlib
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icmod as ic
from icmod.cli import (ATLAS_COLUMNS, MAX_COLUMNS, MAX_EXPONENT, MAX_RANK, MAX_TRIALS,
                       MAX_TRUNC_CAP, _dump, atlas_rows, main, render_svg)

from conftest import refusing_work


def write_ideal(tmp_path, ideal, name="ideal.json"):
    path = tmp_path / name
    path.write_text(json.dumps(ideal.to_json()))
    return str(path)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_closure_command(tmp_path, capsys, example_reference):
    path = write_ideal(tmp_path, example_reference)
    code, out, _ = run(capsys, ["closure", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["gens"] == example_reference.to_pairs()
    assert obj["vertices"] == [[8, 0], [3, 2], [1, 4], [0, 8]]
    assert obj["complete"] is True

    path = write_ideal(tmp_path, ic.canonicalize([(2, 0), (0, 3)]), "i2.json")
    code, out, _ = run(capsys, ["closure", path])
    assert json.loads(out)["gens"] == [[2, 0], [1, 2], [0, 3]]


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _out, err = run(capsys, ["closure", str(bad)])
    assert code == 2 and err

    # nesting too deep for the decoder is unreadable input, not a crash
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    code, out, err = run(capsys, ["closure", str(deep)])
    assert code == 2 and not out and "cannot read JSON input" in err

    notideal = tmp_path / "notideal.json"
    notideal.write_text(json.dumps({"gens": [[1, 0], [0, "q"]]}))
    code, _out, err = run(capsys, ["closure", str(notideal)])
    assert code == 2 and err

    nonprimary = tmp_path / "np.json"
    nonprimary.write_text(json.dumps({"gens": [[2, 1]]}))
    code, _out, err = run(capsys, ["closure", str(nonprimary)])
    assert code == 2

    short_term = tmp_path / "short_term.json"
    short_term.write_text(json.dumps({"rank": 1, "cols": [[[[1, 0]]]]}))
    code, _out, err = run(capsys, ["length", str(short_term)])
    assert code == 2 and err

    flat_cols = tmp_path / "flat_cols.json"
    flat_cols.write_text(json.dumps({"rank": 1, "cols": 5}))
    code, _out, err = run(capsys, ["length", str(flat_cols)])
    assert code == 2 and err

    no_cols = tmp_path / "no_cols.json"
    no_cols.write_text(json.dumps({"rank": 2, "cols": []}))
    for verb in (["length"], ["mult"], ["mult", "--trials", str(MAX_TRIALS + 1)]):
        code, _out, err = run(capsys, verb + [str(no_cols)])
        assert code == 2 and "cols" in err, verb

    # the unit ideal is not proper, so no verb reports a value for it
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({"gens": [[0, 0]]}))
    for verb in (["closure"], ["factor"], ["classify"], ["construct", "--rank", "2"],
                 ["length"], ["mult"], ["mult", "--route", "reduction"],
                 ["mult", "--trials", str(MAX_TRIALS + 1)], ["render"],
                 ["audit", "--check", "gap-equality"], ["audit", "--check", "gap-bound"],
                 ["audit", "--check", "split", "--part1", "0"],
                 ["audit", "--check", "summand"]):
        code, out, err = run(capsys, verb + [str(unit)])
        assert code == 2 and not out and err, verb

    # a staircase off an axis gets the staircase's own message on every verb that reads
    # an ideal; the split audit states its hypothesis instead
    off_axis = tmp_path / "off_axis.json"
    off_axis.write_text(json.dumps({"gens": [[3, 1], [1, 2], [0, 4]]}))
    for verb in _INPUT_VERBS + [["classify", "--rank", "2"], ["mult", "--route", "area"],
                                ["mult", "--route", "reduction"]]:
        code, out, err = run(capsys, verb[:1] + [str(off_axis)] + verb[1:])
        reason = ("ideal must be m-primary and complete" if "split" in verb
                  else "ideal [[3, 1], [1, 2], [0, 4]] is not m-primary")
        assert (code, out, err) == (2, "", f"error: {reason}\n"), verb

    # with two generators there is no rank 2..r to classify
    path = write_ideal(tmp_path, ic.maximal_ideal_power(1))
    code, out, err = run(capsys, ["classify", path])
    assert code == 2 and not out and err

    # a --part1 index that is not an integer is named with its flag
    code, out, err = run(capsys, ["audit", path, "--check", "split", "--part1", "0,a"])
    assert (code, out, err) == (2, "", "error: --part1 takes comma-separated integers, got 'a'\n")

    # flag values outside their range are refused by the parser
    for argv in (["--trunc-cap", "1", "length", path], ["mult", path, "--trunc-cap", "0"],
                 ["closure", path, "--trials", "1"], ["mult", path, "--trials", "0"],
                 ["atlas", "--max-a", "0", "--max-b", "4"],
                 ["atlas", "--max-a", "4", "--max-b", "-1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and "at least" in err, argv

    # an --out path that cannot be written is refused like an input that cannot be read
    unwritable = str(tmp_path / "missing" / "out")
    for argv in (["render", path, "--out", unwritable],
                 ["atlas", "--max-a", "2", "--max-b", "2", "--out", unwritable]):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and "cannot write output" in err, argv
        assert "Traceback" not in err


def test_unit_fitting_ideal_is_a_result(tmp_path, capsys):
    # a constant entry splits off a free summand; the audits report it, they do not refuse it
    x, y, one, zero = (ic.BiPoly.term(1, 0), ic.BiPoly.term(0, 1), ic.BiPoly.term(0, 0),
                       ic.BiPoly.zero())
    path = tmp_path / "free.json"
    path.write_text(json.dumps(ic.PresMatrix(2, ((one, zero), (zero, x), (zero, y))).to_json()))
    code, out, _err = run(capsys, ["audit", "--check", "summand", str(path)])
    assert code == 0 and json.loads(out) == {"next_fitting_closure_is_m_power": False,
                                             "ord_ge_rank_plus_1": False}
    code, out, _err = run(capsys, ["audit", "--check", "gap-bound", str(path)])
    assert code == 0 and json.loads(out)["diff"] == 0


# every verb that reads an input, with the flags that make an ideal input admissible
_INPUT_VERBS = ([["closure"], ["factor"], ["classify"], ["construct", "--rank", "2"], ["render"],
                 ["length"], ["mult"]]
                + [["audit", "--check", check, "--part1", "0"]
                   for check in ("gap-equality", "gap-bound", "split", "summand")])


def test_size_guardrails_exit_4(tmp_path, capsys):
    big = MAX_EXPONENT + 1
    path = write_ideal(tmp_path, ic.canonicalize([(big, 0), (1, 1), (0, big)]))
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps(ic.from_ideal(ic.canonicalize([(big, 0), (0, 1)])).to_json()))
    for argv in (["render", path], ["closure", path], ["factor", path], ["classify", path],
                 ["audit", path, "--check", "gap-equality"],
                 ["audit", path, "--check", "split", "--part1", "0"],
                 ["audit", str(entry), "--check", "summand"]):
        code, out, err = run(capsys, argv)
        assert code == 4 and not out and "capped" in err, argv
    edge = write_ideal(tmp_path, ic.canonicalize([(MAX_EXPONENT, 0), (0, 1)]), "e.json")
    code, out, _err = run(capsys, ["render", edge])
    assert code == 0 and out.startswith("<svg")
    # the witness is read off the staircase rows, so a wide ideal classifies at once
    edge = write_ideal(tmp_path, ic.canonicalize(
        [(MAX_EXPONENT, 0), (MAX_EXPONENT - 1, 1), (0, MAX_EXPONENT)]), "w.json")
    code, out, _err = run(capsys, ["classify", edge, "--json"])
    assert code == 0 and json.loads(out)["integrally_closed"] is False

    m_top = write_ideal(tmp_path, ic.maximal_ideal_power(MAX_RANK + 1), "top.json")
    rank = tmp_path / "rank.json"
    rank.write_text(json.dumps(ic.build_module(ic.maximal_ideal_power(MAX_RANK + 1),
                                               MAX_RANK + 1).to_json()))
    too_high = str(MAX_RANK + 1)
    for argv in (["classify", m_top], ["classify", m_top, "--rank", too_high],
                 ["audit", m_top, "--check", "gap-equality", "--rank", too_high],
                 ["audit", m_top, "--check", "gap-bound", "--rank", too_high],
                 ["audit", str(rank), "--check", "summand"], ["mult", str(rank)],
                 ["length", str(rank)], ["construct", m_top, "--rank", too_high]):
        code, out, err = run(capsys, argv)
        assert code == 4 and not out and "capped" in err, argv
    code, out, _err = run(capsys, ["classify", m_top, "--rank", str(MAX_RANK)])
    assert code == 0 and json.loads(out)["indecomposable"] == "thm_5_2"

    # the matrix audits enumerate minors over column sets, length spans every column and
    # mult sums every column into each sampled combination, so matrix JSON is capped by
    # width (the rank-2 module of m^k has k + 2 columns)
    wide = tmp_path / "wide.json"
    for k, admitted in ((MAX_COLUMNS - 1, False), (MAX_COLUMNS - 2, True)):
        wide.write_text(json.dumps(ic.build_module(ic.maximal_ideal_power(k), 2).to_json()))
        for verb in (["audit", "--check", "gap-bound"], ["audit", "--check", "summand"],
                     ["length"], ["mult"]):
            code, out, err = run(capsys, verb[:1] + [str(wide)] + verb[1:])
            if admitted:
                assert code == 0 and out, verb
            else:
                assert code == 4 and not out and "capped" in err, verb

    # the flag caps are checked after the input is read, so malformed input still exits 2
    pure = ic.canonicalize([(8, 0), (0, 8)])
    mat = tmp_path / "pure.json"
    mat.write_text(json.dumps(ic.from_ideal(pure).to_json()))
    ideal = write_ideal(tmp_path, pure, "pure_ideal.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    over = ["--trunc-cap", str(MAX_TRUNC_CAP + 1)]
    for argv in (["length", str(mat)], ["mult", ideal], ["mult", str(mat)],
                 ["audit", ideal, "--check", "gap-equality"],
                 ["atlas", "--max-a", "2", "--max-b", "2"]):
        code, out, err = run(capsys, argv + over)
        assert code == 4 and not out and "capped" in err, argv
    for verb in _INPUT_VERBS:
        for flag in (over, ["--trials", str(MAX_TRIALS + 1)]):
            code, out, _err = run(capsys, verb[:1] + [str(bad)] + verb[1:] + flag)
            assert code == 2 and not out, verb + flag
    code, out, _err = run(capsys, ["length", str(mat), "--trunc-cap", str(MAX_TRUNC_CAP)])
    assert code == 0 and json.loads(out)["colength"] == 64

    path = write_ideal(tmp_path, ic.maximal_ideal_power(1), "m.json")
    code, out, err = run(capsys, ["mult", path, "--trials", str(MAX_TRIALS + 1)])
    assert code == 4 and not out and err
    code, out, _err = run(capsys, ["mult", path, "--trials", str(MAX_TRIALS)])
    assert code == 0 and json.loads(out)["reduction"]["value"] == 1


def test_factor_command(tmp_path, capsys, example_reference):
    path = write_ideal(tmp_path, example_reference)
    code, out, _ = run(capsys, ["factor", path])
    assert code == 0
    assert json.loads(out)["factors"] == [
        {"p": 5, "q": 2, "mult": 1},
        {"p": 1, "q": 1, "mult": 2},
        {"p": 1, "q": 4, "mult": 1},
    ]
    incomplete = write_ideal(tmp_path, ic.canonicalize([(2, 0), (0, 3)]), "nc.json")
    code, _out, err = run(capsys, ["factor", incomplete])
    assert code == 2


def test_closure_and_factor_requests_build_one_hull(tmp_path, capsys, monkeypatch,
                                                    example_reference):
    # an ideal and its closure share their hull, so neither verb needs a second one
    calls = []
    hull = ic.MonomialIdeal.newton_vertices
    monkeypatch.setattr(ic.MonomialIdeal, "newton_vertices",
                        lambda self: calls.append(self) or hull(self))
    path = write_ideal(tmp_path, example_reference)
    for verb in ("closure", "factor"):
        code, _out, _err = run(capsys, [verb, path])
        assert code == 0 and len(calls) == 1, verb
        calls.clear()


def test_indented_replies_never_reach_the_pure_python_encoder(tmp_path, capsys, monkeypatch,
                                                              showcase_a):
    # the stdlib writes indent=2 one element at a time in Python; no verb may reach it
    path = write_ideal(tmp_path, showcase_a)
    matpath = tmp_path / "mat.json"
    matpath.write_text(json.dumps(ic.build_module(showcase_a, 4).to_json()))
    requests = [["closure", path], ["factor", path], ["construct", path, "--rank", "4"],
                ["length", path], ["length", str(matpath)], ["mult", path],
                ["audit", path, "--check", "gap-equality", "--rank", "4"],
                ["classify", path, "--rank", "3"]]
    expected = []
    for argv in requests:
        code, out, _err = run(capsys, argv + ["--json"])
        assert code == 0, argv
        expected.append(json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n")

    def refuse(*_args, **_kwargs):
        raise AssertionError("the pure-Python JSON encoder was reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for argv, text in zip(requests, expected):
        assert run(capsys, argv) == (0, text, ""), argv


# keys and strings with non-ASCII text and characters JSON must escape
_json_text = st.one_of(st.text(),
                       st.text(st.sampled_from('a\u00e9\u20ac\U0001f600"\\/\n\t\x00\x7f')))
_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-(10**300), 10**300),
                         st.floats(), _json_text)
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_json_text, inner)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(_json_value)
def test_indented_output_is_the_stdlib_rendering(obj):
    assert _dump(obj, False) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# malformed wire input and the exact refusal, in the order the parsers check it
_PARSE_ERRORS = [
    (ic.from_json, {"gens": [[True, 0], [0, 1]]},
     "generator exponents must be integers, got [True, 0]"),
    (ic.from_json, {"gens": [[2, 0], [0, False]]},
     "generator exponents must be integers, got [0, False]"),
    (ic.from_json, {"gens": [[1, 2, 3], [0, 1]]}, "bad generator entry [1, 2, 3]"),
    (ic.from_json, {"gens": [[1, 0], 5]}, "bad generator entry 5"),
    (ic.from_json, {"gens": [["2", 0], [0, 1]]},
     "generator exponents must be integers, got ['2', 0]"),
    (ic.from_json, {"gens": [[2.0, 0], [0, 1]]},
     "generator exponents must be integers, got [2.0, 0]"),
    (ic.from_json, {"gens": {"a": 1}}, '"gens" must be a list of [a, b] pairs'),
    (ic.from_json, {"gens": "[[1, 0]]"}, '"gens" must be a list of [a, b] pairs'),
    (ic.from_json, {"gens": [[1, 2, 3], [True, 0]]}, "bad generator entry [1, 2, 3]"),
    (ic.from_json, {"gens": [[-1, 0], ["a", 0]]},
     "generator exponents must be integers, got ['a', 0]"),
    (ic.from_json, {"gens": [[-1, 0], [0, 2]]}, "negative exponent in generator (-1, 0)"),
    (ic.from_json, {"gens": []}, "a monomial ideal needs at least one generator"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[[[1, 0, True]]]]},
     "entry [[1, 0, True]] is not a list of [a, b, c] integer triples"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[[[1, 0]]]]},
     "entry [[1, 0]] is not a list of [a, b, c] integer triples"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[5]]},
     "entry 5 is not a list of [a, b, c] integer triples"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[[[1, 0, 2.5]]]]},
     "entry [[1, 0, 2.5]] is not a list of [a, b, c] integer triples"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[[(1, 0, 1)]]]},
     "entry [(1, 0, 1)] is not a list of [a, b, c] integer triples"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[[[1, 0, 1], [0, 1]]]]},
     "entry [[1, 0, 1], [0, 1]] is not a list of [a, b, c] integer triples"),
    # a column's entries are all checked before any is built, columns in order
    (ic.matrix_from_json, {"rank": 2, "cols": [[[[-1, 0, 1]], [[1, 0, "c"]]]]},
     "entry [[1, 0, 'c']] is not a list of [a, b, c] integer triples"),
    (ic.matrix_from_json, {"rank": 1, "cols": [[[[-1, 0, 1]]], [[[1, 0, True]]]]},
     "negative exponent in polynomial term"),
]


def test_wire_parsers_refuse_malformed_input_with_fixed_texts():
    for parse, obj, text in _PARSE_ERRORS:
        with pytest.raises(ValueError) as info:
            parse(obj)
        assert str(info.value) == text, obj
    # library callers may pass tuples
    assert ic.from_json({"gens": [(2, 0), (0, 3)]}).to_pairs() == [[2, 0], [0, 3]]


def test_classify_command_all_ranks(tmp_path, capsys, showcase_a, showcase_b):
    path = write_ideal(tmp_path, showcase_a)
    code, out, _ = run(capsys, ["classify", path, "--rank", "all"])
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert [v["indecomposable"] for v in verdicts] == [
        "thm_5_2", "thm_5_2", "thm_5_2", "unknown"]

    path = write_ideal(tmp_path, showcase_b, "b.json")
    code, out, _ = run(capsys, ["classify", path, "--rank", "all"])
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert [v["indecomposable"] for v in verdicts] == [
        "thm_5_2", "thm_5_2", "thm_5_2", "thm_5_4"]


def test_classify_command_chain_top_rank(tmp_path, capsys, chain_ideal):
    path = write_ideal(tmp_path, chain_ideal)
    code, out, _ = run(capsys, ["classify", path, "--rank", "4"])
    assert code == 0  # unknown is a result, not an error
    assert json.loads(out)["indecomposable"] == "unknown"
    # one rank is written indented, strings and null included, as the stdlib writes it
    verdict = ic.classify(chain_ideal, 4).to_json()
    assert out == json.dumps(verdict, indent=2, sort_keys=True) + "\n"


def test_construct_and_length_commands(tmp_path, capsys, showcase_a):
    path = write_ideal(tmp_path, showcase_a)
    code, out, _ = run(capsys, ["construct", path, "--rank", "4", "--json"])
    assert code == 0
    mat = ic.matrix_from_json(json.loads(out))
    assert mat == ic.build_module(showcase_a, 4)

    matpath = tmp_path / "mat.json"
    matpath.write_text(out)
    code, out, _ = run(capsys, ["length", str(matpath)])
    # the JSON copy walks to the grading that build_module attaches, and gives the same bytes
    assert out == '{\n  "colength": 17,\n  "kind": "module"\n}\n'

    code, out, _ = run(capsys, ["length", path])
    assert json.loads(out) == {"kind": "ideal", "colength": 23}

    code, _out, _err = run(capsys, ["construct", path, "--rank", "7"])
    assert code == 2


def test_mult_command(tmp_path, capsys, showcase_a):
    path = write_ideal(tmp_path, showcase_a)
    code, out, _ = run(capsys, ["mult", path, "--route", "both"])
    assert code == 0
    obj = json.loads(out)
    assert obj["area"] == 34
    assert obj["reduction"]["value"] == 34
    assert obj["reduction"]["certified"] is True


# built modules of rank 2-4 with the compact stdout of `--json --seed <seed> mult` and a
# digest of the winning sample's coefficients, recorded before the sampler's truncation
# builds skipped the rows that its relations make redundant
MULT_MATRIX_BYTES = [
    ([(7, 0), (4, 1), (3, 2), (2, 4), (1, 5), (0, 9)], 2, 0, 33, "e951a348d1130c0c"),
    ([(7, 0), (4, 1), (3, 2), (2, 4), (1, 5), (0, 9)], 3, 1, 31, "b639ad7e06bfc534"),
    ([(7, 0), (4, 1), (3, 2), (2, 4), (1, 5), (0, 9)], 4, 2, 28, "621d516801267da6"),
    ([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 9)], 2, 3, 36, "bb07a3dd3a215f26"),
    ([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 9)], 3, 4, 34, "63d2dbd86d1ed3cd"),
    ([(5, 0), (4, 2), (3, 3), (2, 4), (1, 6), (0, 9)], 4, 5, 31, "7a2ecd0e890bdc90"),
    ([(8, 0), (6, 1), (3, 2), (2, 3), (1, 4), (0, 8)], 2, 6, 33, "7e1334f563939e63"),
    ([(8, 0), (6, 1), (3, 2), (2, 3), (1, 4), (0, 8)], 3, 7, 31, "6d372ef8bda89de0"),
    ([(8, 0), (6, 1), (3, 2), (2, 3), (1, 4), (0, 8)], 4, 8, 28, "2241f4cc3ebe6832"),
    ([(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)], 4, 9, 10, "ca5a66843d5ba789"),
]


def test_mult_bytes_on_built_modules_are_pinned(tmp_path, capsys):
    for gens, e, seed, value, digest in MULT_MATRIX_BYTES:
        mat = ic.build_module(ic.canonicalize(gens), e)
        path = tmp_path / "module.json"
        path.write_text(json.dumps(mat.to_json()))
        code, out, err = run(capsys, ["--json", "--seed", str(seed), "mult", str(path)])
        assert (code, err) == (0, "")
        assert out == ('{"reduction":{"certified":true,"seed":%d,"trials":4,"value":%d}}\n'
                       % (seed, value))
        coeffs = ic.module_multiplicity(mat, seed=seed).coefficients
        assert hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16] == digest


def test_audit_command(tmp_path, capsys, showcase_a, showcase_b):
    path = write_ideal(tmp_path, showcase_a)
    code, out, _ = run(capsys, ["audit", path, "--check", "gap-equality", "--rank", "4"])
    assert code == 0
    assert json.loads(out) == {"lhs": 6, "expected": 6, "pass": True}

    bpath = write_ideal(tmp_path, showcase_b, "b.json")
    code, out, _ = run(capsys, ["audit", bpath, "--check", "split", "--part1", "0"])
    assert json.loads(out) == {"lhs": 8, "rhs": 6, "strict": True}

    code, out, _ = run(capsys, ["audit", path, "--check", "summand", "--rank", "4"])
    assert json.loads(out)["ord_ge_rank_plus_1"] is True


def test_audit_writes_what_the_library_returns(tmp_path, capsys, showcase_a, showcase_b):
    apath, bpath = write_ideal(tmp_path, showcase_a), write_ideal(tmp_path, showcase_b, "b.json")
    for argv, returned in (
            ([apath, "--check", "gap-equality", "--rank", "4"],
             ic.audit_gap_equality(showcase_a, 4)),
            ([bpath, "--check", "gap-bound", "--rank", "5"],
             ic.audit_gap_bound(ic.build_module(showcase_b, 5))),
            ([bpath, "--check", "split", "--part1", "0"],
             ic.audit_split_inequality(showcase_b, {0})),
            ([apath, "--check", "summand", "--rank", "4"],
             ic.audit_summand_hypotheses(ic.build_module(showcase_a, 4)))):
        code, out, err = run(capsys, ["audit", *argv, "--json"])
        assert (code, err) == (0, "") and json.loads(out) == returned, argv


def test_atlas_rows_and_guardrail(tmp_path, capsys):
    rows = atlas_rows(4, 4)
    complete = [i for i in ic.enumerate_staircases(4, 4, min_r=2, star_only=True)
                if i.is_complete()]
    assert len(rows) == sum(i.r - 1 for i in complete)
    for row in rows:
        assert list(row) == ATLAS_COLUMNS
        assert row["complete"]
        if row["integrally_closed"]:
            assert row["prop51_diff"] == row["e"] * (row["e"] - 1) // 2

    code, _out, err = run(capsys, ["atlas", "--max-a", "13", "--max-b", "4"])
    assert code == 4 and err


def test_atlas_determinism_and_formats(tmp_path, capsys):
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    assert main(["atlas", "--max-a", "3", "--max-b", "3", "--out", str(out1)]) == 0
    assert main(["atlas", "--max-a", "3", "--max-b", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("ideal_gens,r,order,complete,e,fitting_gens,"
                      "integrally_closed,verdict,prop51_diff")

    code, out, _ = run(capsys, ["atlas", "--max-a", "3", "--max-b", "3",
                                "--format", "jsonl", "--filter", "nonsimple"])
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert any(row["ideal_gens"] == [[2, 0], [1, 1], [0, 3]] for row in rows)


def test_atlas_of_an_empty_box_is_the_header_alone(capsys):
    code, out, err = run(capsys, ["atlas", "--max-a", "1", "--max-b", "1"])
    assert (code, out, err) == (0, "ideal_gens,r,order,complete,e,fitting_gens,"
                                   "integrally_closed,verdict,prop51_diff\n", "")
    code, out, err = run(capsys, ["atlas", "--max-a", "1", "--max-b", "1", "--format", "jsonl"])
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "54fb27994212823ef5fe1677b5d519592bb9cc70c7ce932b3ee785e223aac1a7"),
    ("jsonl", "52a26a67fe5914d3797979df1b5570ab50dd49dee24cd5ff4dffb579e4949a4c"),
])
def test_atlas_bytes_are_pinned(capsys, fmt, digest):
    code, out, err = run(capsys, ["atlas", "--max-a", "8", "--max-b", "8", "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_render_svg(tmp_path, capsys, example_reference, showcase_b):
    svg = render_svg(example_reference)
    assert svg.count('class="vertex"') == 4
    assert render_svg(ic.maximal_ideal_power(1)).count('class="vertex"') == 2
    assert render_svg(showcase_b).count('class="vertex"') == 4
    assert render_svg(example_reference) == svg  # byte stable

    path = write_ideal(tmp_path, example_reference)
    code, out, _ = run(capsys, ["render", path])
    assert code == 0 and out.startswith("<svg")

    bad = tmp_path / "bad.json"
    bad.write_text("[")
    assert main(["render", str(bad)]) == 2


def test_certificate_failure_exit_code(tmp_path, capsys):
    # a module with infinite colength exits 3 (its one row is divisible by x)
    mat = ic.PresMatrix(1, ((ic.BiPoly.term(1, 0),),))
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(mat.to_json()))
    code, _out, err = run(capsys, ["--trunc-cap", "12", "length", str(path)])
    assert code == 3 and "NotFiniteColength" in err

    # the cap itself is a truncation degree: (x^8, y^8) certifies at degree 15
    pure = ic.canonicalize([(8, 0), (0, 8)])
    path.write_text(json.dumps(ic.from_ideal(pure).to_json()))
    code, out, _err = run(capsys, ["--trunc-cap", "15", "length", str(path)])
    assert code == 0 and json.loads(out)["colength"] == 64
    code, out, _err = run(capsys, ["mult", write_ideal(tmp_path, pure), "--trunc-cap", "16"])
    assert code == 0 and json.loads(out)["reduction"]["value"] == 64
    # on m^40 every sample needs degree 79; the failure names the cap, not the samples
    code, out, err = run(capsys, ["mult", write_ideal(tmp_path, ic.maximal_ideal_power(40))])
    assert code == 3 and not out and "truncation cap 64" in err


def test_certificate_names_the_first_failing_term_in_canonical_order(tmp_path, capsys):
    # the multi-term minor x^1 y^3 + ... stores x^1 y^2 first; the message names x^1 y^3
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"rank": 2, "cols": [
        [[[1, 1, 2], [0, 0, 1]], [[0, 0, 2], [0, 1, 1]]],
        [[[1, 0, 1]], []],
        [[[1, 2, 2], [1, 0, 1]], [[1, 2, 1]]]]}))
    code, out, err = run(capsys, ["audit", "--check", "gap-bound", str(path)])
    assert code == 3 and not out
    assert err == ("error: NonMonomialIdeal: minor term x^1 y^3 is not reducible by the "
                   "candidate ideal\n")


MATRIX_VERBS = (["length"], ["mult"], ["audit", "--check", "gap-bound"],
                ["audit", "--check", "summand"])
ROW_0_DIVISIBLE_BY_X = ("error: NotFiniteColength: every term of row 0 is divisible by x: "
                        "infinite length\n")


def test_a_module_of_infinite_length_exits_3_on_every_matrix_verb(tmp_path, capsys):
    # the columns (x, 0), (0, x), (y, y) have no row divisible by x or y, but I_2 = (x^2, xy)
    # holds no power of y; the refusals the row proof does not replace name the cell and I_2
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"rank": 2, "cols": [[[[1, 0, 1]], []], [[], [[1, 0, 1]]],
                                                    [[[0, 1, 1]], [[0, 1, 1]]]]}))
    audit = "minor ideal [[2, 0], [1, 1]] is not m-primary: infinite length"
    for verb, reason in (
            (["length"], "the quotient is nonzero on an unbounded cell of the degree grid"),
            (["audit", "--check", "gap-bound"], audit), (["audit", "--check", "summand"], audit)):
        code, out, err = run(capsys, verb[:1] + [str(path)] + verb[1:])
        assert (code, out, err) == (3, "", f"error: NotFiniteColength: {reason}\n"), verb
    # I_2 = (x^2, xy^3): every term of row 0 is divisible by x, so every verb gives that line
    path.write_text(json.dumps({"rank": 2, "cols": [[[[1, 0, 1]], []], [[], [[1, 0, 1]]],
                                                    [[], [[0, 3, 1]]]]}))
    with refusing_work():
        for verb in MATRIX_VERBS:
            code, out, err = run(capsys, verb[:1] + [str(path)] + verb[1:])
            assert (code, out, err) == (3, "", ROW_0_DIVISIBLE_BY_X), verb


def test_multi_term_modules_with_a_divisible_row_exit_3_before_any_minor(tmp_path, capsys):
    # rank 6 with 12 columns of two-term entries, whose minor table once ran the matrix
    # audits out of memory, and rank 3 with 4 columns of 30-term entries; both are drawn
    # from one generator, with exponents below 1000, and every term of row 0 has positive
    # x-degree
    rng = random.Random(1)
    path = tmp_path / "mat.json"
    for e, n, terms in ((6, 12, 2), (3, 4, 30)):
        path.write_text(json.dumps({"rank": e, "cols": [[[
            [rng.randrange(1000), rng.randrange(1000), rng.choice([-1, 1]) * rng.randint(1, 9)]
            for _ in range(terms)] for _ in range(e)] for _ in range(n)]}))
        for verb in MATRIX_VERBS:
            start = time.perf_counter()
            with refusing_work():
                code, out, err = run(capsys, verb[:1] + [str(path)] + verb[1:])
            assert (code, out, err) == (3, "", ROW_0_DIVISIBLE_BY_X), (e, verb)
            assert time.perf_counter() - start < 1.0, (e, verb)


def test_mult_refuses_a_wide_matrix_before_it_samples(tmp_path, capsys):
    # 200 single-term columns, each entry in a random row of a rank-2 matrix; without
    # the column cap mult sums all 200 into each sampled combination for over 40 s
    rng = random.Random(2)
    cols = []
    for _ in range(200):
        col = [[], []]
        col[rng.randrange(2)] = [[rng.randrange(40), rng.randrange(40), 1]]
        cols.append(col)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"rank": 2, "cols": cols}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["mult", str(path)])
    assert (code, out, err) == (4, "", f"error: matrix inputs are capped at {MAX_COLUMNS} "
                                       "columns\n")
    assert time.perf_counter() - start < 1.0
    # its first 12 columns are admitted; every term of row 0 has positive x-degree
    path.write_text(json.dumps({"rank": 2, "cols": cols[:MAX_COLUMNS]}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["mult", str(path), "--trials", "100", "--trunc-cap", "80"])
    assert (code, out, err) == (3, "", "error: NotFiniteColength: every term of row 0 is "
                                       "divisible by x: infinite length\n")
    assert time.perf_counter() - start < 1.0


def test_a_closed_form_disagreement_exits_3(tmp_path, capsys, monkeypatch, showcase_a):
    # icmod.classify names the function, so its module is reached through sys.modules
    monkeypatch.setattr(sys.modules["icmod.classify"], "closed_form_fitting",
                        lambda _ideal, _rank: ic.maximal_ideal_power(1))
    code, out, err = run(capsys, ["classify", write_ideal(tmp_path, showcase_a), "--rank", "2"])
    assert (code, out) == (3, "")
    assert err == "error: NonMonomialIdeal: minor ideal disagrees with its closed form\n"


def test_running_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhaust(*_args, **_kwargs):
        raise MemoryError

    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"rank": 1, "cols": [[[[2, 0, 1]]], [[[1, 0, 1], [0, 1, 1]]],
                                                    [[[0, 3, 1]]]]}))
    monkeypatch.setattr(ic.modmat, "signed_minor_table", exhaust)
    monkeypatch.setattr(ic.modmat, "colength_module", exhaust)
    for argv in (["audit", "--check", "gap-bound", str(path)], ["length", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 4 and not out, argv
        assert err.startswith("error: ") and "memory" in err and err.count("\n") == 1, argv


def test_no_verb_lists_a_minor_for_a_built_module(tmp_path, capsys, monkeypatch, showcase_a):
    # every row set of a built module is a graded forest, so the tree DP takes
    # each Fitting ideal these verbs ask for, the summand audit's I_(e-1) too
    path = write_ideal(tmp_path, showcase_a)
    requests = [["classify", path, "--rank", "all"], ["construct", path, "--rank", "4"],
                ["audit", path, "--check", "gap-equality", "--rank", "3"],
                ["audit", path, "--check", "gap-bound", "--rank", "3"],
                ["audit", path, "--check", "summand", "--rank", "4"],
                ["atlas", "--max-a", "5", "--max-b", "5"]]
    replies = [run(capsys, argv) for argv in requests]

    def refuse(_mat):
        raise AssertionError("a minor table was listed")

    monkeypatch.setattr(ic.modmat, "signed_minor_table", refuse)
    for argv, reply in zip(requests, replies):
        assert reply[0] == 0 and run(capsys, argv) == reply, argv


class _FailingStdout:
    def __init__(self, exc):
        self.exc = exc

    def write(self, _text):
        raise self.exc

    def flush(self):
        raise self.exc


def test_a_reply_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    path = write_ideal(tmp_path, ic.canonicalize([(3, 0), (1, 1), (0, 3)]))
    for exc in (BrokenPipeError(errno.EPIPE, "Broken pipe"),
                OSError(errno.ENOSPC, "No space left on device")):
        for argv in (["closure", path], ["atlas", "--max-a", "3", "--max-b", "3"]):
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", _FailingStdout(exc))
                code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, (argv, exc)
            assert err == f"error: cannot write output: {exc}\n", (argv, exc)


def test_a_closed_pipe_on_stdout_exits_2_with_one_line(tmp_path):
    path = write_ideal(tmp_path, ic.canonicalize([(3, 0), (1, 1), (0, 3)]))
    env = {**os.environ, "PYTHONPATH": str(Path(ic.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "icmod.cli", "closure", path], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_a_request_that_fails_part_way_prints_nothing(tmp_path, capsys, monkeypatch,
                                                      showcase_a):
    # the first rank's verdict is computed, the second fails its certificate
    real, calls = ic.cli.classify, []

    def second_fails(ideal, e):
        calls.append(e)
        if len(calls) == 2:
            raise ic.modmat.NonMonomialIdeal("not reducible")
        return real(ideal, e)

    monkeypatch.setattr(ic.cli, "classify", second_fails)
    code, out, err = run(capsys, ["classify", write_ideal(tmp_path, showcase_a),
                                  "--rank", "all"])
    assert calls == [2, 3]
    assert (code, out, err) == (3, "", "error: NonMonomialIdeal: not reducible\n")


def test_length_of_constructed_modules_of_high_degree():
    # the rank-3 module of (x^30, y^30)^3 has entries of degree 90; truncation
    # certifies it only at degree 117, past every admitted --trunc-cap, but the
    # module is graded, so length needs no truncation
    cube = ic.canonicalize([(30, 0), (0, 30)])
    cube = cube * cube * cube
    code, out, _err = _run_on_stdin(["construct", "-", "--rank", "3"], cube.to_json())
    assert code == 0
    code, out, _err = _run_on_stdin(["length", "-"], json.loads(out))
    assert code == 0 and json.loads(out)["colength"] == 4527

    # the rank-3 module of (x^3, y^3)^30 (colength 4176) has 33 columns, past
    # the column guardrail of length
    power = ic.canonicalize([(3, 0), (0, 3)])
    for _ in range(29):
        power = power * ic.canonicalize([(3, 0), (0, 3)])
    code, out, _err = _run_on_stdin(["construct", "-", "--rank", "3"], power.to_json())
    assert code == 0
    code, out, err = _run_on_stdin(["length", "-"], json.loads(out))
    assert code == 4 and not out and "capped" in err

    # infinite colength still exits 3 (its one row is divisible by x)
    code, out, err = _run_on_stdin(["length", "-"], {"rank": 1, "cols": [[[[1, 0, 1]]]]})
    assert code == 3 and not out and "NotFiniteColength" in err


def test_roundtrip_of_emitted_ideals(tmp_path, capsys, showcase_b):
    path = write_ideal(tmp_path, showcase_b)
    code, out, _ = run(capsys, ["closure", path, "--json"])
    obj = json.loads(out)
    again = ic.from_json({"gens": obj["gens"]})
    assert again == showcase_b


# small, often malformed inputs and flag values for the exit-code property
_exp = st.integers(-1, 10)
_ideal_json = st.one_of(
    st.builds(lambda a, b, mid: {"gens": [[a, 0]] + mid + [[0, b]]}, st.integers(1, 10),
              st.integers(1, 10), st.lists(st.tuples(_exp, _exp).map(list), max_size=4)),
    st.fixed_dictionaries({"gens": st.lists(st.tuples(_exp, _exp).map(list), max_size=5)}),
    st.fixed_dictionaries({"gens": st.lists(st.lists(_exp, max_size=3), max_size=4)}),
    st.sampled_from([[], {}, {"gens": 3}, {"gens": [[1, True]]}, {"gens": [[0, 0]]}, None]),
)
_entry = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                            st.sampled_from([-2, -1, 1, 2])).map(list), min_size=1, max_size=2)
_bad_entry = st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=2)
_matrix_json = st.one_of(
    st.integers(1, 3).flatmap(lambda rank: st.fixed_dictionaries({
        "rank": st.just(rank),
        "cols": st.lists(st.lists(_entry, min_size=rank, max_size=rank), min_size=1,
                         max_size=5),
    })),
    st.fixed_dictionaries({
        "rank": st.sampled_from([0, -1, 2, "2", True]),
        "cols": st.one_of(st.lists(st.lists(_bad_entry, max_size=3), max_size=3),
                          st.sampled_from([[], 5, [[1, 0]]])),
    }),
)
_ideal_verbs = [["closure"], ["factor"], ["classify"], ["classify", "--rank", "x"],
                ["construct", "--rank", "2"], ["length"], ["mult"],
                ["mult", "--route", "reduction"], ["render"],
                ["audit", "--check", "gap-equality", "--rank", "2"],
                ["audit", "--check", "gap-bound", "--rank", "3"],
                ["audit", "--check", "split", "--part1", "0"],
                ["audit", "--check", "summand", "--rank", "2"]]
_matrix_verbs = [["length"], ["mult"], ["mult", "--route", "area"],
                 ["audit", "--check", "gap-bound"], ["audit", "--check", "summand"]]


class _Raw(str):
    """Stdin text sent as it is, not JSON-encoded."""


# arrays nested deeper than the decoder's recursion limit, closed or not
_deep_json = st.tuples(st.sampled_from([2000, 200000]), st.booleans()).map(
    lambda nb: _Raw("[" * nb[0] + "]" * nb[0] * nb[1]))
# a flag value out of range stops the parser, so most values are in range
_flags = st.tuples(
    st.sampled_from(["24"] * 6 + ["2", "8", "1", "-1", "x"]),  # --trunc-cap
    st.sampled_from(["4"] * 6 + ["2", "3", "1", "0", str(MAX_TRIALS + 1)]),  # --trials
    st.sampled_from(["0"] * 6 + ["-3", "7", "q"]),  # --seed
)
_request = st.one_of(
    st.tuples(st.sampled_from(_ideal_verbs), _ideal_json, _flags),
    st.tuples(st.sampled_from(_matrix_verbs), _matrix_json, _flags),
    st.tuples(st.sampled_from(_ideal_verbs + _matrix_verbs), _deep_json, _flags),
    st.tuples(st.tuples(st.just("atlas"),
                        st.sampled_from(["--max-a", "--max-b"]),
                        st.sampled_from(["-1", "0", "2", "x", "13"])).map(list),
              st.just(None), _flags),
)


def _run_on_stdin(argv, obj):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(obj if isinstance(obj, _Raw) else json.dumps(obj))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


GOLDEN_REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import icmod
import icmod.cli
from workloads import call_cli, cli_pools, request_key, stdout_digest
replies = {}
for pool in cli_pools(icmod).values():
    for argv, stdin in pool[:int(sys.argv[2])]:
        code, text = call_cli(icmod.cli.main, argv, stdin)
        replies[request_key(argv, stdin)] = [code, stdout_digest(text)]
print(json.dumps(replies))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_recorded_cli_digests_replay_in_a_fresh_interpreter(hash_seed):
    # perfbench/cli_golden.json holds the stdout digest of every cli-mix request; the
    # head of each pool, replayed in a fresh process under a fixed hash seed, prints
    # the recorded bytes, so no reply depends on set or dict iteration of strings
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    golden = json.loads((perfbench / "cli_golden.json").read_text())
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(Path(ic.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", GOLDEN_REPLAY, str(perfbench), "5"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    replies = json.loads(done.stdout)
    assert len(replies) == 60
    assert replies == {key: [0, golden[key]] for key in replies}


def test_reused_parser_answers_like_a_fresh_process(monkeypatch, example_reference):
    # each request runs after one that set a flag, failed in the parser or printed
    # help; a fresh interpreter is the reference for every reply
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(ic.__file__).resolve().parents[1])}
    obj = example_reference.to_json()
    for argv in (["--seed", "5", "mult", "-"], ["mult", "-"],
                 ["closure", "-", "--json"], ["closure", "-"],
                 ["--trunc-cap", "x", "length", "-"], ["length", "-"],
                 ["--help"], ["closure", "--help"]):
        fresh = subprocess.run([sys.executable, "-m", "icmod.cli", *argv], env=env,
                               input=json.dumps(obj), capture_output=True, text=True,
                               timeout=60)
        assert _run_on_stdin(argv, obj) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_global_flags_are_read_on_either_side_of_the_verb():
    # only the top level holds the defaults; a subcommand copy that held them
    # too would overwrite a flag written before the verb
    m = {"gens": [[1, 0], [0, 1]]}
    for argv, seed in ((["--seed", "5", "mult", "-"], 5), (["mult", "-", "--seed", "5"], 5),
                       (["--seed", "5", "mult", "-", "--seed", "7"], 7), (["mult", "-"], 0)):
        code, out, _err = _run_on_stdin(argv + ["--json"], m)
        assert code == 0 and json.loads(out)["reduction"]["seed"] == seed, argv
    code, out, _err = _run_on_stdin(["--json", "closure", "-"], m)
    assert code == 0 and out == '{"complete":true,"gens":[[1,0],[0,1]],"vertices":[[1,0],[0,1]]}\n'


@settings(max_examples=200, deadline=None)
@given(_request)
def test_cli_exit_codes_on_small_malformed_inputs(request):
    verb, obj, (cap, trials, seed) = request
    argv = ["--trunc-cap", cap, "--trials", trials, "--seed", seed] + verb
    if verb[0] == "atlas":
        argv += ["--max-a", "3"] if verb[1] == "--max-b" else ["--max-b", "3"]
    else:
        argv.insert(len(argv) - len(verb) + 1, "-")
    code, out, err = _run_on_stdin(argv, obj)
    assert code in (0, 2, 3, 4), (argv, obj, err)
    assert "Traceback" not in err
    # a failure says why; a success is never silent
    assert err if code else out


def _matrix(rank, ncols, top=2):
    return {"rank": rank, "cols": [[[[top, 1, 1]]] * rank] * ncols}


# requests that exit 0: each verb on (x, y^k)^2, which meets every precondition (the
# split audit's included), the matrix verbs on a module, and atlas
_admissible = st.one_of(
    st.tuples(st.sampled_from(_INPUT_VERBS),
              st.integers(2, 6).map(lambda k: ic.canonicalize([(2, 0), (1, k), (0, 2 * k)])
                                    .to_json())),
    st.tuples(st.sampled_from([["length"], ["mult"], ["audit", "--check", "gap-bound"],
                               ["audit", "--check", "summand"]]),
              st.integers(2, 6).map(
                  lambda k: ic.build_module(ic.maximal_ideal_power(k), 2).to_json())),
    st.tuples(st.just(["atlas", "--max-a", "2", "--max-b", "2"]), st.none()),  # reads no input
)
# each request is well formed and one step past exactly one guardrail
_just_above = st.one_of(
    st.tuples(st.sampled_from([["closure"], ["factor"], ["classify"], ["render"],
                               ["construct", "--rank", "2"],
                               ["audit", "--check", "gap-equality", "--rank", "2"],
                               ["audit", "--check", "gap-bound", "--rank", "2"],
                               ["audit", "--check", "split", "--part1", "0"],
                               ["audit", "--check", "summand", "--rank", "2"]]),
              st.integers(2, 9).map(lambda a: {"gens": [[a, 0], [1, 1],
                                                        [0, MAX_EXPONENT + 1]]})),
    st.tuples(st.sampled_from([["classify"], ["classify", "--rank", str(MAX_RANK + 1)],
                               ["construct", "--rank", str(MAX_RANK + 1)]]
                              + [["audit", "--check", check, "--rank", str(MAX_RANK + 1)]
                                 for check in ("gap-equality", "gap-bound", "summand")]),
              st.integers(MAX_RANK + 1, MAX_RANK + 4).map(
                  lambda k: ic.maximal_ideal_power(k).to_json())),
    st.tuples(st.sampled_from([["length"], ["mult"], ["audit", "--check", "gap-bound"],
                               ["audit", "--check", "summand"]]),
              st.one_of(st.integers(1, 3).map(lambda n: _matrix(MAX_RANK + 1, n)),
                        st.tuples(st.integers(1, MAX_RANK), st.integers(1, 3)).map(
                            lambda rn: _matrix(*rn, top=MAX_EXPONENT + 1)))),
    st.tuples(st.sampled_from([["length"], ["mult"], ["audit", "--check", "gap-bound"],
                               ["audit", "--check", "summand"]]),
              st.integers(1, MAX_RANK).map(lambda e: _matrix(e, MAX_COLUMNS + 1))),
    # a flag cap binds every verb: admissible input plus one flag above its cap
    st.builds(lambda request, flag: (request[0] + flag, request[1]), _admissible,
              st.sampled_from([["--trunc-cap", str(MAX_TRUNC_CAP + 1)],
                               ["--trials", str(MAX_TRIALS + 1)]])),
)


@settings(max_examples=100, deadline=None)
@given(_just_above)
def test_cli_exits_4_at_once_just_above_each_guardrail(request):
    verb, obj = request
    start = time.perf_counter()
    argv = verb if obj is None else verb[:1] + ["-"] + verb[1:]
    code, out, err = _run_on_stdin(argv, obj)
    assert code == 4 and not out and "capped" in err, (verb, obj, err)
    assert time.perf_counter() - start < 1.0, verb
