import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import icmod as ic
from icmod.cli import (MAX_COLUMNS, MAX_EXPONENT, MAX_RANK, MAX_TRIALS, MAX_TRUNC_CAP, atlas_rows,
                       main, render_svg)


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

    # with two generators there is no rank 2..r to classify
    path = write_ideal(tmp_path, ic.maximal_ideal())
    code, out, err = run(capsys, ["classify", path])
    assert code == 2 and not out and err

    # flag values outside their range are refused by the parser
    for argv in (["--trunc-cap", "1", "length", path], ["mult", path, "--trunc-cap", "0"],
                 ["atlas", "--max-a", "0", "--max-b", "4"],
                 ["atlas", "--max-a", "4", "--max-b", "-1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out and "at least" in err, argv


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
                 ["audit", str(rank), "--check", "summand"], ["mult", str(rank)]):
        code, out, err = run(capsys, argv)
        assert code == 4 and not out and "capped" in err, argv
    code, out, _err = run(capsys, ["classify", m_top, "--rank", str(MAX_RANK)])
    assert code == 0 and json.loads(out)["indecomposable"] == "thm_5_2"

    # the matrix audits enumerate minors over column sets, so matrix JSON is capped by width
    # (the rank-2 module of m^k has k + 2 columns)
    wide = tmp_path / "wide.json"
    for k, admitted in ((MAX_COLUMNS - 1, False), (MAX_COLUMNS - 2, True)):
        wide.write_text(json.dumps(ic.build_module(ic.maximal_ideal_power(k), 2).to_json()))
        for check in ("gap-bound", "summand"):
            code, out, err = run(capsys, ["audit", str(wide), "--check", check])
            if admitted:
                assert code == 0 and out, check
            else:
                assert code == 4 and not out and "capped" in err, check

    # --trunc-cap is checked after the input is read, so malformed input still exits 2
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
    for verb in (["length"], ["mult"], ["audit", "--check", "gap-bound"]):
        code, out, _err = run(capsys, verb + [str(bad)] + over)
        assert code == 2 and not out, verb
    code, out, _err = run(capsys, ["length", str(mat), "--trunc-cap", str(MAX_TRUNC_CAP)])
    assert code == 0 and json.loads(out)["colength"] == 64

    path = write_ideal(tmp_path, ic.maximal_ideal(), "m.json")
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


def test_construct_and_length_commands(tmp_path, capsys, showcase_a):
    path = write_ideal(tmp_path, showcase_a)
    code, out, _ = run(capsys, ["construct", path, "--rank", "4", "--json"])
    assert code == 0
    mat = ic.matrix_from_json(json.loads(out))
    assert mat == ic.build_module(showcase_a, 4)

    matpath = tmp_path / "mat.json"
    matpath.write_text(out)
    code, out, _ = run(capsys, ["length", str(matpath)])
    assert json.loads(out) == {"kind": "module", "colength": 17}

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


def test_atlas_rows_and_guardrail(tmp_path, capsys):
    rows = atlas_rows(4, 4)
    complete = [i for i in ic.enumerate_staircases(4, 4, min_r=2, star_only=True)
                if i.is_complete()]
    assert len(rows) == sum(i.r - 1 for i in complete)
    for row in rows:
        assert row.complete
        if row.integrally_closed:
            assert row.prop51_diff == row.e * (row.e - 1) // 2

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


def test_render_svg(tmp_path, capsys, example_reference, showcase_b):
    svg = render_svg(example_reference)
    assert svg.count('class="vertex"') == 4
    assert render_svg(ic.maximal_ideal()).count('class="vertex"') == 2
    assert render_svg(showcase_b).count('class="vertex"') == 4
    assert render_svg(example_reference) == svg  # byte stable

    path = write_ideal(tmp_path, example_reference)
    code, out, _ = run(capsys, ["render", path])
    assert code == 0 and out.startswith("<svg")

    bad = tmp_path / "bad.json"
    bad.write_text("[")
    assert main(["render", str(bad)]) == 2


def test_certificate_failure_exit_code(tmp_path, capsys):
    # a module with infinite colength trips the certificate guardrail
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
# a flag value out of range stops the parser, so most values are in range
_flags = st.tuples(
    st.sampled_from(["24"] * 6 + ["2", "8", "1", "-1", "x"]),  # --trunc-cap
    st.sampled_from(["4"] * 6 + ["2", "3", "1", "0", str(MAX_TRIALS + 1)]),  # --trials
    st.sampled_from(["0"] * 6 + ["-3", "7", "q"]),  # --seed
)
_request = st.one_of(
    st.tuples(st.sampled_from(_ideal_verbs), _ideal_json, _flags),
    st.tuples(st.sampled_from(_matrix_verbs), _matrix_json, _flags),
    st.tuples(st.tuples(st.just("atlas"),
                        st.sampled_from(["--max-a", "--max-b"]),
                        st.sampled_from(["-1", "0", "2", "x", "13"])).map(list),
              st.just(None), _flags),
)


@settings(max_examples=200, deadline=None)
@given(_request)
def test_cli_exit_codes_on_small_malformed_inputs(request):
    verb, obj, (cap, trials, seed) = request
    argv = ["--trunc-cap", cap, "--trials", trials, "--seed", seed] + verb
    if verb[0] == "atlas":
        argv += ["--max-a", "3"] if verb[1] == "--max-b" else ["--max-b", "3"]
    else:
        argv.insert(len(argv) - len(verb) + 1, "-")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(obj))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3, 4), (argv, obj, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # a failure says why; a success is never silent
    assert err.getvalue() if code else out.getvalue()
