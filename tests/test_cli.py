import json


import icmod as ic
from icmod.cli import atlas_rows, main, render_svg


def write_ideal(tmp_path, ideal, name="ideal.json"):
    path = tmp_path / name
    path.write_text(json.dumps(ideal.to_json()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
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


def test_roundtrip_of_emitted_ideals(tmp_path, capsys, showcase_b):
    path = write_ideal(tmp_path, showcase_b)
    code, out, _ = run(capsys, ["closure", path, "--json"])
    obj = json.loads(out)
    again = ic.from_json({"gens": obj["gens"]})
    assert again == showcase_b
