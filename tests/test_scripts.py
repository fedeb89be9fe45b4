import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_showcase_script(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "showcase.py")
    assert out.count("== ") == 4
    assert 'difference formula on A at rank 4: {"lhs": 6, "rhs": 6, "equal": true}' in out


def test_atlas_summary_script(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "atlas_summary.py", "--max-a", "5", "--max-b", "5")
    lines = out.splitlines()
    assert lines[0].endswith("rows over the 5x5 box (filter=all)")
    assert lines[1].split() == ["rank", "thm_5_2", "thm_5_4", "unknown"]
    assert lines[-2].startswith("integrally closed: ")
    assert lines[-1].startswith("colength gaps observed: ")
