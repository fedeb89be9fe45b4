import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icmod"
SIBLINGS = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Underscore names that a module of the package takes from a sibling module.

    Catches `from .sibling import _name` (relative or through `icmod`) and
    `sibling._name` on a module bound by `from . import sibling`.
    """
    nodes = list(ast.walk(ast.parse(source)))
    found, modules = [], set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("icmod")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                elif alias.name in SIBLINGS:
                    modules.add(alias.asname or alias.name)
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    # the check itself sees each form it looks for
    assert private_imports("from .modmat import _grading, build_module") == ["modmat._grading"]
    assert private_imports("from icmod.staircase import _x") == ["icmod.staircase._x"]
    assert private_imports("from . import modmat\nmodmat._grading(m)") == ["modmat._grading"]
    assert private_imports("from __future__ import annotations\nimport os\nos._exit") == []
    for path in sorted(SRC.glob("*.py")):
        assert private_imports(path.read_text()) == [], path.name


def test_every_traced_name_resolves_in_the_package():
    # the tracer behind perfbench's --trace wraps these names; a rename must not drop one
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [entry[:2] for entry in tracer.SPANNED + tracer.TIMED_LEAVES + tracer.COUNTED]
    assert ("algebra", "PivotSpan.contains_single") in names
    assert ("algebra", "GraphSpan.add") in names
    for modname, attr in names:
        home = importlib.import_module("icmod." + modname)
        if "." in attr:  # methods resolve through the class dict, as Tracer.install does
            cls_name, meth = attr.split(".")
            assert callable(getattr(home, cls_name).__dict__.get(meth)), (modname, attr)
        else:
            assert callable(getattr(home, attr, None)), (modname, attr)
