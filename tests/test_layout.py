import ast
import importlib.util
import io
import re
import tokenize
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


def stdout_uses(source: str) -> list[str]:
    """Where a module writes stdout: a `print(` call with no `file=`, and each
    `sys.stdout` outside `_write_out`, named by the function it is in."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                and not any(kw.arg == "file" for kw in node.keywords)):
            found.append(f"print in {where}")
        if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
                and where != "_write_out"):
            found.append(f"sys.stdout in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_reply_writer_touches_stdout():
    # reports and errors go to stderr; stdout carries the byte-stable reply alone
    assert stdout_uses("def f():\n    print('x')\n") == ["print in f"]
    assert stdout_uses("print('x', file=sys.stderr)\n") == []
    assert stdout_uses("import sys\nOUT = sys.stdout\n") == ["sys.stdout in <module>"]
    assert stdout_uses("def _write_out(p, t):\n    sys.stdout.write(t)\n") == []
    assert stdout_uses("def g():\n    def _write_out():\n        pass\n    sys.stdout\n") == [
        "sys.stdout in g"]
    for path in sorted(SRC.glob("*.py")):
        assert stdout_uses(path.read_text()) == [], path.name


def admission_faults(source: str) -> list[str]:
    """Where the CLI strays from one admission check per verb: a `_cmd_*`
    function that never calls `_admit`, and a `raise BoundsTooLarge` outside
    `_admit` and `atlas_rows`, named by the function it is in."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
            if where.startswith("_cmd_") and not any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "_admit" for call in ast.walk(node)):
                found.append(f"no _admit in {where}")
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (isinstance(exc, ast.Name) and exc.id == "BoundsTooLarge"
                    and where not in ("_admit", "atlas_rows")):
                found.append(f"raise BoundsTooLarge in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_every_verb_admits_its_request_in_one_place():
    # the size caps live in _admit (and the atlas box in atlas_rows); a verb that
    # skipped it, or kept a cap of its own, would bind a flag on some verbs only
    assert admission_faults("def _cmd_x(args):\n    _admit(args)\n") == []
    assert admission_faults("def _cmd_x(args):\n    return 1\n") == ["no _admit in _cmd_x"]
    assert admission_faults("def _cmd_x(args):\n    _admit(args)\n    raise BoundsTooLarge('c')\n"
                            ) == ["raise BoundsTooLarge in _cmd_x"]
    assert admission_faults("def _admit(a):\n    raise BoundsTooLarge('c')\n") == []
    assert admission_faults("def atlas_rows(a):\n    raise BoundsTooLarge\n") == []
    assert admission_faults("raise BoundsTooLarge\n") == ["raise BoundsTooLarge in <module>"]
    source = (SRC / "cli.py").read_text()
    assert "def _cmd_atlas(" in source
    assert admission_faults(source) == []


def bare_raises(source: str) -> list[str]:
    """Where a module raises `RuntimeError` or `Exception` itself, which `cli.main`
    maps to no exit code, named by the function it is in."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "Exception"):
                found.append(f"raise {exc.id} in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_no_module_raises_a_bare_runtime_error_or_exception():
    # a library failure raises a named class, so the CLI can give it an exit code
    assert bare_raises("def f(x):\n    if x:\n        raise RuntimeError("
                       "'minor ideal disagrees with its closed form')\n") == [
        "raise RuntimeError in f"]
    assert bare_raises("raise Exception\n") == ["raise Exception in <module>"]
    assert bare_raises("def g():\n    raise NonMonomialIdeal('x')\n") == []
    assert bare_raises("class E(RuntimeError):\n    pass\n") == []
    assert bare_raises("def h():\n    try:\n        pass\n    except ValueError:\n"
                       "        raise\n") == []
    for path in sorted(SRC.glob("*.py")):
        assert bare_raises(path.read_text()) == [], path.name


def grading_attachments(source: str) -> list[str]:
    """Where a module attaches a closed-form grading to a matrix: an assignment
    to `._built_grading`, or a `setattr` or `__setattr__` call naming it, named
    by the function it is in."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "_built_grading" for t in targets):
            found.append(f"attach in {where}")
        if (isinstance(node, ast.Call)
                and ((isinstance(node.func, ast.Name) and node.func.id == "setattr")
                     or (isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"))
                and any(isinstance(arg, ast.Constant) and arg.value == "_built_grading"
                        for arg in node.args)):
            found.append(f"attach in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_build_module_attaches_a_grading():
    # the equivalence test ties build_module's closed form to the walk; a
    # closed form attached anywhere else would serve the engines untested
    assert grading_attachments("def f(m):\n    object.__setattr__(m, '_built_grading', g)\n"
                               ) == ["attach in f"]
    assert grading_attachments("def g(m):\n    setattr(m, '_built_grading', 1)\n") == [
        "attach in g"]
    assert grading_attachments("m._built_grading = None\n") == ["attach in <module>"]
    assert grading_attachments("class P:\n    _built_grading: tuple = None\n") == []
    assert grading_attachments("def h(m):\n    return m._built_grading\n") == []
    found = {path.name: grading_attachments(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {
        "modmat.py": ["attach in build_module"]}


def code_only(source: str) -> str:
    """Python source with its comments and docstrings blanked, line numbers kept."""
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col] + "\n"
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            doc = body[0]
            for row in range(doc.lineno, doc.end_lineno + 1):
                lines[row - 1] = "\n"
            lines[doc.lineno - 1] = " " * doc.col_offset + "...\n"  # a body may be just its docstring
    return "".join(lines)


def fenced(markdown: str) -> str:
    """The fenced code blocks of a markdown text, without the prose around them."""
    return "".join(re.findall(r"^```[^\n]*\n(.*?)^```", markdown, re.M | re.S))


def unreferenced(modules: dict[str, str], elsewhere: str) -> list[str]:
    """Library names that no code outside the tests refers to, as `module.name` or
    `module.Class.method`.  A module-level function or class needs a `\\bname\\b`
    match other than on its own `def` or `class` line; a method other than a
    dunder needs a `\\.name\\b` match.  Matches are sought in the code of every
    source of `modules`, with comments and docstrings blanked, and in
    `elsewhere`."""
    modules = {stem: code_only(source) for stem, source in modules.items()}
    corpus = "\n".join([*modules.values(), elsewhere])
    found = []
    for stem, source in modules.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if len(word.findall(corpus)) == len(word.findall(lines[node.lineno - 1])):
                found.append(f"{stem}.{node.name}")
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not re.search(rf"\.{item.name}\b", corpus)):
                    found.append(f"{stem}.{node.name}.{item.name}")
    return found


def test_library_code_has_a_caller_outside_tests():
    # code that no engine, script, benchmark or README example calls leaves the
    # library, and test oracles live in tests/conftest.py; prose naming it is no call
    assert unreferenced({"m": "def f():\n    return 1\n"}, "") == ["m.f"]
    assert unreferenced({"m": "def f():\n    return 1\n"}, "m.f()") == []
    assert unreferenced({"m": "def f():\n    return 1\n", "n": "x = f()\n"}, "") == []
    assert unreferenced({"m": "def f():\n    return 1\n"}, "f_power()") == ["m.f"]
    assert unreferenced({"m": "class C:\n    def g(self):\n        pass\n"}, "C()") == ["m.C.g"]
    assert unreferenced({"m": "class C:\n    def g(self):\n        pass\n"}, "C().g()") == []
    assert unreferenced({"m": "class C:\n    def g(self):\n        pass\n"}, "C(); g()") == [
        "m.C.g"]
    assert unreferenced({"m": "class C:\n    def __eq__(self, o):\n        pass\n"}, "C") == []
    prose = '"""Uses f."""\n\n\ndef g():\n    """f and C.h"""\n    return 2  # f()\n'
    assert unreferenced({"m": "def f():\n    return 1\n", "n": prose}, "") == ["m.f", "n.g"]
    assert unreferenced({"m": "def f():\n    return 1\n", "n": "x = 'f'  # f\n"}, "") == []
    assert fenced("Call f.\n```python\nf()\n```\nor g.\n```\nh()\n```\n") == "f()\nh()\n"
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    scripts = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    elsewhere = [fenced((ROOT / "README.md").read_text()),
                 *(code_only(path.read_text()) for path in scripts)]
    assert unreferenced(modules, "\n".join(elsewhere)) == []
