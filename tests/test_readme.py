import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    text = README.read_text().split("## Library quick start", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_prints_what_it_says():
    code = quick_start()
    namespace: dict = {}
    exec(code, namespace)
    checked = []
    for line in code.splitlines():
        expr, _hash, comment = line.partition("#")
        if not expr.strip():
            continue
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):  # prose, such as "certified 37"
            continue
        assert eval(expr, namespace) == expected, line
        checked.append(expr.strip())
    # includes the ungraded matrix that mu_module's truncation branch serves
    assert "ic.colength_module(cut), ic.mu_module(cut)" in checked
    assert len(checked) == 8
