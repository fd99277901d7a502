"""``python -O`` strips ``assert`` statements, so no check in the package may be one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eprlink"


def _assert_lines(source: str):
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_guard_flags_an_assert_statement():
    snippet = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert _assert_lines(snippet) == [3]
    # A raised exception, and the word in a string or a comment, are not flagged.
    assert _assert_lines("if not x > 0:\n    raise ValueError('assert x')  # assert x\n") == []


def test_no_assert_statement_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files for line in _assert_lines(path.read_text())]
    assert not found, "raise an exception instead of asserting: " + ", ".join(found)
