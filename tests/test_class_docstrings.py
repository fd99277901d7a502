"""Every class in the package says what it is.

On Python 3.11 a dataclass without a docstring also gets one built from
``inspect.signature`` when the module is imported, which adds to every
process's setup time.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eprlink"


def _undocumented_classes(source: str):
    """Names of the classes in ``source`` that have no docstring."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
    ]


def test_the_guard_flags_a_class_without_a_docstring():
    snippet = (
        "class Told:\n    '''Says what it is.'''\n\n"
        "class Bare:\n    KIND = 'x'\n\n"
        "def f():\n    class Inner:\n        pass\n"
    )
    assert _undocumented_classes(snippet) == ["Bare", "Inner"]
    # A comment or a string that is not the body's first statement is no docstring.
    assert _undocumented_classes("class A:\n    # note\n    x = 1\n    'late'\n") == ["A"]


def test_every_class_in_the_package_has_a_docstring():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{name}" for path in files for name in _undocumented_classes(path.read_text())
    ]
    assert not found, "give each class a docstring: " + ", ".join(found)
