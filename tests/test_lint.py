"""Source rules that a reader of one module cannot see at a glance."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rotaperm"


def test_no_bare_assert_in_the_package():
    """Invariants raise typed errors (rotaperm.errors): `python -O` strips
    an assert statement, and the check with it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert list(SRC.rglob("*.py"))
    assert found == []
