"""The library states its internal-defect checks as explicit raises.

`python -O` strips every `assert` statement, so a check written as one
would silently stop running; this test fails on any `assert` under
`src/wittcert`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "wittcert").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_library_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"
