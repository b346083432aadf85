"""The library reads nothing that varies between runs of the same input.

The CLI promises byte-identical output for the same flags: nothing consults
time, the environment or the interpreter's integer-digit setting
(`sys.get_int_max_str_digits`, which `PYTHONINTMAXSTRDIGITS` changes).  This
test fails on any use of those under `src/wittcert`: a reference to
`get_int_max_str_digits` (by name, attribute or `getattr` string), a read of
`os.environ` or `os.getenv`, or an import of `time` or `datetime`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "wittcert").glob("*.py"))
CLOCK_MODULES = {"time", "datetime"}
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _outside_state(tree: ast.AST):
    """(line, what) for each node of `tree` that reads outside state."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in CLOCK_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            if node.level == 0 and module in CLOCK_MODULES:
                yield node.lineno, f"from {node.module} import"
            if node.level == 0 and module == "os" and any(a.name in ENVIRONMENT_NAMES for a in node.names):
                yield node.lineno, "from os import of the environment"
        elif isinstance(node, ast.Attribute):
            if node.attr == "get_int_max_str_digits":
                yield node.lineno, "sys.get_int_max_str_digits"
            elif node.attr in ENVIRONMENT_NAMES and isinstance(node.value, ast.Name) and node.value.id == "os":
                yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.Name) and node.id == "get_int_max_str_digits":
            yield node.lineno, "get_int_max_str_digits"
        elif isinstance(node, ast.Constant) and node.value == "get_int_max_str_digits":
            yield node.lineno, "getattr of get_int_max_str_digits"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_library_reads_no_clock_environment_or_digit_setting(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = sorted(_outside_state(tree))
    assert found == [], f"{path.name}: {found}"


def test_the_check_sees_each_kind_of_outside_read():
    source = "\n".join([
        "import time",
        "from datetime import date",
        "import os",
        "os.environ['X']",
        "os.getenv('X')",
        "from os import environ",
        "import sys",
        "sys.get_int_max_str_digits()",
        "getattr(sys, 'get_int_max_str_digits', lambda: 0)()",
    ])
    assert [line for line, _ in sorted(_outside_state(ast.parse(source)))] == [1, 2, 4, 5, 6, 8, 9]
