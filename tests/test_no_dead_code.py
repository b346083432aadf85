"""Every definition in the library is used by the library.

Each top-level function or class under `src/wittcert`, and each method
that is not a dunder, must be referenced in `src/wittcert` outside its own
body: as a name, as an attribute or as an import alias.  An export in
`__init__.py` does not count.  The names that only the bench or the tests
reach are listed below, each with its reason, and the list must match the
check exactly: an entry that becomes referenced, or disappears, fails too.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "wittcert").glob("*.py"))

UNREFERENCED = {
    "polyring.py:Polynomial.substitute": "called by bench/workloads.py (eliminate's coordinate scaling)",
    "vanish.py:certify_tuple_vanishing": "called by bench/workloads.py (the eliminate workload)",
    "wittvec.py:IntegerCoefficients.from_int": "called by bench/workloads.py and bench/test_bench.py",
    "wittvec.py:PresentedCoefficients.from_int": "called by bench/workloads.py and bench/test_bench.py",
    "wittvec.py:build_witt_table": "the bench's witt setup, and the tests' oracle",
    "polyring.py:eliminate": "traced by name in bench/tracing.py",
    "polyring.py:pth_root_ideal": "traced by name in bench/tracing.py",
    "modarith.py:solve_linear": "traced by name in bench/tracing.py",
    "dieudonne.py:DieudonneModel.op_matrix": "traced by name in bench/tracing.py",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each top-level def
    or class and each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name):
                        yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name, attribute and import alias in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
            if node.asname:
                yield node.asname, node.lineno


def unreferenced(modules: dict[str, str]) -> list[str]:
    """`file:qualified name` of each definition in `modules` (file name to
    source) that no module other than `__init__.py` references outside the
    definition's own body."""
    trees = {name: ast.parse(source, filename=name) for name, source in modules.items()}
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        if name != "__init__.py":
            for used, line in _references(tree):
                uses.setdefault(used, []).append((name, line))
    found = []
    for name, tree in trees.items():
        for qualified, defined, first, last in _definitions(tree):
            if not any(where != name or not first <= line <= last for where, line in uses.get(defined, ())):
                found.append(f"{name}:{qualified}")
    return sorted(found)


def test_every_library_definition_is_referenced_or_listed():
    found = unreferenced({path.name: path.read_text(encoding="utf-8") for path in SOURCES})
    assert found == sorted(UNREFERENCED)


def test_the_check_flags_an_unreferenced_function_and_method():
    modules = {
        "__init__.py": "from .a import exported, Kept\n",
        "a.py": "\n".join([
            "def used():",
            "    return 1",
            "def exported():",
            "    return exported()",
            "class Kept:",
            "    def spare(self):",
            "        return self.spare()",
            "    def called(self):",
            "        return used()",
            "    def __repr__(self):",
            "        return ''",
            "",
        ]),
        "b.py": "from .a import Kept\nKept().called()\n",
    }
    assert unreferenced(modules) == ["a.py:Kept.spare", "a.py:exported"]
