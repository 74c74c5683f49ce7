"""Dead-definition guard: every function or method defined in src/dglevels is
named somewhere besides its own definition, in the package, its tests or its
benchmark.  Dunder methods are exempt.  A reference inside the function's own
body (recursion) does not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dglevels").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


class References(ast.NodeVisitor):
    """Names, attributes, imported names and identifier strings, each counted
    unless it sits inside a function of that name."""

    def __init__(self):
        self.names = Counter()
        self.enclosing = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _name(self, name):
        if name not in self.enclosing:
            self.names[name] += 1

    def visit_Name(self, node):
        self._name(node.id)

    def visit_Attribute(self, node):
        self._name(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._name(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._name(node.value)


def definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_definition_is_named_elsewhere():
    refs = References()
    for path in FILES:
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    dead = [f"{path.name}:{line} {name}" for path in PACKAGE
            for name, line in definitions(path) if not refs.names[name]]
    assert dead == []
