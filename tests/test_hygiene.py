"""Static guards on src/dglevels.

Dead definitions: every function or method defined in the package is named
somewhere besides its own definition, in the package, its tests or its
benchmark.  Dunder methods are exempt.  A reference inside the function's own
body (recursion) does not count.

Scalar arithmetic: scalars are Python numbers, so ``FieldTag`` defines no
``add``/``sub``/``neg``/``mul`` and no package file calls them on a field, a
line no test reaches included.
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


FIELD_ARITHMETIC = {"add", "sub", "neg", "mul"}
# the names the package gives a FieldTag; any ``<expr>.field`` is one too
FIELD_NAMES = {"f", "field", "fld", "QQ", "GF2", "GF3", "GF5"}


def is_field(node):
    if isinstance(node, ast.Name):
        return node.id in FIELD_NAMES
    return isinstance(node, ast.Attribute) and node.attr == "field"


def test_field_tag_has_no_per_entry_arithmetic():
    tree = ast.parse((ROOT / "src" / "dglevels" / "field.py").read_text(encoding="utf-8"))
    (tag,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FieldTag"]
    methods = {n.name for n in tag.body if isinstance(n, ast.FunctionDef)}
    assert "reduce" in methods and not methods & FIELD_ARITHMETIC
    calls = [f"{path.name}:{node.lineno}" for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in FIELD_ARITHMETIC and is_field(node.func.value)]
    assert calls == []
