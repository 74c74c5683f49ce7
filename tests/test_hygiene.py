"""Static guards on src/dglevels.

Use is counted only where the package is really called: in the package
itself, whose ``__init__`` imports are the public roots, in the benchmark, and
in the spec suites (the paper's acceptance criteria and the two pin suites).
A name that only other tests call counts as dead.

Dead definitions: every function or method defined in the package is named
somewhere besides its own definition.  Dunder methods are exempt.  A
reference inside the function's own body (recursion) does not count.

Unused options: every parameter with a default, of a function or method
defined in the package, is passed by some call to a callee of that name, by
keyword or by position; a call of ``ClassName(...)`` counts for
``ClassName.__init__``, and a call that spreads ``*args`` or ``**kwargs``
counts as passing every parameter.

Relied-on field defaults: every dataclass field with a default is omitted by
some ``ClassName(...)`` call, so the default is not restated at each call.

Unread parameters: every parameter of a package function, ``self`` aside, is
read in its body.  A function its file passes as a call argument is a callback
whose signature the callee fixes (the ``assemble`` column rules, the argparse
handlers), so it is exempt.

Public roots: ``dglevels/__init__.py`` imports exactly the names in
``__all__``, so a stale import cannot keep dead code alive.

Scalar arithmetic: scalars are Python numbers, so ``FieldTag`` defines no
``add``/``sub``/``neg``/``mul`` and no package file calls them on a field, a
line no test reaches included.

Read CLI options: every option a subcommand declares in ``cli.build_parser``
is read by its handler, directly or through a ``cli`` function the handler
passes its ``args`` to (such as ``_window`` or ``_report``).

One unchecked construction: ``__new__`` makes an object without running
``__init__``, so a module made that way skips the constructor's checks.  Only
``module.block_sum``, whose parts are checked modules, does so, and it builds
both forms of a free module that way: a ``DGModulePresentation``, and a
``spheres.SphereModule`` when every part is one over the same H*(S^d) and
field.  A subclass of ``DGModulePresentation`` with its own ``__init__``
skips them as well; the one such class is ``SphereModule``, whose
``__init__`` runs its block check ``_check`` in their place.

One place for the resolution rules: inside the package only
``resolve._resolve`` calls the bar builder ``_bar`` and the Koszul builder
``_koszul``, so which resolution a Tor gets, and none for a zero factor, is
decided there alone; the public builders ``bar_resolution``,
``koszul_resolution_sphere`` and ``koszul_resolution_poly`` are the one other
caller of each, and nothing in the package calls them.

Nothing kept between calls: ``resolve.py`` binds its module-level names to
constants only and caches no function, so every Tor builds and checks what
it reads, and no call can change a later one.

One reach rule: inside ``resolve.py`` only ``tensor_reach`` builds a
``DegreeWindow`` or reads ``default_window()``, so the cap, the expansion
windows and the listed degrees of a derived tensor come from that one
function.

One storage for a complex: ``graded.CochainComplex`` defines no
``differential`` or ``matrix`` and sets no such attribute, so its maps live
only in the sparse columns ``cols``; no dense view is built or kept.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dglevels").glob("*.py"))
SPEC_SUITES = [ROOT / "tests" / name for name in
               ("test_acceptance.py", "test_layout.py", "test_answers.py")]
FILES = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + SPEC_SUITES


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


def defaulted_parameters(path):
    """(callee name, parameter, position or None, where) for each parameter
    with a default; the position counts the call's arguments, so ``self`` is
    skipped on methods other than static methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [(None, tree.body)] + [(n.name, n.body) for n in ast.walk(tree)
                                     if isinstance(n, ast.ClassDef)]
    for cls, body in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("__") and node.name != "__init__":
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls and not static else 0
            callee = cls if node.name == "__init__" else node.name
            where = f"{path.name}:{node.lineno} {node.name}"
            args = node.args.posonlyargs + node.args.args
            for k in range(len(args) - len(node.args.defaults), len(args)):
                yield callee, args[k].arg, k - skip, where
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield callee, arg.arg, None, where


def passes(call, param, position):
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def calls_by_name():
    """Every call in FILES, keyed by the called name or attribute."""
    calls = {}
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_option_is_passed_somewhere():
    calls = calls_by_name()
    unused = [f"{where}({param})" for path in PACKAGE
              for callee, param, position, where in defaulted_parameters(path)
              if not any(passes(c, param, position) for c in calls.get(callee, ()))]
    assert unused == []


def is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass" or
               isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def defaulted_fields(path):
    """(class name, field, position, where) for each dataclass field with a
    default."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for k, f in enumerate(fields):
                if f.value is not None:
                    yield node.name, f.target.id, k, f"{path.name}:{f.lineno} {node.name}"


def test_every_field_default_is_relied_on():
    # function parameters stay out: their ``x or default`` fallbacks are
    # relied on through an explicit None, which no static check sees
    calls = calls_by_name()
    unused = [f"{where}.{field}" for path in PACKAGE
              for cls, field, position, where in defaulted_fields(path)
              if all(passes(c, field, position) for c in calls.get(cls, ()))]
    assert unused == []


def test_init_imports_exactly_all():
    tree = ast.parse((ROOT / "src" / "dglevels" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    assert sorted(imported) == sorted(exported)


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



def callbacks(tree):
    """Functions of the file that it passes as a call argument, by name or as
    an attribute: callbacks whose signature the callee fixes, such as the
    column rules ``graded.assemble`` takes."""
    passed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for a in [*node.args, *(k.value for k in node.keywords)]:
                if isinstance(a, ast.Name):
                    passed.add(a.id)
                elif isinstance(a, ast.Attribute):
                    passed.add(a.attr)
    return passed


def test_every_parameter_is_read():
    unread = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = callbacks(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                    node.name in exempt:
                continue
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            unread += [f"{path.stem}.{node.name}({p.arg})" for p in params
                       if p is not None and p.arg != "self" and p.arg not in read]
    assert unread == []


def declared_options(build):
    """(subcommand, option dest, handler name) for every option a subparser
    declares in ``build_parser``; a mutually exclusive group belongs to its
    parser."""
    parsers, handlers, options = {}, {}, []
    for stmt in build.body:
        call = stmt.value if isinstance(stmt, (ast.Assign, ast.Expr)) else None
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            continue
        owner, method = getattr(call.func.value, "id", None), call.func.attr
        if isinstance(stmt, ast.Assign) and method == "add_parser":
            parsers[stmt.targets[0].id] = call.args[0].value
        elif isinstance(stmt, ast.Assign) and owner in parsers:
            parsers[stmt.targets[0].id] = parsers[owner]
        elif method == "add_argument" and owner in parsers:
            dest = [k.value.value for k in call.keywords if k.arg == "dest"] or \
                [a.value.lstrip("-").replace("-", "_") for a in call.args]
            options.append((parsers[owner], dest[0]))
        elif method == "set_defaults" and owner in parsers:
            handlers[parsers[owner]] = next(k.value.id for k in call.keywords if k.arg == "func")
    return [(sub, dest, handlers[sub]) for sub, dest in options]


def attributes_read(fn, param, functions, seen):
    """The attributes of ``param`` that ``fn`` reads, by ``param.name`` or
    ``getattr(param, "name")``, and through every ``cli`` function that ``fn``
    passes ``param`` to."""
    if (fn.name, param) in seen:
        return set()
    seen.add((fn.name, param))
    read = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and \
                getattr(node.value, "id", None) == param:
            read.add(node.attr)
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        passed = [(i, None) for i, a in enumerate(node.args) if getattr(a, "id", None) == param]
        passed += [(None, k.arg) for k in node.keywords if getattr(k.value, "id", None) == param]
        if node.func.id == "getattr" and passed == [(0, None)]:
            read.add(node.args[1].value)
        elif node.func.id in functions:
            callee = functions[node.func.id]
            names = [a.arg for a in callee.args.args]
            for i, kw in passed:
                read |= attributes_read(callee, kw or names[i], functions, seen)
    return read


def test_every_cli_option_is_read():
    tree = ast.parse((ROOT / "src" / "dglevels" / "cli.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    options = declared_options(functions["build_parser"])
    assert len(options) > 30
    unread = [f"{sub} --{dest}" for sub, dest, handler in options
              if dest not in attributes_read(functions[handler],
                                             functions[handler].args.args[0].arg,
                                             functions, set())]
    assert unread == []


def package_nodes():
    """(file name, innermost enclosing function name or None, node) for every
    AST node of the package."""
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth first, so a nested function overwrites its parent
        owner = {id(n): fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(fn)}
        for n in ast.walk(tree):
            yield path.name, owner.get(id(n)), n


def test_block_sum_is_the_only_construction_past_init():
    uses = [f"{name} {fn}" for name, fn, n in package_nodes()
            if getattr(n, "attr", None) == "__new__" or
            isinstance(n, ast.Constant) and n.value == "__new__"]
    assert uses == ["module.py block_sum"]
    classes = {n.name: n for _, _, n in package_nodes() if isinstance(n, ast.ClassDef)}
    derived = {"DGModulePresentation"}
    while more := {name for name, c in classes.items() if name not in derived and
                   any(getattr(b, "id", getattr(b, "attr", None)) in derived for b in c.bases)}:
        derived |= more
    assert derived == {"DGModulePresentation", "SphereModule"}
    init = next(f for f in classes["SphereModule"].body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    assert any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_check"
               for n in ast.walk(init))


def test_only_resolve_picks_a_resolution():
    callers = Counter(f"{name} {fn}" for name, fn, n in package_nodes()
                      if isinstance(n, ast.Call) and
                      getattr(n.func, "id", getattr(n.func, "attr", None))
                      in ("bar_resolution", "_bar", "_koszul", "koszul_resolution_sphere",
                          "koszul_resolution_poly"))
    assert callers == {"resolve.py _resolve": 3, "resolve.py bar_resolution": 1,
                       "resolve.py koszul_resolution_sphere": 1,
                       "resolve.py koszul_resolution_poly": 1}


def test_resolve_keeps_nothing_between_calls():
    # resolutions and spectral-sequence pages: module-level names are bound
    # to constants only and no function caches, so a repeated query in one
    # process pays what its first call paid
    for name, constants in (("resolve.py", 5), ("emss.py", 0)):
        tree = ast.parse((ROOT / "src" / "dglevels" / name).read_text(encoding="utf-8"))
        bound = [n.value for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))]
        assert len(bound) >= constants and all(isinstance(v, ast.Constant) for v in bound), name
        cached = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                  for dec in n.decorator_list
                  if getattr(dec, "id", getattr(dec, "attr", None)) in ("cache", "lru_cache")
                  or getattr(getattr(dec, "func", None), "id", None) == "lru_cache"]
        assert cached == [], name


def test_only_tensor_reach_derives_a_window():
    uses = Counter(fn for name, fn, n in package_nodes()
                   if name == "resolve.py" and isinstance(n, ast.Call) and
                   getattr(n.func, "id", getattr(n.func, "attr", None))
                   in ("DegreeWindow", "default_window"))
    assert uses == {"tensor_reach": 3}


def test_a_complex_keeps_its_maps_only_as_columns():
    tree = ast.parse((ROOT / "src" / "dglevels" / "graded.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CochainComplex"]
    defined = {n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    defined |= {t.id for n in cls.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in getattr(n, "targets", [getattr(n, "target", None)])
                if isinstance(t, ast.Name)}
    defined |= {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"}
    assert "cols" in defined and not defined & {"differential", "matrix"}
