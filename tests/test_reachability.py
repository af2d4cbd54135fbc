"""Every function, class, method and keyword option in ``src/`` is reached.

Tier-1 gate: ``src/`` holds only code that something other than a test
reaches, and only options that something sets.  The analysis is a
name-matching fixpoint over the AST; it lives here because a ``src/``
helper reached only by this test would flag itself.

Rules:

* **Units** are the module-level ``def``/``async def``/``class`` statements
  of every module under ``src/repro/``, public and private, and each
  ``def``/``async def`` directly in the body of a module-level class.  Two
  kinds of method stay part of their class instead of being units of their
  own: dunder methods, and the ``visit_*`` methods of an ``ast.NodeVisitor``
  subclass, which ``ast`` dispatches by string.
* **Roots** are every ``.py`` under ``benchmarks/``, ``examples/`` and
  ``tools/``; ``src/repro/cli.py`` in full; the module-level statements
  (everything but the units) of each ``src/`` module; and the fenced
  ``python`` blocks of ``README.md``, ``examples/README.md`` and
  ``docs/*.md`` except the generated ``docs/api.md``.  ``tests/`` is not
  a root.
* **A reference** is an identifier: a ``Name``, an ``Attribute``'s attribute
  (``obj.name``), an import's name or alias, a keyword argument's name, or
  a string constant shaped like an identifier (``getattr`` dispatch).
  Docstrings and comments are not references.  Neither are the ``import``
  statements of a package ``__init__`` (re-exports) nor the strings of an
  ``__all__``.
* **Fixpoint:** a unit is reached when its name is referenced by a root or
  by a reached unit.  A class unit's references are those of its body
  without its method units.  Matching is by bare name, so a name defined
  twice is kept if either use is reached: the scan errs toward keeping code.
* **Options** are the keyword-only parameters with a default of every
  function in ``src/repro/``.  An option is set when a call anywhere in
  ``src/``, ``tests/``, the roots' directories or the documentation blocks
  passes it by name, or when an identifier-shaped string there names it
  (a ``**`` dict).  Tests count here: a test override is how a test reaches
  a cap or an interval without running a million steps.  An option nothing
  sets is a constant.
* There is no allowlist.  A fixture only tests need lives under ``tests/``.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re

from repro.check.lint import default_src_root

SRC = pathlib.Path(default_src_root())
REPO = SRC.parent
ROOT_DIRS = ("benchmarks", "examples", "tools")
DOC_FILES = ("README.md", "examples/README.md", "docs/*.md")
GENERATED_DOCS = ("docs/api.md",)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_FENCE = re.compile(r"^```python[^\n]*\n(.*?)^```", re.M | re.S)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_UNIT_NODES = (*_FUNC_NODES, ast.ClassDef)
_DOC_OWNERS = (ast.Module, *_UNIT_NODES)
_ASSIGN_NODES = (ast.Assign, ast.AugAssign, ast.AnnAssign)
_BODY_NODES = (ast.stmt, ast.excepthandler, ast.match_case)


def _is_all_assign(node: ast.AST) -> bool:
    if not isinstance(node, _ASSIGN_NODES):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _walk(nodes, *, package_init: bool = False):
    """Every node under ``nodes`` but docstrings, ``__all__`` and, in a
    package ``__init__``, imports."""
    skipped = (ast.Import, ast.ImportFrom) if package_init else ()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt) and (
            isinstance(node, skipped) or _is_all_assign(node)
        ):
            continue
        yield node
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node) is not None:
            children = list(ast.iter_child_nodes(node))
            children.remove(node.body[0])
            stack.extend(children)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _ident_string(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant) and isinstance(node.value, str)
        and _IDENT.match(node.value) is not None
    )


def references(nodes, *, package_init: bool = False) -> set[str]:
    """Identifiers ``nodes`` (AST subtrees) reference, per the rules above."""
    refs: set[str] = set()
    for node in _walk(nodes, package_init=package_init):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
            if node.asname:
                refs.add(node.asname)
        elif isinstance(node, ast.keyword) and node.arg:
            refs.add(node.arg)
        elif _ident_string(node):
            refs.add(node.value)
    return refs


def option_settings(nodes) -> set[str]:
    """Names ``nodes`` pass as keyword arguments or spell as strings."""
    return {
        node.arg if isinstance(node, ast.keyword) else node.value
        for node in _walk(nodes)
        if (isinstance(node, ast.keyword) and node.arg) or _ident_string(node)
    }


@functools.cache
def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.cache
def doc_blocks() -> tuple[ast.Module, ...]:
    """The parsed fenced ``python`` blocks of the documentation roots."""
    blocks = []
    for pattern in DOC_FILES:
        for path in sorted(REPO.glob(pattern)):
            if str(path.relative_to(REPO)) in GENERATED_DOCS:
                continue
            for match in _FENCE.finditer(path.read_text(encoding="utf-8")):
                blocks.append(ast.parse(match.group(1), filename=str(path)))
    return tuple(blocks)


def _src_modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield str(path.relative_to(SRC)), path


def _stays_with_class(cls: ast.ClassDef, fn: ast.AST) -> bool:
    name = fn.name
    if name.startswith("__") and name.endswith("__"):
        return True
    return name.startswith("visit_") and any(
        (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", ""))
        == "NodeVisitor"
        for base in cls.bases
    )


def units_of(module: ast.Module):
    """``(label, name, node)`` for each unit of ``module``.  A class's node
    is its body without its method units."""
    for stmt in module.body:
        if not isinstance(stmt, _UNIT_NODES):
            continue
        if not isinstance(stmt, ast.ClassDef):
            yield stmt.name, stmt.name, stmt
            continue
        body = []
        for member in stmt.body:
            if isinstance(member, _FUNC_NODES) and not _stays_with_class(stmt, member):
                yield f"{stmt.name}.{member.name}", member.name, member
            else:
                body.append(member)
        shell = ast.ClassDef(
            name=stmt.name, bases=stmt.bases, keywords=stmt.keywords,
            body=body, decorator_list=stmt.decorator_list,
        )
        yield stmt.name, stmt.name, shell


def scan() -> list[str]:
    """``module:label`` of every unit no root reaches, sorted."""
    units: dict[str, list[tuple[str, ast.AST]]] = {}
    reached: set[str] = set()
    for rel, path in _src_modules():
        tree = _parse(path)
        if rel == "repro/cli.py":
            reached |= references([tree])
            continue
        for label, name, node in units_of(tree):
            units.setdefault(name, []).append((f"{rel}:{label}", node))
        module_level = [s for s in tree.body if not isinstance(s, _UNIT_NODES)]
        reached |= references(
            [ast.Module(body=module_level, type_ignores=[])],
            package_init=path.name == "__init__.py",
        )
    for top in ROOT_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            reached |= references([_parse(path)])
    reached |= references(doc_blocks())

    frontier = set(reached)
    while frontier:
        for _, node in units.get(frontier.pop(), ()):
            new = references([node]) - reached
            reached |= new
            frontier |= new
    return sorted(
        where for name, defs in units.items() if name not in reached
        for where, _ in defs
    )


def options_of(module: ast.Module):
    """``(qualname, option)`` for each keyword-only parameter with a default
    of every function in ``module``, nested ones included.  A ``def`` is a
    statement, so only statements are searched."""
    stack = [(stmt, "") for stmt in module.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, _FUNC_NODES):
            args = node.args
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{prefix}{node.name}", arg.arg
        if isinstance(node, _UNIT_NODES):
            prefix = f"{prefix}{node.name}."
        stack.extend(
            (child, prefix) for child in ast.iter_child_nodes(node)
            if isinstance(child, _BODY_NODES)
        )


def unset_options() -> list[str]:
    """``module:function(option=)`` of every option nothing sets, sorted."""
    settings = option_settings(doc_blocks())
    for top in ("src", "tests", *ROOT_DIRS):
        for path in sorted((REPO / top).rglob("*.py")):
            settings |= option_settings([_parse(path)])
    return sorted(
        f"{rel}:{qualname}({option}=)"
        for rel, path in _src_modules()
        for qualname, option in options_of(_parse(path))
        if option not in settings
    )


def test_every_src_unit_is_reached():
    unreached = scan()
    assert not unreached, (
        f"{len(unreached)} function(s), class(es) or method(s) in src/ are"
        " reached only by tests or by nothing; delete each, or move a"
        " fixture tests need under tests/:\n  " + "\n  ".join(unreached)
    )


def test_every_option_is_set():
    unset = unset_options()
    assert not unset, (
        f"{len(unset)} keyword option(s) in src/ are set by nothing, tests"
        " included; make each a constant:\n  " + "\n  ".join(unset)
    )


def test_references_follow_the_rules():
    def refs(source: str, package_init: bool = False) -> set[str]:
        return references([ast.parse(source)], package_init=package_init)

    assert refs('def f():\n    """Calls dead()."""\n    return g(1)\n') == {"g"}
    assert refs("x.attr_name") == {"x", "attr_name"}
    assert refs("f(key_word=1)") == {"f", "key_word"}
    assert refs("getattr(o, 'method_1')") == {"getattr", "o", "method_1"}
    assert refs("s = 'not an identifier'") == {"s"}
    assert refs("from m import y as z") == {"y", "z"}
    assert refs("from m import y", package_init=True) == set()
    assert refs("__all__ = ['exported']") == set()


def test_methods_and_options_follow_the_rules():
    def units(source: str) -> dict[str, set[str]]:
        return {
            label: references([node])
            for label, _, node in units_of(ast.parse(source))
        }

    source = (
        "class C(Base):\n"
        "    size = helper()\n"
        "    def __init__(self):\n        self.a = make()\n"
        "    @property\n    def width(self):\n        return self.a.w\n"
        "class V(ast.NodeVisitor):\n"
        "    def visit_Call(self, node):\n        return node\n"
        "    def report(self):\n        return []\n"
    )
    assert units(source) == {
        "C.width": {"property", "self", "a", "w"},
        "C": {"Base", "size", "helper", "self", "a", "make"},
        "V.report": set(),
        "V": {"ast", "NodeVisitor", "node"},
    }

    source = (
        "def f(a, *, cap=1, mode):\n"
        "    def inner(*, step=2):\n        return step\n"
        "class K:\n    def run(self, *, limit=None):\n        pass\n"
    )
    assert sorted(options_of(ast.parse(source))) == [
        ("K.run", "limit"), ("f", "cap"), ("f.inner", "step"),
    ]
    assert option_settings([ast.parse(
        'def t():\n    """run(limit=1)"""\n    f(cap=3, **{"step": 1})\n'
    )]) == {"cap", "step"}
