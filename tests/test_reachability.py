"""Every module-level function and class in ``src/`` is reached by real code.

Tier-1 gate: ``src/`` holds only code that something other than a test
reaches.  The analysis is a name-matching fixpoint over the AST; it lives
here because a ``src/`` helper reached only by this test would flag itself.

Rules:

* **Units** are the module-level ``def``/``async def``/``class`` statements
  of every module under ``src/repro/``, public and private.  A reached
  class keeps all of its methods.
* **Roots** are every ``.py`` under ``benchmarks/``, ``examples/`` and
  ``tools/``; ``src/repro/cli.py`` in full; the module-level statements
  (everything but the units) of each ``src/`` module; and the fenced
  ``python`` blocks of ``README.md``, ``examples/README.md`` and
  ``docs/*.md`` except the generated ``docs/api.md``.  ``tests/`` is not
  a root.
* **A reference** is an identifier: a ``Name``, an ``Attribute``'s attribute,
  an import's name or alias, a keyword argument's name, or a string constant
  shaped like an identifier (``getattr`` dispatch).  Docstrings and comments
  are not references.  Neither are the ``import`` statements of a package
  ``__init__`` (re-exports) nor the strings of an ``__all__``.
* **Fixpoint:** a unit is reached when its name is referenced by a root or
  by a reached unit.  Matching is by bare name, so a name defined twice is
  kept if either use is reached: the scan errs toward keeping code.
* There is no allowlist.  A fixture only tests need lives under ``tests/``.
"""

from __future__ import annotations

import ast
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
_UNIT_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOC_OWNERS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all_assign(node: ast.AST) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def references(nodes, *, package_init: bool = False) -> set[str]:
    """Identifiers ``nodes`` (AST subtrees) reference, per the rules above."""
    refs: set[str] = set()
    docstrings: set[ast.AST] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node in docstrings or _is_all_assign(node):
            continue
        if package_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node) is not None:
            docstrings.add(node.body[0])
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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENT.match(node.value):
                refs.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def doc_blocks() -> list[ast.Module]:
    """The parsed fenced ``python`` blocks of the documentation roots."""
    blocks = []
    for pattern in DOC_FILES:
        for path in sorted(REPO.glob(pattern)):
            if str(path.relative_to(REPO)) in GENERATED_DOCS:
                continue
            for match in _FENCE.finditer(path.read_text(encoding="utf-8")):
                blocks.append(ast.parse(match.group(1), filename=str(path)))
    return blocks


def scan() -> list[str]:
    """``module:name`` of every unit no root reaches, sorted."""
    units: dict[str, list[tuple[str, ast.AST]]] = {}
    reached: set[str] = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = _parse(path)
        rel = str(path.relative_to(SRC))
        if rel == "repro/cli.py":
            reached |= references([tree])
            continue
        for stmt in tree.body:
            if isinstance(stmt, _UNIT_NODES):
                units.setdefault(stmt.name, []).append((rel, stmt))
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
        f"{rel}:{name}"
        for name, defs in units.items() if name not in reached
        for rel, _ in defs
    )


def test_every_src_unit_is_reached():
    unreached = scan()
    assert not unreached, (
        f"{len(unreached)} module-level name(s) in src/ are reached only by"
        " tests or by nothing; delete each, or move a fixture tests need"
        " under tests/:\n  " + "\n  ".join(unreached)
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
