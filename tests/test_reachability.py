"""Every function, class, method and keyword option in ``src/`` is reached,
and every datum it writes is read.

Tier-1 gate: ``src/`` holds only code that something other than a test
reaches, only data that something other than a test reads, and only
options that something sets.  The analysis is a name-matching fixpoint
over the AST, one walk per file; it lives here because a ``src/`` helper
reached only by this test would flag itself.

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
  ``__all__`` or a ``__slots__``.
* **Fixpoint:** a unit is reached when its name is referenced by a root or
  by a reached unit.  A class unit's references are those of its body
  without its method units.  Matching is by bare name, so a name defined
  twice is kept if either use is reached: the scan errs toward keeping code.
* **Data** are each ``@dataclass`` field of ``src/repro/``, each attribute
  a method of a ``src/`` class assigns on ``self`` (``self.x = ...``,
  ``self.x += ...``), and each name a ``src/`` module or class body binds by
  assignment.  Dunder names are Python's to read.  Enum members (values of
  an input domain), ``NamedTuple`` fields (unpacking reads them by
  position) and the ``visit_*`` aliases of an ``ast.NodeVisitor`` are
  exempt.
* **A read** is a ``Name`` or an ``Attribute`` in ``Load`` context, or an
  identifier-shaped string (``getattr``, a ``**`` dict), in a root or a
  reached unit.  A store is not a read, and neither is a keyword argument
  (``C(x=1)``, ``replace(c, x=1)``), an import, or the strings of an
  ``__all__`` or a ``__slots__``.  A class whose reached method reflects
  over ``self`` (``asdict(self)``, ``fields(self)``, ``vars(self)``,
  ``self.__dict__``) reads every field and ``self`` attribute it has.  A
  datum is read when its bare name is: as for units, the scan errs toward
  keeping data.
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
from typing import NamedTuple

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
_BLOCK_NODES = (ast.If, ast.Try, ast.With)
_NAME_LISTS = ("__all__", "__slots__")
_REFLECTORS = frozenset({"asdict", "astuple", "fields", "vars"})
_MEMBER_BASES = frozenset(
    {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "NamedTuple"}
)
CLI = "repro/cli.py"


def _is_name_list(node: ast.AST) -> bool:
    """An ``__all__`` or ``__slots__`` assignment."""
    if not isinstance(node, _ASSIGN_NODES):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id in _NAME_LISTS for t in targets)


def _walk(nodes, *, package_init: bool = False):
    """Every node under ``nodes`` but docstrings, ``__all__``, ``__slots__``
    and, in a package ``__init__``, imports."""
    skipped = (ast.Import, ast.ImportFrom) if package_init else ()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt) and (
            isinstance(node, skipped) or _is_name_list(node)
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


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _name_of(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


class Facts(NamedTuple):
    """What one walk over some AST subtrees finds."""

    refs: set[str]
    reads: set[str]
    self_stores: set[str]
    reflects: bool


def facts(nodes, *, package_init: bool = False) -> Facts:
    """The references and reads of ``nodes``, the attributes they assign on
    ``self``, and whether they reflect over ``self``, per the rules above."""
    refs: set[str] = set()
    reads: set[str] = set()
    stores: set[str] = set()
    reflects = False
    for node in _walk(nodes, package_init=package_init):
        if isinstance(node, ast.Name):
            refs.add(node.id)
            if isinstance(node.ctx, ast.Load):
                reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
                reflects |= node.attr == "__dict__" and _is_self(node.value)
            elif _is_self(node.value):
                stores.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
            if node.asname:
                refs.add(node.asname)
        elif isinstance(node, ast.keyword) and node.arg:
            refs.add(node.arg)
        elif isinstance(node, ast.Call):
            reflects |= _name_of(node.func) in _REFLECTORS and any(
                _is_self(arg) for arg in node.args[:1]
            )
        elif _ident_string(node):
            refs.add(node.value)
            reads.add(node.value)
    return Facts(refs, reads, stores, reflects)


def references(nodes, *, package_init: bool = False) -> set[str]:
    """Identifiers ``nodes`` (AST subtrees) reference, per the rules above."""
    return facts(nodes, package_init=package_init).refs


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
    return name.startswith("visit_") and "NodeVisitor" in _base_names(cls)


def _base_names(cls: ast.ClassDef) -> set[str]:
    return {_name_of(base) for base in cls.bases}


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


def _bound(stmts):
    """Names that ``stmts`` bind by assignment, through ``if``/``try``/``with``
    blocks, with each binding statement."""
    for stmt in stmts:
        if isinstance(stmt, _BLOCK_NODES):
            yield from _bound([
                *stmt.body, *getattr(stmt, "orelse", ()),
                *getattr(stmt, "finalbody", ()),
                *(s for h in getattr(stmt, "handlers", ()) for s in h.body),
            ])
        elif isinstance(stmt, _ASSIGN_NODES):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        yield node.id, stmt


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def data_of(rel: str, module: ast.Module):
    """``(where, name, owner)`` for each name the module or one of its
    classes binds by assignment.  ``owner`` is ``(rel, class)`` for a
    dataclass field, which reflection over ``self`` reads, else None."""
    for name, _ in _bound(module.body):
        if not _is_dunder(name):
            yield f"{rel}:{name}", name, None
    for cls in module.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = _base_names(cls)
        if bases & _MEMBER_BASES:
            continue
        dataclass = any(
            _name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in cls.decorator_list
        )
        for name, stmt in _bound(cls.body):
            if _is_dunder(name) or (
                name.startswith("visit_") and "NodeVisitor" in bases
            ):
                continue
            field = dataclass and isinstance(stmt, ast.AnnAssign) and (
                "ClassVar" not in ast.unparse(stmt.annotation)
            )
            yield f"{rel}:{cls.name}.{name}", name, (rel, cls.name) if field else None


def analyse(modules, roots) -> tuple[list[str], list[str]]:
    """``(unreached, unread)``: ``module:label`` of every unit and every
    datum of ``modules`` (``(rel, tree)`` pairs) that ``roots`` (trees, with
    each module's own module-level statements) neither reach nor read,
    sorted.  Each tree is walked once."""
    units: dict[str, list[tuple[str, tuple, Facts]]] = {}
    data = []
    root_facts = [facts([tree]) for tree in roots]
    for rel, tree in modules:
        data.extend(data_of(rel, tree))
        module_level = [s for s in tree.body if not isinstance(s, _UNIT_NODES)]
        root_facts.append(facts(
            [ast.Module(body=module_level, type_ignores=[])],
            package_init=rel.endswith("__init__.py"),
        ))
        for label, name, node in units_of(tree):
            in_class = "." in label or isinstance(node, ast.ClassDef)
            cls = label.partition(".")[0]
            owner = (rel, cls) if in_class else None
            unit = facts([node])
            if owner:
                data.extend(
                    (f"{rel}:{cls}.{attr}", attr, owner) for attr in unit.self_stores
                )
            if rel == CLI:
                root_facts.append(unit)
            else:
                units.setdefault(name, []).append((f"{rel}:{label}", owner, unit))

    reached = set().union(*(f.refs for f in root_facts))
    frontier = set(reached)
    while frontier:
        for _, _, unit in units.get(frontier.pop(), ()):
            new = unit.refs - reached
            reached |= new
            frontier |= new
    reads = set().union(*(f.reads for f in root_facts))
    reflecting = set()
    for name in reached:
        for _, owner, unit in units.get(name, ()):
            reads |= unit.reads
            if unit.reflects:
                reflecting.add(owner)
    unreached = sorted(
        where for name, defs in units.items() if name not in reached
        for where, _, _ in defs
    )
    unread = sorted({
        where for where, name, owner in data
        if name not in reads and (owner is None or owner not in reflecting)
    })
    return unreached, unread


@functools.cache
def _analysis() -> tuple[list[str], list[str]]:
    modules = [(rel, _parse(path)) for rel, path in _src_modules()]
    roots = [
        _parse(path) for top in ROOT_DIRS
        for path in sorted((REPO / top).rglob("*.py"))
    ]
    return analyse(modules, [*roots, *doc_blocks()])


def scan() -> list[str]:
    """``module:label`` of every unit no root reaches, sorted."""
    return _analysis()[0]


def unread_data() -> list[str]:
    """``module:Class.name`` or ``module:NAME`` of every datum no root
    reads, sorted."""
    return _analysis()[1]


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


def test_every_datum_is_read():
    unread = unread_data()
    assert not unread, (
        f"{len(unread)} field(s), attribute(s) or constant(s) in src/ are"
        " written but read only by tests or by nothing; delete each with"
        " what computes only it, or move a test oracle under tests/:\n  "
        + "\n  ".join(unread)
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


def test_data_follows_the_rules():
    def unread(source: str, root: str, init: str = "") -> list[str]:
        modules = [("m.py", ast.parse(source))]
        if init:
            modules.append(("pkg/__init__.py", ast.parse(init)))
        return analyse(modules, [ast.parse(root)])[1]

    counter = (
        "class C:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    def bump(self):\n        self.n += 1\n"
    )
    assert unread(counter, "C().bump()") == ["m.py:C.n"]
    assert unread(counter, "c = C(); c.bump(); print(c.n)") == []

    record = "@dataclass\nclass D:\n    x: int = 0\n"
    assert unread(record, "d = replace(D(x=1), x=2)") == ["m.py:D.x"]
    assert unread(record, "getattr(D(), 'x')") == []

    reflecting = (
        "@dataclass\nclass R:\n    a: int = 0\n"
        "    def row(self):\n        return asdict(self)\n"
        "class S:\n    def __init__(self):\n        self.b = 1\n"
        "    def dump(self):\n        return dict(self.__dict__)\n"
    )
    assert unread(reflecting, "R().row(); S().dump()") == []
    # only a reached method's reflection reads the fields
    assert unread(reflecting, "R(); S()") == ["m.py:R.a", "m.py:S.b"]

    exempt = (
        "class Kind(enum.Enum):\n    A = 1\n"
        "class P(NamedTuple):\n    x: int\n"
        "class V(ast.NodeVisitor):\n"
        "    def visit_Name(self, node):\n        pass\n"
        "    visit_Attribute = visit_Name\n"
    )
    assert unread(exempt, "Kind; P; V") == []

    listed = (
        "__all__ = ['LIMIT']\nLIMIT = 3\n"
        "class Q:\n    __slots__ = ('y',)\n"
        "    def __init__(self):\n        self.y = 1\n"
    )
    assert unread(listed, "Q()", init="from m import LIMIT") == [
        "m.py:LIMIT", "m.py:Q.y",
    ]
    assert unread(listed, "print(Q().y, LIMIT)") == []
