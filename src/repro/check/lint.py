"""AST lint pass enforcing repo invariants over ``src/``.

The static quarter of the checking subsystem (run via ``tools/lint_repro.py``
or ``tests/test_lint.py``).  Four rules, each guarding an invariant the
runtime passes rely on:

``raw-collectives``
    Collectives must go through :class:`repro.comm.group.ProcessGroup` —
    the layer that accounts bytes and signs each call for the transport's
    divergence digest and the static extractor.  Importing
    ``repro.comm.collectives`` (or the functional collective names)
    outside ``repro/comm/`` bypasses both.

``raw-collective-import``
    Inside ``repro/comm/`` itself, only the backend package — the
    functional module ``collectives.py`` and the :class:`CommBackend`
    implementations in ``backend.py`` — may import
    ``repro.comm.collectives``.  Everything else in the package
    (``group.py``, ``mp_backend.py``, helpers) must go through a
    backend so both execution models stay behind one seam; a deliberate
    re-export carries ``# lint: allow-raw-collective-import``.

``wallclock``
    No ``time.time()`` / ``time.time_ns()`` in numerics packages
    (``nn``, ``core``, ``comm``, ``optim``, ``tensor``): wall-clock reads
    make numerics nondeterministic and replay-hostile.  Telemetry uses
    ``perf_counter_ns`` through ``repro.obs``, which is exempt.

``rng``
    No implicit global RNG in numerics packages: ``np.random.<fn>()`` and
    ``random.<fn>()`` draw from hidden mutable state, breaking the
    seeded-``Generator``-passed-explicitly convention (``default_rng``,
    ``Generator`` and ``SeedSequence`` construction stay allowed).

``float64-upcast``
    Hot-path modules (gather/reduce/offload/optimizer) must not silently
    upcast to float64 — ``np.float64`` / ``np.double`` references,
    ``astype(float)`` and ``dtype=float`` double every byte moved and mask
    fp16/fp32 mixed-precision bugs.

``writeable-flip``
    Outside ``repro/comm`` (which owns the shared-buffer protocol) and the
    checker itself, nothing may set ``.flags.writeable = True`` — that is
    the escape hatch that lets callers mutate the base of a read-only
    zero-copy view.

``rawalloc``
    Modules instrumented by the memory scope (gather, bucket, offload,
    NVMe staging, activation checkpointing) must not allocate long-lived
    buffers with raw ``np.empty`` / ``np.zeros`` — an unattributed
    allocation is invisible to :mod:`repro.obs.memscope`, so watermarks
    and attribution silently understate the tier.  Route through
    ``attributed_zeros``; transient temps carry a
    same-line ``# lint: allow-rawalloc``.

``swallowed-oserror``
    I/O modules (``repro/nvme/``, the offload engine, checkpoint I/O) must
    not swallow ``OSError``/``IOError`` with an empty handler — a device
    error silently dropped on the offload path is silent training
    corruption.  Handle it (retry, count, degrade — see
    :mod:`repro.faults`) or let it propagate to a recovery tier.

``untraced-wait``
    Modules instrumented by the time profiler (engine, coordinator,
    offload, prefetch, bucket, NVMe aio/store/buffers) must not block in
    a bare ``time.sleep`` or spin loop — an untraced wait is invisible to
    :mod:`repro.obs.perfscope`, so the step ledger attributes the lost
    time to whatever span happens to be open (usually compute) and the
    stall report under-counts.  Wrap the wait in
    ``perfscope.stall_span(cause, owner=...)``; a deliberate throttle
    outside the step path carries ``# lint: allow-untraced-wait``.

Three *interprocedural* rules ride on a repo-wide :class:`ProgramIndex`
(call graph + view-returning functions), extending the lint beyond
single-function pattern matching:

``rank-divergent-collective``
    In the SPMD simulation layers (``repro/core/``, ``repro/optim/``,
    ``repro/nn/``, ``repro/tensor/``) a collective — direct or through
    any function the index knows issues one — must not be reachable only
    under a ``rank``-dependent predicate (``if rank == 0: ...``, an
    ``is_local`` guard, or the remainder of a block after a
    rank-predicated ``continue``/``return``).  One rank skipping a
    collective is the deadlock the mp transport reports as
    ``CommDivergence``; the transport layer (``repro/comm/``)
    owns the legitimately asymmetric recovery protocol and is exempt.
    Deliberate protocol sites carry
    ``# lint: allow-rank-divergent-collective``.

``readonly-view-escape``
    A buffer obtained from ``broadcast``/``allgather``/
    ``allgather_into``/``reduce_scatter_into``/``readonly_slice`` (or a
    function the index knows returns one) is a read-only view of shared
    storage; writing through it — subscript store, augmented assignment,
    ``np.copyto``, ``.fill(...)``, or a ``.flags.writeable`` flip —
    corrupts every rank sharing the base.  Tracked per function through
    aliases, subscripts and loop targets.

``shm-use-after-unlink``
    After ``SharedRing.destroy()`` / ``.close()`` / ``.unlink()``, the
    segment's buffer is gone: any later data access (``publish``,
    ``read_header``, abort/recovery flags, ``.buf``) through the same
    object is a use-after-free on shared memory.  Lifecycle calls
    themselves stay allowed (``destroy`` is close-then-unlink and
    idempotent).

``telemetry-ring-write``
    ``TelemetryRing.put_sample`` is a single-writer seqlock: exactly one
    writer per rank slot, and the sample schema/encoding is owned by
    ``repro.obs.live``.  A direct ``put_sample`` call anywhere else can
    race the rank's own writer mid-seqlock or publish a payload the
    aggregator cannot decode — publish through the live plane
    (``LivePlane.emit``) instead.

A finding can be suppressed with a same-line ``# lint: allow-<rule>``
comment; pre-existing debt is pinned in ``tools/lint_baseline.json`` so
only *new* violations fail CI.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

#: Packages whose numerics must be deterministic and clock-free.
NUMERICS_PACKAGES: tuple[str, ...] = (
    "repro/nn/",
    "repro/core/",
    "repro/comm/",
    "repro/optim/",
    "repro/tensor/",
)

#: Hot-path modules where a silent float64 upcast doubles moved bytes.
HOT_PATH_MODULES: frozenset[str] = frozenset(
    {
        "repro/core/bucket.py",
        "repro/core/coordinator.py",
        "repro/core/offload.py",
        "repro/core/partition.py",
        "repro/core/prefetch.py",
        "repro/comm/collectives.py",
        "repro/comm/group.py",
        "repro/optim/adam.py",
        "repro/tensor/flat.py",
        "repro/nvme/aio.py",
        "repro/nvme/buffers.py",
        "repro/nvme/store.py",
    }
)

#: The collective backend package: the only modules inside ``repro/comm/``
#: allowed to import ``repro.comm.collectives`` directly (the functional
#: module itself and the CommBackend implementations that wrap it).
COLLECTIVE_BACKEND_MODULES: frozenset[str] = frozenset(
    {
        "repro/comm/collectives.py",
        "repro/comm/backend.py",
    }
)

#: The only module allowed to write the shm telemetry ring: it owns the
#: sample schema and the single-writer-per-slot seqlock discipline.
TELEMETRY_PLANE_MODULES: frozenset[str] = frozenset(
    {
        "repro/obs/live.py",
    }
)

#: Functional collective names whose direct import bypasses ProcessGroup.
FUNCTIONAL_COLLECTIVES: frozenset[str] = frozenset(
    {
        "broadcast",
        "allgather",
        "allgather_into",
        "reduce_scatter",
        "reduce_scatter_into",
        "allreduce",
        "gather",
        "scatter",
        "alltoall",
    }
)

#: Modules instrumented by repro.obs.memscope: allocations here must be
#: attributed (or carry ``# lint: allow-rawalloc`` for transient temps).
MEMSCOPE_MODULES: frozenset[str] = frozenset(
    {
        "repro/core/bucket.py",
        "repro/core/coordinator.py",
        "repro/core/offload.py",
        "repro/core/partition.py",
        "repro/core/prefetch.py",
        "repro/nn/checkpoint.py",
        "repro/nvme/buffers.py",
        "repro/nvme/store.py",
    }
)

#: Explicitly-seeded RNG constructors that remain allowed everywhere.
RNG_CONSTRUCTORS: frozenset[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
)

#: Modules on the storage path where a swallowed OSError is silent
#: corruption: every device error must be retried, counted, or propagated.
IO_MODULES_PREFIXES: tuple[str, ...] = ("repro/nvme/",)
IO_MODULES: frozenset[str] = frozenset(
    {
        "repro/core/offload.py",
        "repro/core/checkpoint_io.py",
    }
)

#: Exception names an empty handler must not absorb in I/O modules.
_OS_ERROR_NAMES: frozenset[str] = frozenset(
    {"OSError", "IOError", "EnvironmentError"}
)

#: Modules instrumented by repro.obs.perfscope: a blocking wait here must
#: be wrapped in a ``stall_span`` so the step ledger can attribute it.
PERFSCOPE_MODULES: frozenset[str] = frozenset(
    {
        "repro/core/engine.py",
        "repro/core/coordinator.py",
        "repro/core/offload.py",
        "repro/core/prefetch.py",
        "repro/core/bucket.py",
        "repro/nvme/aio.py",
        "repro/nvme/store.py",
        "repro/nvme/buffers.py",
    }
)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str  # repo-src-relative, e.g. "repro/core/bucket.py"
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel = rel_path.replace(os.sep, "/")
        self.findings: list[LintFinding] = []
        self.in_comm = self.rel.startswith("repro/comm/")
        self.in_backend_pkg = self.rel in COLLECTIVE_BACKEND_MODULES
        self.in_check = self.rel.startswith("repro/check/")
        self.numerics = any(self.rel.startswith(p) for p in NUMERICS_PACKAGES)
        self.hot = self.rel in HOT_PATH_MODULES
        self.memscoped = self.rel in MEMSCOPE_MODULES
        self.io_module = self.rel in IO_MODULES or any(
            self.rel.startswith(p) for p in IO_MODULES_PREFIXES
        )
        self.perfscoped = self.rel in PERFSCOPE_MODULES
        self._random_aliases: set[str] = set()  # names bound to stdlib random
        self._stall_depth = 0  # with stall_span(...) nesting at this node

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            LintFinding(self.rel, getattr(node, "lineno", 0), rule, message)
        )

    # --- imports (raw-collectives + random tracking) -------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._random_aliases.add(alias.asname or "random")
            if alias.name.startswith("repro.comm.collectives"):
                if not self.in_comm:
                    self._flag(
                        node,
                        "raw-collectives",
                        "import of repro.comm.collectives outside repro.comm;"
                        " use a ProcessGroup (accounted + fingerprinted)",
                    )
                elif not self.in_backend_pkg:
                    self._flag(
                        node,
                        "raw-collective-import",
                        "import of repro.comm.collectives outside the backend"
                        " package; route through a CommBackend so both"
                        " execution models share one seam",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if self.in_comm and not self.in_backend_pkg:
            if mod == "repro.comm.collectives" or (
                mod == "repro.comm"
                and any(a.name == "collectives" for a in node.names)
            ):
                self._flag(
                    node,
                    "raw-collective-import",
                    "import of repro.comm.collectives outside the backend"
                    " package; route through a CommBackend so both"
                    " execution models share one seam",
                )
        if not self.in_comm:
            if mod == "repro.comm.collectives":
                self._flag(
                    node,
                    "raw-collectives",
                    "import from repro.comm.collectives outside repro.comm;"
                    " use a ProcessGroup (accounted + fingerprinted)",
                )
            elif mod == "repro.comm":
                for alias in node.names:
                    if alias.name == "collectives":
                        self._flag(
                            node,
                            "raw-collectives",
                            "import of the functional collectives module"
                            " outside repro.comm; use a ProcessGroup",
                        )
                    elif alias.name in FUNCTIONAL_COLLECTIVES:
                        self._flag(
                            node,
                            "raw-collectives",
                            f"direct import of functional collective"
                            f" {alias.name!r} outside repro.comm; call it"
                            f" through a ProcessGroup",
                        )
        self.generic_visit(node)

    # --- untraced waits (bare sleeps / spin loops off the stall ledger) ----------
    @staticmethod
    def _is_stall_with(node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                chain = _attr_chain(expr.func)
                if chain and chain[-1] == "stall_span":
                    return True
        return False

    def _visit_with(self, node) -> None:
        stall = self._is_stall_with(node)
        self._stall_depth += stall
        self.generic_visit(node)
        self._stall_depth -= stall

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_While(self, node: ast.While) -> None:
        if (
            self.perfscoped
            and self._stall_depth == 0
            and all(
                isinstance(stmt, (ast.Pass, ast.Continue))
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
        ):
            self._flag(
                node,
                "untraced-wait",
                "spin loop in a perfscope-instrumented module is invisible"
                " to stall attribution; wait inside a"
                " perfscope.stall_span(cause, owner=...) instead",
            )
        self.generic_visit(node)

    # --- calls (wallclock, rng, float64 astype, untraced sleeps) ----------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if (
            chain
            and chain[-1] == "put_sample"
            and self.rel not in TELEMETRY_PLANE_MODULES
        ):
            self._flag(
                node,
                "telemetry-ring-write",
                "direct telemetry-ring write outside repro.obs.live: the"
                " ring is a single-writer-per-slot seqlock whose sample"
                " schema the live plane owns; publish through"
                " LivePlane.emit instead",
            )
        if (
            self.perfscoped
            and self._stall_depth == 0
            and chain == ["time", "sleep"]
        ):
            self._flag(
                node,
                "untraced-wait",
                "bare time.sleep in a perfscope-instrumented module is"
                " invisible to stall attribution; wrap the wait in"
                " perfscope.stall_span(cause, owner=...) (or mark a"
                " deliberate off-step throttle with"
                " '# lint: allow-untraced-wait')",
            )
        if self.numerics and chain in (["time", "time"], ["time", "time_ns"]):
            self._flag(
                node,
                "wallclock",
                f"{'.'.join(chain)}() in a numerics path; timing belongs in"
                f" repro.obs (perf_counter), numerics must be replayable",
            )
        if self.numerics and len(chain) >= 2:
            if (
                chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and (len(chain) == 2 or chain[-1] not in RNG_CONSTRUCTORS)
            ):
                self._flag(
                    node,
                    "rng",
                    "implicit global numpy RNG in a numerics path; thread a"
                    " seeded np.random.Generator through instead",
                )
            elif (
                chain[0] in self._random_aliases
                and chain[-1] not in RNG_CONSTRUCTORS
            ):
                self._flag(
                    node,
                    "rng",
                    "stdlib random.* in a numerics path; thread a seeded"
                    " np.random.Generator through instead",
                )
        if (
            self.hot
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            arg = node.args[0]
            arg_chain = _attr_chain(arg)
            if arg_chain in (
                ["float"],
                ["np", "float64"],
                ["numpy", "float64"],
                ["np", "double"],
                ["numpy", "double"],
            ):
                self._flag(
                    node,
                    "float64-upcast",
                    "astype to float64 in a hot-path module doubles every"
                    " byte moved; accumulate in float32",
                )
        if (
            self.memscoped
            and len(chain) == 2
            and chain[0] in ("np", "numpy")
            and chain[1] in ("empty", "zeros")
        ):
            self._flag(
                node,
                "rawalloc",
                f"raw np.{chain[1]} in a memscope-instrumented module is"
                " invisible to memory attribution; use"
                " repro.obs.memscope.attributed_zeros (or mark a"
                " transient temp with '# lint: allow-rawalloc')",
            )
        self.generic_visit(node)

    # --- attributes (np.float64 references in hot modules) -----------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.hot:
            chain = _attr_chain(node)
            if chain in (
                ["np", "float64"],
                ["numpy", "float64"],
                ["np", "double"],
                ["numpy", "double"],
            ):
                self._flag(
                    node,
                    "float64-upcast",
                    "float64 dtype in a hot-path module; the offload/comm"
                    " hot path is fp16/fp32 only",
                )
                return  # do not double-count the inner chain
        self.generic_visit(node)

    # --- dtype=float keywords in hot modules ------------------------------------
    def visit_keyword(self, node: ast.keyword) -> None:  # type: ignore[override]
        if (
            self.hot
            and node.arg == "dtype"
            and isinstance(node.value, ast.Name)
            and node.value.id == "float"
        ):
            self._flag(
                node.value,
                "float64-upcast",
                "dtype=float is float64; hot-path buffers are fp16/fp32",
            )
        self.generic_visit(node)

    # --- exception handlers (swallowed OSError in I/O modules) -------------------
    @staticmethod
    def _handler_catches_oserror(handler: ast.ExceptHandler) -> bool:
        exc = handler.type
        names: list[ast.AST]
        if exc is None:  # bare except swallows OSError too
            return True
        names = list(exc.elts) if isinstance(exc, ast.Tuple) else [exc]
        for n in names:
            chain = _attr_chain(n)
            if chain and chain[-1] in _OS_ERROR_NAMES:
                return True
        return False

    @staticmethod
    def _handler_body_is_empty(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / bare ellipsis
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            self.io_module
            and self._handler_catches_oserror(node)
            and self._handler_body_is_empty(node)
        ):
            self._flag(
                node,
                "swallowed-oserror",
                "empty handler swallows a device error on the storage path"
                " (silent training corruption); retry, count, degrade, or"
                " let it reach a recovery tier (see repro.faults)",
            )
        self.generic_visit(node)

    # --- assignments (writeable flips) -----------------------------------------
    def _check_writeable_target(self, target: ast.AST, node: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
        ):
            self._flag(
                node,
                "writeable-flip",
                "re-enabling .flags.writeable defeats read-only zero-copy"
                " views; only repro.comm owns that protocol",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            not self.in_comm
            and not self.in_check
            and isinstance(node.value, ast.Constant)
            and node.value.value is True
        ):
            for target in node.targets:
                self._check_writeable_target(target, node)
        self.generic_visit(node)


# --- interprocedural passes -----------------------------------------------------
#: Modules where the SPMD discipline applies: every rank must issue the
#: same collective sequence.  The transport (``repro/comm/``) owns the
#: legitimately asymmetric pieces (rank-0 recovery polling, launcher).
RANK_SPMD_MODULES: tuple[str, ...] = (
    "repro/core/",
    "repro/optim/",
    "repro/nn/",
    "repro/tensor/",
)

#: Call names that directly block on peers: the functional collectives
#: plus the process-group / backend rendezvous primitives.
COLLECTIVE_ISSUE_NAMES: frozenset[str] = FUNCTIONAL_COLLECTIVES | frozenset(
    {"barrier", "step_sync", "exchange", "recover_after_abort"}
)

#: Calls whose result is (or may be) a read-only view of shared storage.
VIEW_SOURCES: frozenset[str] = frozenset(
    {
        "broadcast",
        "allgather",
        "allgather_into",
        "reduce_scatter_into",
        "readonly_slice",
    }
)

#: In-place mutators that count as writes through a view.
_VIEW_MUTATORS: frozenset[str] = frozenset({"fill", "sort", "put", "partition"})

#: SharedRing lifecycle enders vs. data accessors (see repro/comm/shm.py).
SHM_LIFECYCLE_METHODS: frozenset[str] = frozenset({"close", "unlink", "destroy"})
SHM_USE_METHODS: frozenset[str] = frozenset(
    {
        "publish",
        "read_header",
        "read_data",
        "set_abort",
        "abort_kinds",
        "clear_aborts",
        "ack_recovery",
        "all_recovered",
        "set_epoch",
        "epoch",
        "buf",
    }
)

_TERMINATORS = (ast.Continue, ast.Break, ast.Return, ast.Raise)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class ProgramIndex:
    """Repo-wide facts the interprocedural rules consult.

    Built once per lint run over every module (``build_program_index``);
    :func:`lint_source` falls back to a single-module index so snippets
    and tests stay self-contained.  Functions are keyed by simple name —
    a deliberate over-approximation (any ``x.flush()`` resolves to every
    ``def flush``) that favours recall; precision comes from the narrow
    trigger contexts (rank-dependent predicates, tainted names).
    """

    collective_callers: frozenset[str]
    view_returners: frozenset[str]


def _called_name(call: ast.Call) -> Optional[str]:
    chain = _attr_chain(call.func)
    return chain[-1] if chain else None


def _is_view_source_expr(expr: ast.AST, sources: frozenset[str]) -> bool:
    """``sources`` call, possibly behind a subscript (``allgather(x)[0]``)."""
    if isinstance(expr, ast.Subscript):
        return _is_view_source_expr(expr.value, sources)
    if isinstance(expr, ast.Call):
        name = _called_name(expr)
        return name is not None and name in sources
    return False


def build_program_index(trees: dict[str, ast.AST]) -> ProgramIndex:
    """Call-graph fixpoint over ``{rel_path: parsed module}``."""
    calls: dict[str, set[str]] = {}
    returns_call_to: dict[str, set[str]] = {}
    callers: set[str] = set()
    view_returners: set[str] = set()

    for tree in trees.values():
        for fn in ast.walk(tree):
            if not isinstance(fn, _FUNC_NODES):
                continue
            called = calls.setdefault(fn.name, set())
            tainted: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = _called_name(node)
                    if name:
                        called.add(name)
                        if name in COLLECTIVE_ISSUE_NAMES:
                            callers.add(fn.name)
                elif isinstance(node, ast.Assign):
                    if _is_view_source_expr(node.value, VIEW_SOURCES):
                        for t in node.targets:
                            if isinstance(t, ast.Name):
                                tainted.add(t.id)
                elif isinstance(node, ast.Return) and node.value is not None:
                    v = node.value
                    if _is_view_source_expr(v, VIEW_SOURCES):
                        view_returners.add(fn.name)
                    elif isinstance(v, ast.Name) and v.id in tainted:
                        view_returners.add(fn.name)
                    elif isinstance(v, ast.Call):
                        name = _called_name(v)
                        if name:
                            returns_call_to.setdefault(fn.name, set()).add(name)

    changed = True
    while changed:  # transitive closure: callers of callers issue too
        changed = False
        for fn, called in calls.items():
            if fn not in callers and called & callers:
                callers.add(fn)
                changed = True
    changed = True
    while changed:  # functions forwarding a view-returner's result
        changed = False
        for fn, callees in returns_call_to.items():
            if fn not in view_returners and callees & view_returners:
                view_returners.add(fn)
                changed = True
    return ProgramIndex(
        collective_callers=frozenset(callers),
        view_returners=frozenset(view_returners),
    )


#: Receiver names whose ``.rank`` attribute is the *process identity*.
#: In the replicated-state SPMD model most ``rank`` variables are turn
#: indices every process iterates identically (``for rank in range(world)``,
#: ``owner_rank`` metadata) — those are rank-uniform and harmless.  Only
#: the transport endpoint knows which process it is.
_RANK_IDENTITY_BASES: frozenset[str] = frozenset(
    {"backend", "comm", "group", "pg"}
)


def _rank_dependent(test: ast.AST) -> bool:
    """Does the predicate read the *process* identity?

    True for ``is_local(...)`` calls and ``<backend/comm/...>.rank``
    reads.  Turn indices, ``owner_rank`` metadata and ``all_local`` are
    rank-uniform (every process evaluates them identically) and do not
    count — the echo protocol keeps turn-conditional accounting aligned;
    only process-identity branches can desynchronize the schedule.
    """
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and _called_name(node) == "is_local":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            base = _attr_chain(node.value)
            if base and base[-1] in _RANK_IDENTITY_BASES:
                return True
    return False


def _function_bodies(tree: ast.AST):
    """Every function body plus the module body, shallow-nested first."""
    yield getattr(tree, "body", [])
    for node in ast.walk(tree):
        if isinstance(node, _FUNC_NODES):
            yield node.body


def _rank_divergent_findings(
    tree: ast.AST, rel: str, index: ProgramIndex, flag
) -> None:
    if not any(rel.startswith(p) for p in RANK_SPMD_MODULES):
        return
    issuers = COLLECTIVE_ISSUE_NAMES | index.collective_callers

    def check(node: ast.AST) -> None:
        for n in ast.walk(node):
            if isinstance(n, _FUNC_NODES):
                continue  # nested defs analyzed as their own bodies
            if isinstance(n, ast.Call):
                name = _called_name(n)
                if name in issuers:
                    flag(
                        n,
                        "rank-divergent-collective",
                        f"{name!r} (a collective, per the program index) is"
                        " reachable only under a rank-dependent predicate;"
                        " a rank that skips it deadlocks its peers at the"
                        " next rendezvous (CommDivergence at runtime)",
                    )

    def walk(stmts, conditioned: bool) -> None:
        cond = conditioned
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                dep = _rank_dependent(stmt.test)
                if cond:
                    check(stmt.test)
                walk(stmt.body, cond or dep)
                walk(stmt.orelse, cond or dep)
                if (
                    dep
                    and not stmt.orelse
                    and stmt.body
                    and isinstance(stmt.body[-1], _TERMINATORS)
                ):
                    # `if <rank-pred>: continue/return` — the rest of the
                    # block runs only on the ranks that failed the test
                    cond = True
                continue
            if isinstance(stmt, ast.While):
                dep = _rank_dependent(stmt.test)
                if cond:
                    check(stmt.test)
                walk(stmt.body, cond or dep)
                walk(stmt.orelse, cond)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                if cond:
                    check(stmt.iter)
                walk(stmt.body, cond)
                walk(stmt.orelse, cond)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if cond:
                    for item in stmt.items:
                        check(item.context_expr)
                walk(stmt.body, cond)
                continue
            if isinstance(stmt, ast.Try):
                walk(stmt.body, cond)
                for handler in stmt.handlers:
                    walk(handler.body, cond)
                walk(stmt.orelse, cond)
                walk(stmt.finalbody, cond)
                continue
            if cond:
                check(stmt)

    for body in _function_bodies(tree):
        walk(body, False)


def _view_escape_findings(
    tree: ast.AST, rel: str, index: ProgramIndex, flag
) -> None:
    if rel.startswith("repro/comm/") or rel.startswith("repro/check/"):
        return  # the transport owns the shared-view protocol
    sources = VIEW_SOURCES | index.view_returners

    def scan_body(stmts) -> None:
        tainted: set[str] = set()

        def is_tainted_expr(expr: ast.AST) -> bool:
            if _is_view_source_expr(expr, sources):
                return True
            if isinstance(expr, ast.Subscript):
                return is_tainted_expr(expr.value)
            return isinstance(expr, ast.Name) and expr.id in tainted

        def check_write_sinks(node: ast.AST) -> None:
            for n in ast.walk(node):
                if isinstance(n, _FUNC_NODES):
                    continue
                if not isinstance(n, ast.Call):
                    continue
                name = _called_name(n)
                chain = _attr_chain(n.func)
                if (
                    name == "copyto"
                    and len(chain) >= 2
                    and chain[0] in ("np", "numpy")
                    and n.args
                    and is_tainted_expr(n.args[0])
                ):
                    flag(
                        n,
                        "readonly-view-escape",
                        "np.copyto into a read-only collective view writes"
                        " the shared base every rank aliases; copy the view"
                        " out instead",
                    )
                elif (
                    name in _VIEW_MUTATORS
                    and isinstance(n.func, ast.Attribute)
                    and is_tainted_expr(n.func.value)
                ):
                    flag(
                        n,
                        "readonly-view-escape",
                        f".{name}() mutates a read-only collective view in"
                        " place; the base buffer is shared across ranks",
                    )

        def walk(stmts) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(stmt, ast.Assign):
                    if is_tainted_expr(stmt.value):
                        for t in stmt.targets:
                            if isinstance(t, ast.Name):
                                tainted.add(t.id)
                            elif isinstance(t, ast.Tuple):
                                for el in t.elts:
                                    if isinstance(el, ast.Name):
                                        tainted.add(el.id)
                    else:
                        for t in stmt.targets:
                            if isinstance(t, ast.Name):
                                tainted.discard(t.id)
                    for t in stmt.targets:
                        if isinstance(t, ast.Subscript) and is_tainted_expr(
                            t.value
                        ):
                            flag(
                                stmt,
                                "readonly-view-escape",
                                "subscript store into a read-only collective"
                                " view; the base buffer is shared across"
                                " ranks — copy before mutating",
                            )
                        elif (
                            isinstance(t, ast.Attribute)
                            and t.attr == "writeable"
                            and isinstance(t.value, ast.Attribute)
                            and t.value.attr == "flags"
                            and is_tainted_expr(t.value.value)
                        ):
                            flag(
                                stmt,
                                "readonly-view-escape",
                                "flipping .flags.writeable on a collective"
                                " view re-arms writes into shared storage",
                            )
                    check_write_sinks(stmt.value)
                    continue
                if isinstance(stmt, ast.AugAssign):
                    t = stmt.target
                    if (
                        isinstance(t, ast.Name) and t.id in tainted
                    ) or (
                        isinstance(t, ast.Subscript)
                        and is_tainted_expr(t.value)
                    ):
                        flag(
                            stmt,
                            "readonly-view-escape",
                            "augmented assignment writes through a read-only"
                            " collective view; copy before mutating",
                        )
                    check_write_sinks(stmt.value)
                    continue
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if is_tainted_expr(stmt.iter) and isinstance(
                        stmt.target, ast.Name
                    ):
                        tainted.add(stmt.target.id)
                    walk(stmt.body)
                    walk(stmt.orelse)
                    continue
                if isinstance(stmt, (ast.If, ast.While)):
                    check_write_sinks(stmt.test)
                    walk(stmt.body)
                    walk(stmt.orelse)
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    walk(stmt.body)
                    continue
                if isinstance(stmt, ast.Try):
                    walk(stmt.body)
                    for handler in stmt.handlers:
                        walk(handler.body)
                    walk(stmt.orelse)
                    walk(stmt.finalbody)
                    continue
                check_write_sinks(stmt)

        walk(stmts)

    for body in _function_bodies(tree):
        scan_body(body)


def _shm_lifecycle_findings(tree: ast.AST, rel: str, flag) -> None:
    def walk(stmts, dead: set[tuple[str, ...]]) -> set[tuple[str, ...]]:
        def chain_of(node: ast.AST) -> Optional[tuple[str, ...]]:
            parts = _attr_chain(node)
            return tuple(parts) if parts else None

        def check_uses(node: ast.AST) -> None:
            for n in ast.walk(node):
                if isinstance(n, _FUNC_NODES):
                    continue
                if isinstance(n, ast.Call) and isinstance(
                    n.func, ast.Attribute
                ):
                    if n.func.attr in SHM_USE_METHODS:
                        base = chain_of(n.func.value)
                        if base in dead:
                            flag(
                                n,
                                "shm-use-after-unlink",
                                f"{'.'.join(base)}.{n.func.attr}() after the"
                                " segment was closed/unlinked: the shared"
                                " buffer is gone (use-after-free on shm)",
                            )
                elif isinstance(n, ast.Attribute) and n.attr == "buf":
                    base = chain_of(n.value)
                    if base in dead:
                        flag(
                            n,
                            "shm-use-after-unlink",
                            f"{'.'.join(base)}.buf after the segment was"
                            " closed/unlinked: the mapping is invalid",
                        )

        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                check_uses(stmt.test)
                dead_body = walk(stmt.body, set(dead))
                dead_else = walk(stmt.orelse, set(dead))
                dead |= dead_body & dead_else
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                check_uses(stmt.iter)
                walk(stmt.body, set(dead))
                walk(stmt.orelse, set(dead))
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    check_uses(item.context_expr)
                dead |= walk(stmt.body, set(dead))
                continue
            if isinstance(stmt, ast.Try):
                dead |= walk(stmt.body, set(dead))
                for handler in stmt.handlers:
                    walk(handler.body, set(dead))
                walk(stmt.orelse, set(dead))
                dead |= walk(stmt.finalbody, set(dead))
                continue
            check_uses(stmt)
            for n in ast.walk(stmt):
                if (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in SHM_LIFECYCLE_METHODS
                ):
                    base = chain_of(n.func.value)
                    if base is not None:
                        dead.add(base)
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):  # rebinding revives the name
                        dead = {c for c in dead if c[0] != t.id}
        return dead

    for body in _function_bodies(tree):
        walk(body, set())


def _interprocedural_findings(
    tree: ast.AST, rel_path: str, index: ProgramIndex
) -> list[LintFinding]:
    rel = rel_path.replace(os.sep, "/")
    findings: list[LintFinding] = []

    def flag(node: ast.AST, rule: str, message: str) -> None:
        findings.append(
            LintFinding(rel, getattr(node, "lineno", 0), rule, message)
        )

    _rank_divergent_findings(tree, rel, index, flag)
    _view_escape_findings(tree, rel, index, flag)
    _shm_lifecycle_findings(tree, rel, flag)
    return findings


def lint_source(
    source: str, rel_path: str, index: Optional[ProgramIndex] = None
) -> list[LintFinding]:
    """Lint one module's source text (unit of both the CLI and the tests).

    With no ``index``, the interprocedural rules see a single-module
    index built from this source alone; :func:`collect` passes the
    repo-wide one.
    """
    tree = ast.parse(source, filename=rel_path)
    visitor = _Visitor(rel_path)
    visitor.visit(tree)
    if index is None:
        index = build_program_index({rel_path: tree})
    visitor.findings.extend(
        _interprocedural_findings(tree, rel_path, index)
    )
    lines = source.splitlines()
    kept = []
    for f in visitor.findings:
        line_text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        if f"# lint: allow-{f.rule}" in line_text:
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def default_src_root() -> str:
    """The ``src/`` directory this installation of ``repro`` lives in."""
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )


def default_baseline_path() -> str:
    return os.path.join(
        os.path.dirname(default_src_root()), "tools", "lint_baseline.json"
    )


def collect(src_root: Optional[str] = None) -> list[LintFinding]:
    """Lint every ``repro`` module under ``src_root``.

    Two passes: the first parses everything and builds the repo-wide
    :class:`ProgramIndex`; the second lints each module against it, so
    the interprocedural rules see callees defined in other files.
    """
    root = src_root or default_src_root()
    pkg_root = os.path.join(root, "repro")
    modules: list[tuple[str, str]] = []  # (rel, source)
    for dirpath, dirnames, filenames in os.walk(pkg_root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as fh:
                modules.append((rel, fh.read()))
    index = build_program_index(
        {rel: ast.parse(source, filename=rel) for rel, source in modules}
    )
    findings: list[LintFinding] = []
    for rel, source in modules:
        findings.extend(lint_source(source, rel, index))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --- baseline -------------------------------------------------------------------
def load_baseline(path: Optional[str] = None) -> dict[str, dict[str, int]]:
    """``{rel_path: {rule: allowed_count}}`` — pre-existing pinned debt."""
    baseline_path = path or default_baseline_path()
    if not os.path.exists(baseline_path):
        return {}
    with open(baseline_path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {k: dict(v) for k, v in data.get("allow", {}).items()}


def write_baseline(
    findings: Sequence[LintFinding], path: Optional[str] = None
) -> str:
    """Pin the current findings as the allowed baseline."""
    allow: dict[str, dict[str, int]] = {}
    for f in findings:
        allow.setdefault(f.path, {})
        allow[f.path][f.rule] = allow[f.path].get(f.rule, 0) + 1
    baseline_path = path or default_baseline_path()
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "allow": allow}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return baseline_path


def apply_baseline(
    findings: Sequence[LintFinding], baseline: dict[str, dict[str, int]]
) -> list[LintFinding]:
    """Findings beyond the pinned allowance (earliest lines absorbed first)."""
    budget = {
        (path, rule): count
        for path, rules in baseline.items()
        for rule, count in rules.items()
    }
    new: list[LintFinding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        key = (f.path, f.rule)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            continue
        new.append(f)
    return new


@dataclass(frozen=True)
class LintReport:
    """Outcome of a full lint run."""

    all_findings: tuple[LintFinding, ...]
    new_findings: tuple[LintFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.new_findings


def run_lint(
    src_root: Optional[str] = None, baseline_path: Optional[str] = None
) -> LintReport:
    """Lint ``src_root`` and subtract the pinned baseline."""
    findings = collect(src_root)
    baseline = load_baseline(baseline_path)
    return LintReport(
        all_findings=tuple(findings),
        new_findings=tuple(apply_baseline(findings, baseline)),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (see ``tools/lint_repro.py``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lint_repro",
        description="AST lint for repro invariants (repro.check.lint)",
    )
    parser.add_argument(
        "--root", default=None, help="src directory (default: auto-detect)"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: tools/lint_baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="pin the current findings as the new baseline",
    )
    parser.add_argument(
        "--show-all",
        action="store_true",
        help="also print baseline-absorbed findings",
    )
    args = parser.parse_args(argv)

    if args.update_baseline:
        findings = collect(args.root)
        path = write_baseline(findings, args.baseline)
        print(f"pinned {len(findings)} finding(s) to {path}")
        return 0

    report = run_lint(args.root, args.baseline)
    shown = report.all_findings if args.show_all else report.new_findings
    for f in shown:
        print(f.format())
    absorbed = len(report.all_findings) - len(report.new_findings)
    print(
        f"{len(report.new_findings)} new finding(s),"
        f" {absorbed} absorbed by baseline"
    )
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via tools/
    raise SystemExit(main())
