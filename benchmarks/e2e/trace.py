"""Span tracing from outside the program, and the per-layer time ledger.

The benchmark must not depend on instrumentation inside ``repro`` (ROADMAP
item 3 rewrites it), so the layers' public entry points are wrapped here by
attribute patching.  Every wrapped call records one span — layer, name,
start, end, parent — into a per-thread in-memory list.  A layer's *self
time* is its spans' duration minus the part their child spans cover, so
over one ``train_step`` the main thread's self times sum to the step wall
exactly; ``engine`` is the root span's own self time, i.e. everything no
wrapped layer accounts for (coordinator, hooks, instrumentation gates).

An entry point that no longer exists is skipped with a warning: its time
then falls to the caller's layer, and a layer left with no entry point at
all reports ``None`` — never a failed run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: layer -> [(module, class or None, attribute names or None for "every
#: public function of the module")].  "engine" holds the root span.
ENTRY_POINTS: dict[str, list[tuple[str, str | None, list[str] | None]]] = {
    "engine": [("repro.core.engine", "ZeroInfinityEngine", ["train_step"])],
    "nn": [("repro.nn.functional", None, None)],
    "optim": [("repro.optim.adam", None, ["adam_step"])],
    "comm": [
        (
            "repro.comm.group",
            "ProcessGroup",
            [
                "broadcast", "allgather", "allgather_into", "reduce_scatter",
                "reduce_scatter_into", "allreduce", "gather", "scatter",
                "barrier", "exchange", "echo_turns",
            ],
        ),
        ("repro.comm.mp_backend", "MultiprocBackend", ["exchange", "step_sync"]),
    ],
    "core.partition": [
        (
            "repro.core.partition",
            "ParameterPartitioner",
            ["gather", "gather_coalesced", "release", "update_shard"],
        )
    ],
    "core.bucket": [("repro.core.bucket", "GradientBucketStore", ["add", "flush"])],
    "core.offload": [
        (
            "repro.core.offload",
            "InfinityOffloadEngine",
            [
                "fetch", "fetch_into", "stash", "prefetch", "stage_nvme",
                "promote_staged",
            ],
        )
    ],
    "core.zero_optimizer": [
        ("repro.core.zero_optimizer", "ZeroPartitionedAdam", ["step"])
    ],
    "nvme": [
        (
            "repro.nvme.store",
            "TensorStore",
            [
                "write", "write_async", "read", "read_async", "read_range",
                "write_range", "create", "promote", "delete",
            ],
        ),
        # CRC verification of a fetched record runs on the waiting thread
        ("repro.nvme.store", "_VerifiedRead", ["wait"]),
        ("repro.nvme.aio", "AsyncIOEngine", ["submit_read", "submit_write"]),
        ("repro.nvme.buffers", "PinnedBufferPool", ["acquire"]),
    ],
    # the calling thread blocked on in-flight I/O
    "nvme.wait": [
        ("repro.nvme.aio", "IORequest", ["wait"]),
        ("repro.nvme.aio", "AsyncIOEngine", ["synchronize"]),
    ],
}

#: spans of this many leading steps go into the Chrome trace (a whole run's
#: spans would be tens of MB that nobody scrolls through)
CHROME_STEPS = 5


class Recorder:
    """Wraps entry points; records spans only while ``on`` is true."""

    def __init__(self) -> None:
        self.on = False
        self.missing: list[str] = []
        self.wrapped: dict[str, int] = {layer: 0 for layer in ENTRY_POINTS}
        self._local = threading.local()
        self._threads: list[tuple[int, str, list]] = []  # (tid, name, spans)
        self._lock = threading.Lock()
        self._main = threading.get_ident()  # reset by start()

    # --- recording ---------------------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            thread = threading.current_thread()
            with self._lock:
                self._threads.append((thread.ident, thread.name, local.spans))
            return local.spans, local.stack

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            spans, stack = self._state()
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve: children close before we do
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (layer, name, start, end, parent)

        return traced

    def start(self) -> None:
        """Begin recording; the calling thread is the one the ledger covers."""
        self._main = threading.get_ident()
        self.on = True

    def stop(self) -> None:
        self.on = False

    # --- patching ----------------------------------------------------------------
    def install(self) -> "Recorder":
        """Patch every entry point that exists; note the ones that do not."""
        for layer, specs in ENTRY_POINTS.items():
            for module_name, class_name, attrs in specs:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(module_name)
                    continue
                owner = module
                if class_name is not None:
                    owner = getattr(module, class_name, None)
                    if owner is None:
                        self.missing.append(f"{module_name}.{class_name}")
                        continue
                if attrs is None:
                    attrs = [
                        n for n, v in vars(module).items()
                        if not n.startswith("_")
                        and callable(v)
                        and getattr(v, "__module__", None) == module_name
                    ]
                for attr in attrs:
                    fn = vars(owner).get(attr)
                    if fn is None or not callable(fn):
                        self.missing.append(
                            ".".join(filter(None, (module_name, class_name, attr)))
                        )
                        continue
                    label = f"{class_name}.{attr}" if class_name else attr
                    wrapper = self._wrap(layer, label, fn)
                    if class_name is not None:
                        setattr(owner, attr, wrapper)
                    else:
                        _rebind_function(fn, wrapper)
                    self.wrapped[layer] += 1
        for name in self.missing:
            print(f"trace: entry point {name} not found; skipped", file=sys.stderr)
        return self

    # --- results -----------------------------------------------------------------
    def _main_spans(self) -> list:
        return next((s for tid, _, s in self._threads if tid == self._main), [])

    def ledger(self) -> dict:
        """Main-thread self time and call count per layer, per step."""
        spans = self._main_spans()
        # a parent reserves its slot before its children do, so one forward
        # pass knows whether a span lies inside a train_step root
        in_step = [False] * len(spans)
        child_ns = [0] * len(spans)
        for index, (layer, _, start, end, parent) in enumerate(spans):
            in_step[index] = in_step[parent] if parent >= 0 else layer == "engine"
            if in_step[index] and parent >= 0:
                child_ns[parent] += end - start
        self_ns = dict.fromkeys(ENTRY_POINTS, 0)
        calls = dict.fromkeys(ENTRY_POINTS, 0)
        by_name: dict[str, int] = {}
        steps = 0
        wall_ns = 0
        for index, (layer, name, start, end, parent) in enumerate(spans):
            if not in_step[index]:
                continue
            self_ns[layer] += (end - start) - child_ns[index]
            calls[layer] += 1
            by_name[name] = by_name.get(name, 0) + 1
            if parent < 0:
                steps += 1
                wall_ns += end - start
        per_step = 1.0 / steps if steps else 0.0
        return {
            "steps": steps,
            "step_wall_ms": wall_ns * per_step / 1e6,
            "self_ms": {
                layer: (ns * per_step / 1e6 if self.wrapped[layer] else None)
                for layer, ns in self_ns.items()
            },
            "calls": {
                layer: (n * per_step if self.wrapped[layer] else None)
                for layer, n in calls.items()
            },
            "calls_by_name": {n: c * per_step for n, c in sorted(by_name.items())},
        }

    def chrome_events(self, pid: int) -> list[dict]:
        """Chrome-trace events (all threads) of the first traced steps."""
        roots = [
            s for s in self._main_spans() if s[4] < 0 and s[0] == "engine"
        ][:CHROME_STEPS]
        if not roots:
            return []
        lo, hi = roots[0][2], roots[-1][3]
        events: list[dict] = []
        for tid, thread_name, spans in self._threads:
            events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": thread_name},
                }
            )
            for span in spans:
                if span is None:
                    continue
                layer, name, start, end, _ = span
                if start < lo or end > hi:
                    continue
                events.append(
                    {
                        "ph": "X", "cat": layer, "name": name, "pid": pid,
                        "tid": tid, "ts": (start - lo) / 1e3,
                        "dur": (end - start) / 1e3,
                    }
                )
        return events


def _rebind_function(original, wrapper) -> None:
    """Point every ``repro`` module attribute that is ``original`` at
    ``wrapper`` (covers ``from x import f`` aliases in importing modules)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def write_chrome_trace(path: str, events: list[dict]) -> None:
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
