"""ZeroSan: runtime state-machine sanitizer for the parameter lifecycle.

ZeRO-3 correctness rests on a strict per-parameter protocol — partitioned →
gathering → available → released — and on the zero-copy discipline around
reusable gather buffers (collective results are shared read-only views; the
owning buffer must not be mutated while shares are live).  Violations in
DeepSpeed surface as silent numeric drift several steps later; ZeroSan
detects them at the point of cause instead:

* **use-after-release** — releasing a parameter installs a tripwire
  placeholder as ``param.data``; any ufunc that touches it reports with the
  parameter's name and the operation that fired.
* **double-gather** — a gather event for a parameter whose shadow state is
  already resident means the real ``Parameter.state`` was corrupted (the
  partitioner's own idempotence check bypassed).
* **gather-leak / stuck-gather at step boundaries** — every parameter the
  coordinator manages must be back to PARTITIONED when a step ends.
* **stale-gather-alias** — gather buffers are recycled, so an alias of
  ``param.data`` that outlives the release (a forward cache read in
  backward) would read the buffer's next tenant; the release reports any
  reference to the buffer other than the partitioner's own.
* **stale-grad-alias** — gradient arrays are recycled too: a reference to
  ``param.grad`` kept past the reduce (a backward hook's cache) would read
  the next step's gradient; the recycle refuses the array and reports it.
* **writable-shared-view** — a zero-copy collective must hand out
  read-only views of the caller's buffer.

Event sources: :class:`~repro.core.partition.ParameterPartitioner` emits
partition/gather/release events, :class:`~repro.comm.group.ProcessGroup`
reports the views its zero-copy collectives return, and the engine emits
the step boundary with the coordinator's parameter ids.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional

import numpy as np


class _ReleasedArray(np.ndarray):
    """Tripwire installed as ``param.data`` after release.

    Shaped like the normal empty placeholder, so size/shape/repr queries
    behave; any *ufunc* application (arithmetic, matmul, comparisons — i.e.
    compute on a released parameter) reports use-after-release.
    """

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self._sanitizer = getattr(obj, "_sanitizer", None)
            self._label = getattr(obj, "_label", "?")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        sanitizer = getattr(self, "_sanitizer", None)
        if sanitizer is not None:
            sanitizer.on_released_touch(
                getattr(self, "_label", "?"), f"{ufunc.__name__}.{method}"
            )
        # record mode falls through: behave as the plain empty placeholder
        cast = tuple(
            np.asarray(x) if isinstance(x, _ReleasedArray) else x for x in inputs
        )
        return getattr(ufunc, method)(*cast, **kwargs)

    def __reduce__(self):
        # placeholders must survive pickling/deepcopy as plain empty arrays
        return (np.empty, ((0,), self.dtype.str))


class ZeroSan:
    """The lifecycle state machine; owned by a ``CheckContext``."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        # shadow state per parameter unique_id: "gathering" | "available";
        # absence means partitioned (or never partitioned)
        self._open: dict[int, str] = {}
        self._labels: dict[int, str] = {}

    # --- parameter lifecycle events ------------------------------------------
    def _label(self, param) -> str:
        name = getattr(param, "name", None)
        return name or f"param#{param.unique_id}"

    def on_partition(self, param) -> None:
        self._labels[param.unique_id] = self._label(param)
        self._open.pop(param.unique_id, None)

    def on_gather_begin(self, param) -> None:
        state = self._open.get(param.unique_id)
        self._labels[param.unique_id] = self._label(param)
        if state is not None:
            self._ctx.report(
                "double-gather",
                f"{self._label(param)} gathered while shadow state is"
                f" {state!r}: its PartitionState was corrupted outside the"
                f" partitioner",
                param=self._label(param),
                shadow_state=state,
            )
        self._open[param.unique_id] = "gathering"

    def on_gather_end(self, param) -> None:
        self._open[param.unique_id] = "available"

    def on_release(self, param) -> None:
        state = self._open.pop(param.unique_id, None)
        if state is None:
            self._ctx.report(
                "release-without-gather",
                f"{self._label(param)} released but ZeroSan never saw it"
                f" gathered",
                param=self._label(param),
            )

    def on_recycle(self, param, box: list) -> None:
        """``param`` was released and the flat array its data was a view of
        — ``box[0]`` — is about to be handed to the next gather.

        The tripwire in ``param.data`` cannot see an alias taken while the
        parameter was resident (a forward cache holding ``w.data`` for
        backward): it still reads fine, but soon reads the next tenant's
        weights.  Every numpy view keeps its base array alive, so a live
        alias shows as a reference to the buffer beyond its owner's.  The
        owner hands it over boxed in a one-element list, so that the list —
        not the frames this call passes through — is the one reference.
        """
        # an object only a list holds, counted the same way, calibrates
        # out what the interpreter's calling convention adds
        probe = [object()]
        extra = sys.getrefcount(box[0]) - sys.getrefcount(probe[0])
        if extra > 0:
            self._ctx.report(
                "stale-gather-alias",
                f"{self._label(param)} released while {extra} alias(es) of its"
                f" gathered tensor are still held; the gather buffer is"
                f" recycled, so they will read another parameter's values —"
                f" take param.data at the point of use instead of caching it",
                param=self._label(param),
                aliases=extra,
            )

    def on_grad_recycle(self, param, box: list) -> bool:
        """``box[0]``, an array ``param``'s gradient was computed in, is
        about to go back to the parameter for the next backward to write
        into.  Returns whether it may.

        Same test as :meth:`on_recycle`: whoever kept ``param.grad`` from
        this step (a hook, a logger) holds an alias that will silently read
        the next step's gradient.  One holder besides the box is expected —
        the per-rank sequence the gradients were harvested into.
        """
        probe = [object()]
        extra = sys.getrefcount(box[0]) - sys.getrefcount(probe[0]) - 1
        if extra <= 0:
            return True
        self._ctx.report(
            "stale-grad-alias",
            f"{self._label(param)}'s gradient array is being recycled while"
            f" {extra} alias(es) of it are still held; they will read the next"
            f" step's gradient — copy param.grad to keep it",
            param=self._label(param),
            aliases=extra,
        )
        return False

    def on_released_touch(self, label: str, op: str) -> None:
        self._ctx.report(
            "use-after-release",
            f"compute ({op}) touched released parameter {label}; gather it"
            f" before use",
            param=label,
            op=op,
        )

    def on_step_boundary(self, param_ids: Optional[Iterable[int]] = None) -> None:
        """Every coordinated parameter must be re-partitioned between steps."""
        scope = None if param_ids is None else set(param_ids)
        for uid in sorted(self._open):
            if scope is not None and uid not in scope:
                continue
            state = self._open.pop(uid)
            label = self._labels.get(uid, f"param#{uid}")
            if state == "gathering":
                self._ctx.report(
                    "stuck-gather",
                    f"{label} left mid-gather at a step boundary (an"
                    f" exception interrupted its gather?)",
                    param=label,
                )
            else:
                self._ctx.report(
                    "gather-leak",
                    f"{label} still resident at a step boundary: a release"
                    f" hook was skipped, so its full tensor leaks",
                    param=label,
                )

    def placeholder(self, param, dtype) -> np.ndarray:
        """The tripwire array to install as ``param.data`` on release."""
        arr = np.empty(0, dtype=dtype).view(_ReleasedArray)
        arr._sanitizer = self
        arr._label = self._label(param)
        return arr

    # --- zero-copy collective results -----------------------------------------
    def on_shared_views(self, views) -> None:
        """A collective just returned ``views`` aliasing a caller's buffer."""
        for v in views:
            if v is not None and v.flags.writeable:
                self._ctx.report(
                    "writable-shared-view",
                    "a zero-copy collective returned a writable view of its"
                    " shared output buffer",
                    numel=int(v.size),
                )
