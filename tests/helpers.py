"""Read-outs the tests compute from the state of ``repro`` objects.

The runtime never needs these values, so they live beside the tests that
check them rather than as accessors in ``src/``.
"""

from __future__ import annotations

import os

import numpy as np

#: The stall taxonomy: the causes ``repro.obs.perfscope.stall_span`` takes.
STALL_CAUSES = (
    "prefetch_miss",
    "pinned_wait",
    "bucket_flush_wait",
    "optimizer_io_tail",
    "checksum_refetch",
    "retry",
)

#: The allocation categories ``repro.obs.memscope`` attributes bytes to.
#: The first three make up "model states" (Eq. 2); the rest are working
#: memory and infrastructure buffers.
MEMORY_CATEGORIES = (
    "param_fp16",
    "grad",
    "optimizer_state",
    "gather_buffer",
    "bucket",
    "pinned",
    "activation_ckpt",
    "workspace",
)


def ddp_state(ddp, rank: int = 0) -> dict[str, np.ndarray]:
    """A copy of ``ddp``'s replica ``rank`` weights by parameter name."""
    return {
        name: p.data.copy() for name, p in ddp.replicas[rank].named_parameters()
    }


def banked_grads(store) -> int:
    """Groups a ``GradientBucketStore`` banked but has not reduced."""
    return sum(len(b.entries) for b in store._buckets.values())


def bucket_buffer_bytes(store) -> int:
    """A ``GradientBucketStore``'s preallocated bucket-buffer footprint."""
    return sum(sum(buf.nbytes for buf in b.inputs) for b in store._buckets.values())


def count_offload_bytes(model) -> dict[str, int]:
    """Wrap the ``save``/``load`` of every activation offloader installed on
    ``model``'s checkpointed blocks; the returned dict then counts the
    bytes they move (``"offloaded"``, ``"restored"``)."""
    from repro.nn.checkpoint import CheckpointedBlock

    counts = {"offloaded": 0, "restored": 0}

    def counted(off) -> None:
        save, load = off.save, off.load

        def counted_save(array):
            counts["offloaded"] += array.nbytes
            return save(array)

        def counted_load(handle):
            out = load(handle)
            counts["restored"] += out.nbytes
            return out

        off.save, off.load = counted_save, counted_load

    for block in model.modules():
        if isinstance(block, CheckpointedBlock) and block.offloader is not None:
            counted(block.offloader)
    return counts


def drift_row(report, component: str):
    """The row of a memory or perf report's drift table for ``component``,
    or None."""
    return next((r for r in report.drift if r.component == component), None)


def optimizer_time(breakdown) -> float:
    """Seconds a simulated ``StepBreakdown`` spends in its ``opt*`` tasks."""
    return sum(
        t.duration for t in breakdown.result.tasks if t.name.startswith("opt")
    )


def ledger_residual_us(ledger) -> float:
    """How far a ``StepLedger``'s segments miss tiling its step window.

    ``compute_us`` is the wall minus the swept phases, so this is also the
    gap between it and the compute time swept segment by segment — a
    float-rounding difference that should be ~0."""
    return abs(ledger.wall_us - sum(s.dur_us for s in ledger.segments))


def path_slack_us(path) -> list[float]:
    """The gap between each node of a ``CriticalPath`` and the next one's
    start (0 on a tight path)."""
    return [
        max(0.0, b.start_us - a.finish_us) for a, b in zip(path.nodes, path.nodes[1:])
    ]


def open_span_names(tracer) -> list[str]:
    """Names of the spans ``tracer`` has entered but not yet exited."""
    return [s._name for s in list(tracer._open.values())]


def spool_sweep(store) -> list[str]:
    """What a ``TensorStore``'s spool holds beyond its primary records,
    sorted; ``[]`` when clean.

    Each published shadow record reads ``"shadow <key>"``, and each file
    that is not one of a primary record's two slots (``<key>.bin``,
    ``<key>.pipe.bin``) reads as its name.  Once the store is closed, only
    ``<key>.bin`` is a record's file.
    """
    from repro.nvme.store import SHADOW_SUFFIX, shadow_key

    keys = store.keys()
    primaries = [k for k in keys if not k.endswith(SHADOW_SUFFIX)]
    slots = {os.path.basename(store._path_for(k)) for k in primaries}
    if not store._closed:
        slots |= {
            os.path.basename(store._path_for(shadow_key(k))) for k in primaries
        }
    shadows = [f"shadow {k}" for k in keys if k.endswith(SHADOW_SUFFIX)]
    strays = [f for f in os.listdir(store.directory) if f not in slots]
    return sorted(shadows + strays)


def inflight_events(detector) -> int:
    """An ``AioRaceDetector``'s outstanding (unretired) I/O events."""
    with detector._lock:
        detector._prune()
        return len(detector._ops)
