"""Read-outs the tests compute from the state of ``repro`` objects.

The runtime never needs these values, so they live beside the tests that
check them rather than as accessors in ``src/``.
"""

from __future__ import annotations

import os

import numpy as np


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


def drift_row(report, component: str):
    """The row of a memory or perf report's drift table for ``component``,
    or None."""
    return next((r for r in report.drift if r.component == component), None)


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
