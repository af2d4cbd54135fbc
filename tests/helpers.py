"""Read-outs the tests compute from the state of ``repro`` objects.

The runtime never needs these values, so they live beside the tests that
check them rather than as accessors in ``src/``.
"""

from __future__ import annotations

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
