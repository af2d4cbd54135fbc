"""Infinity offload engine I/O substrate (DeepNVMe stand-in).

The paper's DeepNVMe is a C++ libaio library with bulk asynchronous
read/write, explicit flush, aggressive request parallelism and pinned-memory
staging (Sec. 6.3).  This package reproduces the same contract in Python:

* :class:`~repro.nvme.aio.AsyncIOEngine` — thread-pool async file I/O with
  request handles, per-request slicing for intra-request parallelism, and a
  ``synchronize()`` barrier;
* :class:`~repro.nvme.buffers.PinnedBufferPool` — a bounded pool of reusable
  staging buffers ("tens of GBs" reused "for offloading ... up to tens of
  TBs"), enforcing the budget the pinned-memory layer manages;
* :class:`~repro.nvme.store.TensorStore` — file-backed tensor swapping keyed
  by name, the storage backend of NVMe offload.
"""

from repro.nvme.aio import AsyncIOEngine, IORequest
from repro.nvme.buffers import PinnedBufferPool, PinnedBuffer
from repro.nvme.store import TensorStore

__all__ = [
    "AsyncIOEngine",
    "IORequest",
    "PinnedBufferPool",
    "PinnedBuffer",
    "TensorStore",
]
