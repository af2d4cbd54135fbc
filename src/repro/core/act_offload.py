"""Activation checkpoint offload targets (Sec. 5.1.2 + Sec. 8.2 future work).

:class:`~repro.nn.checkpoint.ActivationOffloader` copies checkpoints into
host buffers that memscope accounts on the CPU tier — the paper's shipped
design.
:class:`NVMeActivationOffloader` spools them through the tensor store with
asynchronous writes — the improvement Sec. 8.2 names for the 20T case
("offloading activation checkpoints to NVMe in a future implementation"):
the write overlaps the remaining forward compute and the read is awaited at
the start of the block's backward.

``install_activation_offload`` wires an offloader into every
:class:`~repro.nn.checkpoint.CheckpointedBlock` of a model; the engine calls
it when ``OffloadConfig.activation_device`` is CPU or NVMe.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.core.config import OffloadDevice
from repro.nn.checkpoint import ActivationOffloader, CheckpointedBlock
from repro.nn.module import Module
from repro.nvme.store import TensorStore


class NVMeActivationOffloader(ActivationOffloader):
    """Checkpoints spool to the NVMe tensor store asynchronously."""

    _ids = itertools.count()

    def __init__(self, store: TensorStore) -> None:
        super().__init__()
        self.store = store
        self._uid = next(self._ids)
        self._seq = 0

    def save(self, array: np.ndarray) -> object:
        key = f"act.{self._uid}.{self._seq}"
        self._seq += 1
        # async write: overlaps the rest of the forward pass; the handle is
        # retained so load() can synchronise before reading
        req = self.store.write_async(key, array)
        return (key, req)

    def load(self, handle: object) -> np.ndarray:
        key, req = handle  # type: ignore[misc]
        req.wait()
        out = self.store.read(key)
        self.store.delete(key)  # checkpoints are single-use
        return out

    def discard(self, handle: object) -> None:
        """Drop an unrestored checkpoint: drain the write, delete the key."""
        key, req = handle  # type: ignore[misc]
        req.wait()  # the async write still targets the spool file
        self.store.delete(key)


def install_activation_offload(
    model: Module,
    device: OffloadDevice,
    *,
    store: Optional[TensorStore] = None,
) -> None:
    """Attach an offloader per CheckpointedBlock.

    Raises when NVMe placement is requested without a store, or when the
    model has no checkpointed blocks to offload (a configuration mistake
    worth failing loudly on).
    """
    if device is OffloadDevice.NONE:
        return
    blocks = [m for m in model.modules() if isinstance(m, CheckpointedBlock)]
    if not blocks:
        raise ValueError(
            "activation offload configured but the model has no"
            " CheckpointedBlock (enable activation_checkpointing)"
        )
    for block in blocks:
        if device is OffloadDevice.CPU:
            off = ActivationOffloader()
        elif device is OffloadDevice.NVME:
            if store is None:
                raise ValueError("NVMe activation offload requires a tensor store")
            off = NVMeActivationOffloader(store)
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unsupported activation device {device}")
        block.offloader = off
