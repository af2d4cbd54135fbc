"""Activation checkpointing with optional CPU offload of checkpoints.

Sec. 3 / Sec. 5.1.2: activation checkpointing trades ~0.33x extra compute
(one additional forward) for dropping intermediate activations between
checkpoints; ZeRO-Infinity further offloads the retained checkpoints to CPU
memory.  :class:`CheckpointedBlock` wraps any module:

* forward: run the wrapped module, keep only the *input* (the checkpoint) —
  discarding the module's internal caches; optionally move the checkpoint to
  a CPU-tagged buffer through the engine's activation offloader;
* backward: re-run the forward from the checkpoint (recompute), then run the
  real backward.

**Recompute rule: a block recomputes only when dropping its activations
buys memory.**  The last block of a model (``GPTModel`` marks it
``last``) is followed by nothing but the final norm and the head before
its own backward begins, so its activations are needed again at once:
it keeps its inner caches, saves no checkpoint, is never offloaded and
does not recompute.  A one-layer model therefore recomputes nothing, and
activation offload configured on it offloads 0 bytes.  The rule follows
from block position; it is not a setting.

The recompute honours the wrapped module's hooks, so the ZeRO coordinator
re-gathers parameters for recomputation exactly as the paper describes
(the third parameter load counted in the Sec. 4.1 AIT analysis) — for
every block but the last.  It also replays the forward's dropout masks:
the wrapper saves the state of every generator its ``Dropout``
descendants draw from, rewinds them for the recompute and puts the
current state back afterwards, so backward differentiates the forward
that produced the loss.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.nn.layers import Dropout
from repro.nn.module import Module
from repro.obs.memscope import mem_alloc, mem_free


class ActivationOffloader:
    """Destination for checkpoint tensors (CPU offload, Sec. 5.1.2).

    The default implementation copies into a host buffer that memscope
    accounts on the CPU tier; the performance simulator charges PCIe time
    for the same bytes.  Subclass / replace ``save`` and ``load`` to spill
    further (e.g. NVMe, mentioned as future work for the 20T case in
    Sec. 8.2), and ``discard`` so exception unwind can drop a
    saved-but-never-restored checkpoint without inflating the memscope
    watermark.
    """

    _ids = itertools.count()

    def __init__(self) -> None:
        self.owner = f"actckpt.{next(self._ids)}"

    def save(self, array: np.ndarray) -> object:
        mem_alloc(
            "cpu", array.nbytes, category="activation_ckpt", owner=self.owner
        )
        return array.copy()

    def load(self, handle: object) -> np.ndarray:
        array = handle  # type: ignore[assignment]
        mem_free(
            "cpu", array.nbytes, category="activation_ckpt", owner=self.owner
        )
        return array

    def discard(self, handle: object) -> None:
        """Drop a saved checkpoint without restoring it (abort unwind)."""
        array = handle  # type: ignore[assignment]
        mem_free(
            "cpu", array.nbytes, category="activation_ckpt", owner=self.owner
        )


class CheckpointedBlock(Module):
    """Wrap ``inner`` so only its input survives the forward pass (a
    pass-through when it is the model's ``last`` block)."""

    def __init__(
        self, inner: Module, *, offloader: Optional[ActivationOffloader] = None
    ) -> None:
        super().__init__()
        self.inner = inner
        self.offloader = offloader
        self.last = False
        self._checkpoint = None
        self._rngs = list(
            {
                id(m.rng): m.rng
                for m in inner.modules()
                if isinstance(m, Dropout) and m.p > 0
            }.values()
        )
        self._rng_states: list[dict] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.last:
            return self.inner(x)
        if self.offloader is not None:
            self._checkpoint = self.offloader.save(x)
        else:
            self._checkpoint = x
        self._rng_states = [rng.bit_generator.state for rng in self._rngs]
        out = self.inner(x)
        self._drop_inner_caches()
        return out

    def _drop_inner_caches(self) -> None:
        """Free every descendant's activation cache (the memory saving)."""
        for m in self.inner.modules():
            object.__setattr__(m, "_cache", None)

    def _backward(self, grad: np.ndarray) -> np.ndarray:
        if self.last:
            return self.inner.backward(grad)
        if self._checkpoint is None:
            raise RuntimeError("CheckpointedBlock.backward before forward")
        if self.offloader is not None:
            x = self.offloader.load(self._checkpoint)
        else:
            x = self._checkpoint
        self._checkpoint = None
        # Recompute: a second forward that repopulates the inner caches,
        # drawing the dropout masks the first one drew.
        current = [rng.bit_generator.state for rng in self._rngs]
        for rng, state in zip(self._rngs, self._rng_states):
            rng.bit_generator.state = state
        self.inner(x)
        for rng, state in zip(self._rngs, current):
            rng.bit_generator.state = state
        return self.inner.backward(grad)

    def discard_checkpoint(self) -> None:
        """Drop a checkpoint left behind by an aborted step.

        A forward that saves a checkpoint and then raises (or whose step
        is abandoned before backward) would otherwise leak the offloaded
        bytes forever — inflating memscope watermarks across every
        subsequent step.  The engine routes this through the
        ``coordinator.abort_step`` unwind, mirroring the step-boundary
        sweep.
        """
        if self._checkpoint is None:
            return
        handle, self._checkpoint = self._checkpoint, None
        if self.offloader is not None:
            self.offloader.discard(handle)
