"""Mixed-precision Adam(W) on flat buffers.

The update is factored as a pure function :func:`adam_step` over 1-D numpy
buffers so that every ZeRO variant can reuse it unchanged:

* the data-parallel baseline calls it on each full parameter;
* ZeRO-1/2/3 call it on each rank's optimizer-state shard, in place where
  the shard lives (the stored array of a resident tier, the pinned staging
  view of an NVMe one), one sub-group span at a time.

It is the only Adam arithmetic in the tree: loss-scale undo, clipping and
the low-precision parameter cast-back are arguments of the kernel, not
passes around it.

State per element is the paper's 16 bytes: fp32 momentum, fp32 variance,
fp32 master parameter (+ the fp32 master gradient staged transiently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.nn.parameter import Parameter


@dataclass
class AdamState:
    """Per-parameter(-shard) fp32 state."""

    master: np.ndarray  # fp32 master copy of the (shard of the) parameter
    exp_avg: np.ndarray  # first moment
    exp_avg_sq: np.ndarray  # second moment
    step: int = 0

    @staticmethod
    def init(values: np.ndarray) -> "AdamState":
        master = values.astype(np.float32).reshape(-1).copy()
        return AdamState(
            master=master,
            exp_avg=np.zeros_like(master),
            exp_avg_sq=np.zeros_like(master),
        )


#: Elements per tile of :func:`adam_step`.  The six fp32 tiles one pass
#: touches (master, both moments, gradient, two scratch) are 768 KB, so the
#: ~10 ufunc sweeps of the update and the parameter cast-back run out of
#: cache and each state element crosses the memory bus once per step.
TILE_NUMEL = 1 << 15


def adam_step(
    master: np.ndarray,
    grad: np.ndarray,
    exp_avg: np.ndarray,
    exp_avg_sq: np.ndarray,
    *,
    step: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
    grad_scale: float = 1.0,
    param_out: Optional[np.ndarray] = None,
) -> None:
    """One in-place Adam(W) update on fp32 flat buffers.

    ``step`` is 1-based (bias correction uses it directly).  Decoupled
    weight decay (AdamW) is applied when ``weight_decay > 0``.

    The update runs tile by tile (:data:`TILE_NUMEL`) with no temporary
    larger than a tile, and folds its two neighbouring passes into the same
    loop — ZeRO-Offload's CPU-Adam with tiled parameter copy-back:

    * ``grad`` (fp16 or fp32) is read, never written: it is upcast and
      divided by ``grad_scale`` (loss-scale undo, clipping) per tile;
    * ``param_out``, when given, receives the updated master cast to its
      dtype while the tile is still in cache.  It may be shorter than
      ``master``: the zero padding that evens out the last rank's shard has
      no parameter behind it.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    n = master.size
    tile = max(1, min(n, TILE_NUMEL))
    scratch = np.empty((2, tile), dtype=np.float32)
    grad_scale = float(grad_scale)
    c1 = 1.0 - beta1
    c2 = 1.0 - beta2
    bias2 = 1.0 - beta2**step
    step_size = lr / (1.0 - beta1**step)
    decay = lr * weight_decay
    out_numel = 0 if param_out is None else param_out.size
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        a, b = scratch[:, : hi - lo]
        m, ea, es = master[lo:hi], exp_avg[lo:hi], exp_avg_sq[lo:hi]
        g = grad[lo:hi]
        if grad_scale != 1.0:
            g = np.divide(g, grad_scale, out=a, dtype=np.float32)
        elif g.dtype != np.float32:
            a[...] = g
            g = a
        ea *= beta1
        ea += np.multiply(g, c1, out=b)
        es *= beta2
        np.square(g, out=b)
        b *= c2
        es += b
        np.divide(es, bias2, out=b)
        np.sqrt(b, out=b)
        b += eps
        if weight_decay:
            m -= np.multiply(m, decay, out=a)
        np.divide(ea, b, out=b)
        b *= step_size
        m -= b
        if lo < out_numel:
            top = min(hi, out_numel)
            param_out[lo:top] = m[: top - lo]


class Adam:
    """Optimizer over :class:`Parameter` objects (baseline, unpartitioned).

    Keeps fp32 master state per parameter; ``step()`` consumes the fp16 (or
    fp32) ``.grad`` of each parameter, updates the master, and writes the
    cast-back value into ``param.data`` — the standard mixed-precision loop.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        *,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: Optional[float] = None,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self.state: dict[int, AdamState] = {
            p.unique_id: AdamState.init(p.data) for p in self.params
        }

    def global_grad_norm(self) -> float:
        """L2 norm over all gradients (fp32 accumulation)."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                g = p.grad.astype(np.float32, copy=False)
                total += float(np.square(g).sum())
        return float(np.sqrt(total))

    def step(self, *, grad_scale: float = 1.0) -> None:
        """Apply one update; ``grad_scale`` divides grads (loss-scale undo).

        Clipping folds into ``grad_scale`` (both are uniform multipliers),
        so the gradient is rescaled once, inside the kernel, and ``p.grad``
        is left as backward produced it.
        """
        if self.grad_clip is not None:
            norm = self.global_grad_norm() / grad_scale
            if norm > self.grad_clip:
                grad_scale = grad_scale * norm / self.grad_clip
        for p in self.params:
            if p.grad is None:
                continue
            st = self.state[p.unique_id]
            st.step += 1
            flat = p.data.reshape(-1)  # a view, or a copy of strided data
            adam_step(
                st.master,
                p.grad.reshape(-1),
                st.exp_avg,
                st.exp_avg_sq,
                step=st.step,
                lr=self.lr,
                beta1=self.beta1,
                beta2=self.beta2,
                eps=self.eps,
                weight_decay=self.weight_decay,
                grad_scale=grad_scale,
                param_out=flat,
            )
            if not np.may_share_memory(flat, p.data):
                p.data = flat.reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
