"""Bug: a layer caches ``w.data`` in forward and reads it in backward.

The alias keeps working after the release — it is an ordinary view of the
gather buffer, not the tripwire placeholder — so nothing fails at the point
of use.  But gather buffers are recycled: by the time backward runs, the
buffer may hold whichever parameter was gathered next, and the layer
silently computes with another layer's weights.  ZeroSan catches it at the
cause: the release finds a reference to the buffer that is not the
partitioner's.
"""

import numpy as np

from repro.core.config import OffloadConfig
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn import Module, Parameter
from repro.utils.rng import seeded_rng

EXPECT = "stale-gather-alias"
PASSES = "zerosan"


class CachingLinear(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(
            seeded_rng(0).standard_normal((8, 8)).astype(np.float32)
        )

    def forward(self, x):
        w = self.weight.data
        self._cache = (x, w)  # the bug: the gathered weight, kept for backward
        return x @ w.T

    def _backward(self, grad_y):
        x, w = self._cache
        self._cache = None
        self.weight.accumulate_grad(grad_y.T @ x)
        return grad_y @ w


def trigger():
    layer = CachingLinear()
    weight = layer._parameters["weight"]
    part = ParameterPartitioner(2, offload=InfinityOffloadEngine(OffloadConfig()))
    part.partition([weight])
    x = np.ones((2, 8), dtype=np.float32)
    part.gather(weight)
    y = layer.forward(x)
    part.release(weight)  # the cache still aliases the buffer being recycled
    part.gather(weight)
    layer._backward(np.ones_like(y))
    part.release(weight)
