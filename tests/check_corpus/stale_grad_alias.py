"""Bug: a backward hook keeps ``weight.grad`` to look at next step.

Gradient arrays are recycled: once the bucket store has reduced a harvested
gradient, the array goes back to its parameter and the next backward's
kernel writes straight into it.  A reference kept past the reduce — here a
"gradient-norm logger" that caches ``self.weight.grad`` and reads it one
step late — still works, and silently reports the *next* step's gradient.
ZeroSan catches it at the cause: the recycle finds a holder of the array
besides the per-rank member list it was harvested into, reports it, and
leaves the array out of the free list.
"""

import numpy as np

from repro.comm.group import ProcessGroup
from repro.core.bucket import GradientBucketStore
from repro.core.partition import ParamGroup
from repro.nn import Linear

EXPECT = "stale-grad-alias"
PASSES = "zerosan"


class GradNormLogger:
    """Logs each step's weight-gradient norm one step late."""

    def __init__(self, layer):
        self.kept = None
        self.norms = []
        layer.register_backward_hook(self)

    def __call__(self, module, grad_input):
        if self.kept is not None:
            self.norms.append(float(np.linalg.norm(self.kept)))
        self.kept = module.weight.grad  # the bug: a reference, not a copy


def trigger():
    world = 1
    layer = Linear(512, 512, bias=False)  # 1 MB of gradient: worth recycling
    logger = GradNormLogger(layer)
    group = ParamGroup(0, id(layer), [layer.weight], world, None)
    store = GradientBucketStore(
        world, 1 << 20, ProcessGroup(world), on_shard=lambda p, r, shard: None
    )
    x = np.ones((2, 512), dtype=np.float32)
    for _ in range(2):
        y = layer(x)
        layer.backward(np.ones_like(y))
        harvested = [[layer.weight.grad]]
        layer.weight.grad = None
        store.add(group, harvested)  # recycles what the logger kept
        store.flush()
    assert logger.norms  # read a step late, from an array since reused
