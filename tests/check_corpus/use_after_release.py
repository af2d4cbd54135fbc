"""Bug: compute touches a parameter after the partitioner released it.

The classic ZeRO-3 lifecycle bug — a module keeps a reference to
``param.data`` across a release (or a hook ordering change defers the
re-gather) and the next matmul silently runs on an empty placeholder.
ZeroSan's tripwire placeholder reports at the offending ufunc.
"""

from repro.core.config import OffloadConfig
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn import Linear
from repro.utils.rng import seeded_rng

EXPECT = "use-after-release"
PASSES = "zerosan"


def trigger():
    lin = Linear(8, 8, rng=seeded_rng(0))
    weight = lin._parameters["weight"]
    part = ParameterPartitioner(2, offload=InfinityOffloadEngine(OffloadConfig()))
    part.partition([weight])
    part.gather(weight)
    part.release(weight)
    # the buggy module computes without re-gathering first
    return weight.data * 2.0
