"""Bug: a group's resident buffer is dropped outside the partitioner.

Code that clears ``group.flat`` by hand (e.g. a checkpoint restore path
bypassing ``release``) defeats the partitioner's idempotence check: the
next gather allgathers on top of still-resident tensors.  ZeroSan's shadow
state machine catches the second gather.
"""

from repro.core.config import OffloadConfig
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn import Linear
from repro.utils.rng import seeded_rng

EXPECT = "double-gather"
PASSES = "zerosan"


def trigger():
    lin = Linear(8, 8, rng=seeded_rng(0))
    weight = lin._parameters["weight"]
    part = ParameterPartitioner(2, offload=InfinityOffloadEngine(OffloadConfig()))
    part.partition([weight])
    part.gather(weight)
    weight.group.flat = None  # the corruption
    part.gather(weight)  # shadow state still "available"
