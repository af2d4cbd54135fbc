"""Bug: a gathered parameter is never released before the step ends.

A skipped post-forward hook (removed, shadowed, or raising early) leaves
the full tensor resident — the leak that erodes ZeRO-3's memory budget one
module at a time.  The step-boundary sweep reports it.
"""

from repro.core.config import OffloadConfig
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn import Linear
from repro.obs import planes
from repro.utils.rng import seeded_rng

EXPECT = "gather-leak"
PASSES = "zerosan"


def trigger():
    lin = Linear(8, 8, rng=seeded_rng(0))
    weight = lin._parameters["weight"]
    part = ParameterPartitioner(2, offload=InfinityOffloadEngine(OffloadConfig()))
    part.partition([weight])
    part.gather(weight)
    # ... forward runs, but the release hook never fires ...
    planes.checker.on_step_boundary([weight.unique_id])
