"""Bug: a gather leak, seen identically by ZeroSan and the memory scope.

Same defect as ``gather_leak.py`` — the release hook never fires — but
observed through both lenses at once: :mod:`repro.obs.memscope` shows the
leaked bytes sitting in the ``gather_buffer`` category attributed to the
exact parameter that ZeroSan's step-boundary sweep then names.  The two
observers agreeing is the point: attribution tells you *who* is leaking,
the sanitizer tells you *that* it is a bug.
"""

from repro.check import get_checker
from repro.core.config import OffloadConfig
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn import Linear
from repro.obs.memscope import use_memscope
from repro.utils.rng import seeded_rng

EXPECT = "gather-leak"
PASSES = "zerosan"


def trigger():
    with use_memscope() as scope:
        lin = Linear(8, 8, rng=seeded_rng(0))
        weight = lin._parameters["weight"]
        part = ParameterPartitioner(
            2, offload=InfinityOffloadEngine(OffloadConfig())
        )
        part.partition([weight])
        before = scope.breakdown("gpu").get("gather_buffer", 0)
        part.gather(weight)
        # ... forward runs, but the release hook never fires ...
        leaked = scope.breakdown("gpu").get("gather_buffer", 0) - before
        assert leaked == weight.data.nbytes, "scope must see the full gather"
        assert scope.owners("gpu", category="gather_buffer") == [
            (f"g{weight.group.gid}", "gather_buffer", leaked)
        ], "attribution must name the leaking parameter's group"
        get_checker().on_step_boundary([weight.unique_id])
