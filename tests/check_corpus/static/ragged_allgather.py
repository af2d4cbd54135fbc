"""Bug: one facade call sees per-rank shards of different sizes.

Every rank reaches the same ``allgather`` call, but the shards they
contribute disagree in element count — a partitioning bug (padding
applied on one rank only, a stale shard table, an off-by-one split).
At runtime the functional collective refuses the call with a
``ValueError`` naming every rank's payload; statically it is visible
inside a single schedule event, because the IR records the full per-rank
``(dtype, numel)`` tuple exactly as the call saw it.

Static corpus: ``build()`` returns the ScheduleIR; the harness runs
``verify_schedule`` over it and asserts exactly ``EXPECT`` fires.
"""

from tests.schedule_builder import ScheduleBuilder

EXPECT = "static-collective-shape-mismatch"


def build():
    b = ScheduleBuilder(2, label="corpus:ragged_allgather")
    # <- the bug: rank 1's shard is 12 elements where rank 0's is 8
    b.call("allgather", [("float32", 8), ("float32", 12)])
    b.barrier()
    return b.build()
