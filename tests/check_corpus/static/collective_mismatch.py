"""Bug: two ranks issue different collectives at the same schedule index.

The classic conditional-collective bug: rank 1 takes an extra code path
and calls ``reduce_scatter`` where every other rank calls ``allgather``.
At runtime the mp transport hashes both streams and the CRC digests
disagree at the next chunk rendezvous — a ``CommDivergence`` abort after
the step has already burned compute.  The static verifier proves the
mismatch from the extracted schedules alone, reporting the exact index
and both ops before any rank launches.

Static corpus: ``build()`` returns the ScheduleIR; the harness runs
``verify_schedule`` over it and asserts exactly ``EXPECT`` fires.
"""

from tests.schedule_builder import ScheduleBuilder

EXPECT = "static-collective-divergence"


def build():
    b = ScheduleBuilder(2, label="corpus:collective_mismatch")
    b.collective(None, "allgather", "float32", 64)
    # <- the bug: rank 1 diverges at collective #1
    b.collective(0, "allgather", "float32", 64)
    b.collective(1, "reduce_scatter", "float32", 64)
    b.barrier()
    return b.build()
