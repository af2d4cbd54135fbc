"""Bug: a barrier reachable by only some ranks — a guaranteed deadlock.

Rank 0 synchronizes twice (say, an extra checkpoint flush barrier behind
an ``if rank == 0`` guard) while rank 1 synchronizes once and finishes
its step.  Rank 0 then blocks forever in its second barrier: no peer
will ever arrive.  At runtime this hangs the job until a watchdog kills
it; the static deadlock pass finds it by lockstep-simulating the
rendezvous streams and seeing rank 0 waiting while rank 1 has no
matching rendezvous left.

Static corpus: ``build()`` returns the ScheduleIR; the harness runs
``verify_schedule`` over it and asserts exactly ``EXPECT`` fires.
"""

from tests.schedule_builder import ScheduleBuilder

EXPECT = "static-deadlock"


def build():
    b = ScheduleBuilder(2, label="corpus:conditional_barrier")
    b.barrier()
    # <- the bug: only rank 0 reaches the second barrier
    b.barrier(rank=0)
    return b.build()
