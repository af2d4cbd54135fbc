"""Bug: a rank blocks at a cross-rank rendezvous while holding a lock.

Rank 0 enters the pinned-pool critical section and then waits on an shm
chunk rendezvous before releasing.  If any peer needs the same pool to
make progress toward that rendezvous (the pool is the shared staging
resource for every offload in flight), the system wedges: rank 0 holds
the lock waiting for peers, peers wait on the lock — a lock-ordering
deadlock the runtime can only hit probabilistically.  The static lock
pass flags *any* blocking rendezvous inside a held pinned-pool or
bucket span, deterministically.

Static corpus: ``build()`` returns the ScheduleIR; the harness runs
``verify_schedule`` over it and asserts exactly ``EXPECT`` fires.
"""

from tests.schedule_builder import ScheduleBuilder

EXPECT = "static-lock-rendezvous"


def build():
    b = ScheduleBuilder(2, label="corpus:lock_rendezvous")
    b.lock_acquire(0, "pinned-pool")
    # <- the bug: rank 0 rendezvouses while holding the pool lock
    b.chunk(None, seq=0, nbytes=4096)
    b.lock_release(0, "pinned-pool")
    return b.build()
