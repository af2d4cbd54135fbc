"""Bug: the bucket flush exchanges with its peers *inside* the bucket
critical section.

Under the process-parallel backend a flush first fetches the peers'
filled parts of the bucket (one ring exchange, a chunk rendezvous per
slot) and only then enters the ``bucket`` critical section to reduce.
Here the order is swapped: the exchange is issued between
``on_lock_acquire("bucket")`` and its release, so the rank blocks in a
barrier while it holds the bucket — a peer that needs the bucket to reach
that barrier never arrives.  The schedule is recorded through the real
:class:`SymbolicBackend` ``out=`` exchange, the way extraction sees it.

Static corpus: ``build()`` returns the ScheduleIR; the harness runs
``verify_schedule`` over it and asserts exactly ``EXPECT`` fires.
"""

import numpy as np

from repro.check.static import ScheduleIR
from repro.check.static.extract import SymbolicBackend
from repro.check.static.record import ScheduleRecorder

EXPECT = "static-lock-rendezvous"


def build():
    world = 2
    schedules = []
    for rank in range(world):
        rec = ScheduleRecorder(world, rank=rank)
        backend = SymbolicBackend(world, rank, rec)
        inputs = [np.zeros(64, dtype=np.float32) for _ in range(world)]
        rec.on_lock_acquire("bucket")
        # <- the bug: the flush's exchange, under the bucket lock
        backend.exchange(out=inputs, entries=3, fill=64)
        rec.on_lock_release("bucket")
        schedules.append(rec.rank_schedule(rank))
    return ScheduleIR(
        world=world,
        ranks=tuple(schedules),
        mode="mp",
        label="corpus:flush_exchange_under_bucket_lock",
    )
