"""Bug: a file-range write races an overlapping read with no join between.

The read-modify-write pattern of gradient accumulation on NVMe: the
accumulator submits the read of a shard range while the previous round's
write to the same range is still in flight — torn bytes.
"""

import numpy as np

from repro.obs import planes

EXPECT = "aio-race"
PASSES = "races"


def trigger():
    races = planes.checker.races
    prev = np.ones(256, dtype=np.float32)
    nxt = np.empty(256, dtype=np.float32)
    races.on_submit_write(
        1, prev, path="/spool/grad.bin", file_lo=0, file_hi=1024,
        done=lambda: False,
    )
    races.on_submit_read(
        2, nxt, path="/spool/grad.bin", file_lo=512, file_hi=1536,
        done=lambda: False,
    )
