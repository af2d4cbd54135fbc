"""Bug: two async reads land in overlapping buffer memory with no wait.

A staging-buffer reuse bug — the prefetcher re-issues a read into a pinned
buffer whose previous fill is still in flight; whichever I/O completes
last wins, nondeterministically.  The detector is driven directly (with
never-completing requests) so the race window is deterministic.
"""

import numpy as np

from repro.obs import planes

EXPECT = "aio-double-submit"
PASSES = "races"


def trigger():
    races = planes.checker.races
    staging = np.zeros(1024, dtype=np.float32)
    races.on_submit_read(1, staging[:512], done=lambda: False)
    races.on_submit_read(2, staging[256:768], done=lambda: False)
