"""Simulated data-parallel communication.

Collectives execute functionally over per-rank numpy buffers in a single
process (loop-over-ranks), so their numerics are real and testable; a
:class:`CommStats` ledger records the data-movement volume of every call so
tests and benches can verify the paper's volume arithmetic (e.g. broadcast
and allgather move the same bytes — Sec. 6.1).
"""

from repro.comm.backend import (
    CommBackend,
    CommDivergence,
    CommError,
    CommPeerAbort,
    CommTimeout,
    LoopBackend,
)
from repro.comm.group import CommStats, ProcessGroup
from repro.comm.launcher import (
    MpRunResult,
    MpSession,
    MpWorkerFailed,
    TraceShard,
    run_multiproc,
)
from repro.comm.mp_backend import MultiprocBackend
from repro.comm.collectives import (  # lint: allow-raw-collective-import
    allgather,
    allgather_into,
    allreduce,
    broadcast,
    gather,
    readonly_slice,
    reduce_scatter,
    reduce_scatter_into,
    scatter,
)
__all__ = [
    "CommBackend",
    "CommDivergence",
    "CommError",
    "CommPeerAbort",
    "CommStats",
    "CommTimeout",
    "LoopBackend",
    "MpRunResult",
    "MpSession",
    "MpWorkerFailed",
    "MultiprocBackend",
    "ProcessGroup",
    "TraceShard",
    "run_multiproc",
    "allgather",
    "allgather_into",
    "allreduce",
    "broadcast",
    "gather",
    "readonly_slice",
    "reduce_scatter",
    "reduce_scatter_into",
    "scatter",
]
