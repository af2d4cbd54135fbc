"""Bug: a collective issued only when the process identity matches.

A hypothetical ``repro/core/divergent.py`` gathers a debug summary, but
only on rank 0 — guarded by ``backend.rank``, the one predicate that
genuinely differs across processes.  Rank 0 blocks in the allgather;
every other rank sails past and blocks at the *next* collective, whose
fingerprint no longer lines up: a deadlock or ``CommDivergence``
depending on which rendezvous trips first.  The interprocedural
``rank-divergent-collective`` rule flags any collective reachable only
under a process-identity predicate (turn indices and parameter
metadata are rank-uniform and exempt).

Static corpus: this file is never imported by the runtime checker
harness; the static harness lints its source as if it lived at
``LINT_AS``.
"""

LINT_AS = "repro/core/divergent.py"
EXPECT = "rank-divergent-collective"


def gather_debug_summary(comm, summary):
    if comm.backend.rank == 0:
        # <- the bug: peers never enter this allgather
        return comm.allgather([summary])
    return None
