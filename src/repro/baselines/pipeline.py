"""Pipeline parallelism (GPipe-style) schedule and bubble model.

Pipeline parallelism splits the layer stack into ``pp`` stages; a batch is
split into ``m`` microbatches streamed through the stages.  The classic
bubble (idle) fraction of the synchronous schedule is

    bubble = (pp - 1) / (m + pp - 1)
"""

from __future__ import annotations


def pipeline_bubble_fraction(pp: int, microbatches: int) -> float:
    """Idle fraction of the synchronous (GPipe) pipeline schedule."""
    if pp <= 0 or microbatches <= 0:
        raise ValueError("pp and microbatches must be positive")
    return (pp - 1) / (microbatches + pp - 1)
