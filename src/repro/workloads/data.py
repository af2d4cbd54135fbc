"""Synthetic language-modeling datasets.

:class:`MarkovCorpus` is a first-order Markov chain over the vocabulary
with Zipf-distributed stationary mass.  Next-token prediction has
irreducible entropy, so loss curves behave like language modeling: fast
initial drop, then a floor.  :func:`per_rank_batches` slices any dataset
with a ``sample`` method into deterministic per-rank shards, so
data-parallel runs are reproducible and non-overlapping.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import seeded_rng, spawn_rngs


class MarkovCorpus:
    """First-order Markov token stream with a Zipfian flavour."""

    def __init__(
        self,
        vocab_size: int,
        *,
        seed: int = 0,
        branching: int = 4,
    ) -> None:
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if branching < 1:
            raise ValueError("branching must be >= 1")
        self.vocab_size = vocab_size
        rng = seeded_rng(seed)
        # each token transitions to `branching` successors with Zipf
        # weights (exponent 1.2)
        self._successors = rng.integers(
            0, vocab_size, size=(vocab_size, branching)
        )
        weights = 1.0 / np.arange(1, branching + 1) ** 1.2
        self._weights = weights / weights.sum()

    def sample(
        self, rng: np.random.Generator, *, bsz: int, seq: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, targets)`` where targets are the next tokens."""
        if bsz < 1 or seq < 1:
            raise ValueError("bsz and seq must be positive")
        tokens = np.empty((bsz, seq + 1), dtype=np.int64)
        tokens[:, 0] = rng.integers(0, self.vocab_size, size=bsz)
        choices = rng.choice(
            len(self._weights), size=(bsz, seq), p=self._weights
        )
        for t in range(seq):
            tokens[:, t + 1] = self._successors[tokens[:, t], choices[:, t]]
        return tokens[:, :-1], tokens[:, 1:]


def per_rank_batches(
    dataset,
    *,
    world_size: int,
    bsz_per_rank: int,
    seq: int,
    seed: int = 0,
) -> Iterator[list[tuple[np.ndarray, np.ndarray]]]:
    """Infinite iterator of per-rank batch lists with independent shards."""
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    rngs = spawn_rngs(seed, world_size)
    while True:
        yield [
            dataset.sample(r, bsz=bsz_per_rank, seq=seq) for r in rngs
        ]
