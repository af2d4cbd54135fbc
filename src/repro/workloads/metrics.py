"""Structured run metrics: JSONL logging.

Long training runs need durable metrics, not stdout.  :class:`MetricsLogger`
appends one JSON object per event to a file (the format every experiment
dashboard ingests), flushes eagerly by default so crashes lose at most one
line (``flush_every`` trades that durability for throughput in tight
loops).  The Trainer accepts a logger via its ``metrics`` hook, and the
live telemetry plane writes its per-rank shards through one.
"""

from __future__ import annotations

import json
import os


class MetricsLogger:
    """Append-only JSONL event log for a training run."""

    def __init__(
        self, path: str, *, run_name: str = "", flush_every: int = 1
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.run_name = run_name
        self.flush_every = flush_every
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "a")
        self._events = 0
        self._closed = False

    def log(self, event: str, **fields) -> None:
        """Record one event; fields must be JSON-serialisable.

        Raises :class:`ValueError` after :meth:`close` — a late logger is
        a bug in the caller's lifecycle, not something to swallow.
        """
        if self._closed:
            raise ValueError(
                f"MetricsLogger for {self.path!r} is closed; cannot log"
                f" {event!r}"
            )
        record = {"event": event, "seq": self._events}
        if self.run_name:
            record["run"] = self.run_name
        record.update(fields)
        json.dump(record, self._fh, sort_keys=True)
        self._fh.write("\n")
        self._events += 1
        if self._events % self.flush_every == 0:
            self._fh.flush()  # crash-durable up to flush_every lines

    def log_step(self, step: int, loss: float, lr: float, **extra) -> None:
        self.log("step", step=step, loss=float(loss), lr=float(lr), **extra)

    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self) -> None:
        """Force buffered lines to disk without closing (idempotent).

        Abort paths call this so a worker killed right after an abort
        never leaves a shard missing its most recent events.
        """
        if not self._closed and not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "MetricsLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
