"""Shared-memory transport for the multiprocessing backend.

One :class:`SharedRing` per launch: a single
``multiprocessing.shared_memory`` segment holding a small control block
plus a **double-buffered ring** of per-rank slots.  Layout (all header
words are little-endian int64):

::

    +-----------------------------------------------------------+
    | control block                                             |
    |   [0] magic          0x5A45524F ("ZERO")                  |
    |   [1] epoch          bumped by rank 0 on recovery         |
    |   [2 .. 2+w)         abort flags   (0 none / 1 replay /   |
    |                                     2 terminal)           |
    |   [2+w .. 2+2w)      recovery acks (target epoch per rank)|
    +-----------------------------------------------------------+
    | buffer 0: slot[rank 0] | slot[rank 1] | ... | slot[w-1]   |
    | buffer 1: slot[rank 0] | slot[rank 1] | ... | slot[w-1]   |
    +-----------------------------------------------------------+

    slot := [seq, crc, nbytes, total] int64 header + capacity payload bytes
            (total: bytes of the whole exchange the chunk belongs to)

Chunk ``k`` of an exchange is published to buffer ``k % 2``; one barrier
wait separates publish from read.  Two buffers are exactly sufficient:
chunk ``k+2`` reuses chunk ``k``'s buffer, but it is only written after
barrier ``k+1`` — by which point every peer has finished reading chunk
``k`` (reads happen strictly between barrier ``k`` and barrier ``k+1``).

All numpy views over the segment are created *transiently* per accessor
call so :meth:`destroy` can close the mapping without dangling buffer
exports.  Visibility relies on the barrier's semaphore (a full memory
barrier) between publish and read; the recovery path polls with short
sleeps, which is fine for a rare, failure-only code path.

The parent process creates the segment (children inherit the mapping via
``fork``) and owns its lifetime: :meth:`destroy` is idempotent and hooked
into ``atexit`` plus every launcher error path, so crashed or killed runs
never leak ``/dev/shm/repro_mp_*`` segments.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory

import numpy as np

#: ``/dev/shm`` name prefix — the leak regression test globs for this.
SEGMENT_PREFIX = "repro_mp_"

MAGIC = 0x5A45524F  # "ZERO"

ABORT_NONE = 0
ABORT_REPLAY = 1
ABORT_TERMINAL = 2

#: Payload bytes per ring slot: the chunk size of an exchange.
DEFAULT_SLOT_CAPACITY = 1 << 20

_HEADER_WORDS = 4  # seq, crc, nbytes, total
_WORD = 8


class SharedRing:
    """The control block + double-buffered per-rank slots of one segment."""

    def __init__(
        self, world_size: int, *, slot_capacity: int = DEFAULT_SLOT_CAPACITY
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        if slot_capacity <= 0:
            raise ValueError("slot_capacity must be positive")
        self.world_size = world_size
        self.slot_capacity = int(slot_capacity)
        self._ctrl_words = 2 + 2 * world_size
        self._slot_stride = _HEADER_WORDS * _WORD + self.slot_capacity
        total = self._ctrl_words * _WORD + 2 * world_size * self._slot_stride
        self.name = SEGMENT_PREFIX + secrets.token_hex(8)
        # a fresh segment is zero-filled by the kernel: every header word 0,
        # no abort flag, no ack, epoch 0 — only the magic is set
        self.shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=total
        )
        ctrl = self._ctrl()
        ctrl[0] = MAGIC
        self._destroyed = False

    # --- transient views ---------------------------------------------------------
    def _ctrl(self) -> np.ndarray:
        return np.frombuffer(self.shm.buf, np.int64, count=self._ctrl_words)

    def _slot_off(self, buf: int, rank: int) -> int:
        return (
            self._ctrl_words * _WORD
            + (buf * self.world_size + rank) * self._slot_stride
        )

    def _slot_header(self, buf: int, rank: int) -> np.ndarray:
        return np.frombuffer(
            self.shm.buf,
            np.int64,
            count=_HEADER_WORDS,
            offset=self._slot_off(buf, rank),
        )

    def _slot_data(self, buf: int, rank: int, nbytes: int) -> np.ndarray:
        return np.frombuffer(
            self.shm.buf,
            np.uint8,
            count=nbytes,
            offset=self._slot_off(buf, rank) + _HEADER_WORDS * _WORD,
        )

    # --- slot protocol -----------------------------------------------------------
    def publish(
        self,
        buf: int,
        rank: int,
        *,
        seq: int,
        crc: int,
        total: int,
        data: np.ndarray | None,
    ) -> None:
        """Write one chunk (header + payload) into this rank's slot."""
        nbytes = 0 if data is None else int(data.nbytes)
        if nbytes > self.slot_capacity:
            raise ValueError(
                f"chunk of {nbytes} bytes exceeds slot capacity"
                f" {self.slot_capacity}"
            )
        if nbytes:
            self._slot_data(buf, rank, nbytes)[:] = data
        header = self._slot_header(buf, rank)
        header[0] = seq
        header[1] = crc
        header[2] = nbytes
        header[3] = total

    def read_header(self, buf: int, rank: int) -> tuple[int, int, int, int]:
        """``(seq, crc, nbytes, total)`` of the chunk in a peer's slot."""
        header = self._slot_header(buf, rank)
        return int(header[0]), int(header[1]), int(header[2]), int(header[3])

    def read_data(self, buf: int, rank: int, out: np.ndarray) -> None:
        """Copy a peer's published payload into ``out`` (uint8 view)."""
        out[:] = self._slot_data(buf, rank, int(out.nbytes))

    # --- abort / recovery flags ----------------------------------------------------
    def set_abort(self, rank: int, kind: int) -> None:
        ctrl = self._ctrl()
        # never downgrade: a terminal flag must survive a later replay flag
        ctrl[2 + rank] = max(int(ctrl[2 + rank]), kind)

    def abort_kinds(self) -> list[int]:
        ctrl = self._ctrl()
        return [int(ctrl[2 + r]) for r in range(self.world_size)]

    def clear_aborts(self) -> None:
        ctrl = self._ctrl()
        ctrl[2 : 2 + self.world_size] = ABORT_NONE

    def ack_recovery(self, rank: int, target_epoch: int) -> None:
        ctrl = self._ctrl()
        ctrl[2 + self.world_size + rank] = target_epoch

    def all_recovered(self, target_epoch: int) -> bool:
        ctrl = self._ctrl()
        acks = ctrl[2 + self.world_size : 2 + 2 * self.world_size]
        return bool((acks >= target_epoch).all())

    @property
    def epoch(self) -> int:
        return int(self._ctrl()[1])

    def set_epoch(self, epoch: int) -> None:
        self._ctrl()[1] = epoch

    # --- lifecycle -----------------------------------------------------------------
    def destroy(self) -> None:
        """Close the mapping and unlink the segment (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        try:
            self.shm.close()
        except BufferError:
            # a live numpy view pins the mapping; unlink anyway — the
            # kernel frees the segment once the last mapping dies
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


_TEL_HEADER_WORDS = 2  # seq, nbytes


class TelemetryRing:
    """Lock-free single-writer-per-slot telemetry segment beside the data ring.

    One seqlock slot per rank: ``[seq, nbytes]`` int64 header followed by
    ``slot_capacity`` payload bytes.  The owning rank is the only writer of
    its slot; any process may read any slot at any time.

    Writer protocol (:meth:`put_sample`): bump ``seq`` to odd (write in
    progress), copy the payload, bump ``seq`` to even.  Reader protocol
    (:meth:`read_sample`): load ``seq``; if odd, the slot is mid-write —
    retry; copy the payload; re-load ``seq`` and retry if it changed.
    Readers never block writers and writers never wait, so a wedged
    aggregator cannot stall a rank and a wedged rank cannot stall the
    watchdog — which is the whole point of the health plane.

    Only ``repro.obs.live`` may call :meth:`put_sample`; the
    ``telemetry-ring-write`` lint rule enforces this.
    """

    def __init__(self, world_size: int, *, slot_capacity: int = 4096) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        if slot_capacity <= 0:
            raise ValueError("slot_capacity must be positive")
        self.world_size = world_size
        self.slot_capacity = int(slot_capacity)
        self._slot_stride = _TEL_HEADER_WORDS * _WORD + self.slot_capacity
        total = world_size * self._slot_stride
        self.name = SEGMENT_PREFIX + "tel_" + secrets.token_hex(8)
        # zero-filled by the kernel: every slot starts at seq 0, "no sample"
        self.shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=total
        )
        self._destroyed = False

    def _header(self, rank: int) -> np.ndarray:
        return np.frombuffer(
            self.shm.buf,
            np.int64,
            count=_TEL_HEADER_WORDS,
            offset=rank * self._slot_stride,
        )

    def _payload(self, rank: int, nbytes: int) -> np.ndarray:
        return np.frombuffer(
            self.shm.buf,
            np.uint8,
            count=nbytes,
            offset=rank * self._slot_stride + _TEL_HEADER_WORDS * _WORD,
        )

    def put_sample(self, rank: int, payload: bytes) -> None:
        """Publish ``payload`` into this rank's slot (single-writer seqlock)."""
        nbytes = len(payload)
        if nbytes > self.slot_capacity:
            raise ValueError(
                f"sample of {nbytes} bytes exceeds telemetry slot capacity"
                f" {self.slot_capacity}"
            )
        header = self._header(rank)
        header[0] = int(header[0]) | 1  # odd: write in progress
        self._payload(rank, nbytes)[:] = np.frombuffer(payload, np.uint8)
        header[1] = nbytes
        header[0] = (int(header[0]) | 1) + 1  # even: published

    def read_sample(self, rank: int) -> bytes | None:
        """Copy the latest published payload of ``rank`` (``None`` if empty)."""
        header = self._header(rank)
        for _ in range(64):
            seq0 = int(header[0])
            if seq0 == 0:
                return None
            if seq0 & 1:
                continue  # mid-write
            nbytes = int(header[1])
            data = bytes(self._payload(rank, nbytes))
            if int(header[0]) == seq0:
                return data
        return None  # writer kept racing us; caller treats it as "no news"

    def read_all(self) -> list[bytes | None]:
        return [self.read_sample(r) for r in range(self.world_size)]

    def destroy(self) -> None:
        """Close the mapping and unlink the segment (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        try:
            self.shm.close()
        except BufferError:
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
