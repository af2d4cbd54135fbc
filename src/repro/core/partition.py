"""Parameter partitioning: the bandwidth-centric layout (Sec. 6.1).

ZeRO and ZeRO-Offload give each parameter one owner process, which reads it
over its own PCIe link and broadcasts it, so only one link is active per
parameter.  ZeRO-Infinity shards every parameter across *all* processes:
before use every rank pulls its 1/dp slice over its own link and the shards
are allgathered, so every link is active and effective slow-memory
bandwidth scales linearly with dp.  The wire volume of the broadcast and the
allgather is the same (the paper's observation); what changes is how many
host links it is spread across, which the offload engine's per-link
counters capture.  This module implements the sharded layout only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.check.runtime import CheckContext, get_checker
from repro.comm.group import ProcessGroup
from repro.core.config import OffloadDevice
from repro.core.offload import InfinityOffloadEngine
from repro.nn.parameter import Parameter, PartitionState
from repro.obs.memscope import get_memscope
from repro.tensor.flat import pad_to_multiple, partition_bounds


@dataclass
class ZeroParamMeta:
    """Bookkeeping attached to a partitioned parameter (``param.zero_meta``)."""

    full_shape: tuple[int, ...]
    np_dtype: np.dtype
    world_size: int
    padded_numel: int
    shard_numel: int
    device: OffloadDevice

    @property
    def full_numel(self) -> int:
        n = 1
        for s in self.full_shape:
            n *= s
        return n


class ParameterPartitioner:
    """Splits, gathers, releases and updates partitioned parameters."""

    def __init__(
        self,
        world_size: int,
        *,
        offload: InfinityOffloadEngine,
        comm: Optional[ProcessGroup] = None,
        check: Optional[CheckContext] = None,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.world_size = world_size
        self.offload = offload
        self._check = check if check is not None else get_checker()
        self.comm = comm or ProcessGroup(world_size, check=self._check)
        # Gather buffers, recycled: a gathered parameter's ``data`` is a view
        # of one flat padded buffer (``_gathered``, by ``unique_id``) that
        # every rank's shard was fetched straight into; release parks it on
        # the free list of its (dtype, padded numel) for the next gather of
        # that size — the same parameter's, or a same-shaped layer's.  No
        # more buffers of a size ever exist than were live at once.
        self._gathered: dict[int, np.ndarray] = {}
        self._free_flats: dict[tuple[np.dtype, int], list[np.ndarray]] = {}
        # shard keys are rebuilt for every fetch on the hot path; memoise
        # the f-string formatting per (param, rank, kind)
        self._key_cache: dict[tuple[int, int, str], str] = {}

    # --- keys -------------------------------------------------------------------
    def _key(self, param: Parameter, rank: int, kind: str = "param16") -> str:
        ident = (param.unique_id, rank, kind)
        key = self._key_cache.get(ident)
        if key is None:
            key = f"p{param.unique_id}.r{rank}.{kind}"
            self._key_cache[ident] = key
        return key

    # --- checker hooks ----------------------------------------------------------
    def _zerosan(self):
        """The lifecycle sanitizer, or ``None`` (the disabled fast path)."""
        ck = self._check
        return None if ck is None else ck.zerosan

    def _released_data(self, param: Parameter, dtype) -> np.ndarray:
        """The placeholder installed as ``param.data`` while partitioned.

        With ZeroSan enabled this is a tripwire array that reports
        use-after-release at the offending ufunc; otherwise the plain empty
        array the engine has always used.
        """
        san = self._zerosan()
        if san is not None:
            return san.placeholder(param, dtype)
        return np.empty(0, dtype=dtype)  # lint: allow-rawalloc

    # --- gather-buffer accounting (memscope) ------------------------------------
    @staticmethod
    def _gather_bytes(meta: "ZeroParamMeta") -> int:
        return meta.padded_numel * np.dtype(meta.np_dtype).itemsize

    def _account_gather(self, param: Parameter) -> None:
        scope = get_memscope()
        if scope.enabled:
            scope.alloc(
                "gpu",
                self._gather_bytes(param.zero_meta),
                category="gather_buffer",
                owner=f"p{param.unique_id}",
            )

    def _account_release(self, param: Parameter) -> None:
        scope = get_memscope()
        if scope.enabled:
            scope.free(
                "gpu",
                self._gather_bytes(param.zero_meta),
                category="gather_buffer",
                owner=f"p{param.unique_id}",
            )

    # --- partition -------------------------------------------------------------
    def partition(self, param: Parameter) -> None:
        """Shard ``param`` and hand the shards to the offload engine.

        After this call ``param.data`` is an empty placeholder and
        ``param.state`` is ``PARTITIONED``; compute must not touch it until
        :meth:`gather` runs.
        """
        if param.state is not PartitionState.AVAILABLE:
            raise RuntimeError(f"cannot partition {param}: state={param.state}")
        flat = param.data.reshape(-1)
        numel = int(flat.size)
        padded = pad_to_multiple(max(numel, 1), self.world_size)
        shard_numel = padded // self.world_size

        for rank in range(self.world_size):
            lo, hi = partition_bounds(numel, self.world_size, rank)
            shard = np.zeros(shard_numel, dtype=flat.dtype)  # lint: allow-rawalloc
            if hi > lo:
                shard[: hi - lo] = flat[lo:hi]
            self.offload.stash(
                self._key(param, rank, "param16"),
                shard,
                self.offload.config.param_device,
                rank=rank,
            )

        param.zero_meta = ZeroParamMeta(
            full_shape=tuple(param.data.shape),
            np_dtype=param.data.dtype,
            world_size=self.world_size,
            padded_numel=padded,
            shard_numel=shard_numel,
            device=self.offload.config.param_device,
        )
        san = self._zerosan()
        if san is not None:
            san.on_partition(param)
        param.data = self._released_data(param, flat.dtype)
        param.state = PartitionState.PARTITIONED

    # --- gather ------------------------------------------------------------------
    def _take_flat(self, meta: "ZeroParamMeta") -> np.ndarray:
        """A flat gather buffer for ``meta``: recycled, else freshly made."""
        free = self._free_flats.get((meta.np_dtype, meta.padded_numel))
        if free:
            return free.pop()
        # charged to memscope while a parameter lives in it (_account_gather)
        return np.empty(meta.padded_numel, dtype=meta.np_dtype)  # lint: allow-rawalloc

    def _install(self, param: Parameter, flat: np.ndarray) -> None:
        """``flat`` now holds ``param`` in full: make it the live tensor."""
        meta: ZeroParamMeta = param.zero_meta
        self._gathered[param.unique_id] = flat
        param.data = flat[: meta.full_numel].reshape(meta.full_shape)
        param.state = PartitionState.AVAILABLE
        self._account_gather(param)

    def gather(self, param: Parameter) -> None:
        """Reconstruct the full parameter on every rank.

        Idempotent: gathering an AVAILABLE parameter is a no-op, which is
        what lets external-parameter interception call it defensively.
        """
        if param.state is PartitionState.AVAILABLE:
            return
        if param.zero_meta is None:
            raise RuntimeError("gather on a parameter that was never partitioned")
        self._gather_group([param])

    # --- coalesced gather (module granularity) -----------------------------------
    @staticmethod
    def _by_dtype(params) -> list[list[Parameter]]:
        """The still-partitioned ``params``, grouped by dtype in order."""
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in params:
            if p.state is PartitionState.PARTITIONED and p.zero_meta is not None:
                by_dtype.setdefault(np.dtype(p.zero_meta.np_dtype), []).append(p)
        return list(by_dtype.values())

    def gather_coalesced(self, params: Sequence[Parameter]) -> int:
        """Reconstruct a module's worth of parameters from one allgather.

        The paper's bandwidth-centric retrieval fetches "a layer's worth"
        of shards per collective (Sec. 5.1/6.1): every still-partitioned
        parameter takes a flat gather buffer, each rank's shard is fetched
        straight to its final place in it, and a single coalesced allgather
        completes all of them — one collective per (module, dtype) instead
        of one per parameter, with identical bytes to per-parameter
        :meth:`gather`, and each byte copied once.  Returns the number of
        parameters made AVAILABLE.
        """
        groups = self._by_dtype(params)
        for group in groups:
            self._gather_group(group)
        return sum(len(group) for group in groups)

    def _gather_group(self, group: list[Parameter]) -> None:
        """Gather same-dtype sharded parameters with one allgather."""
        world = self.world_size
        san = self._zerosan()
        if san is not None:
            for p in group:
                san.on_gather_begin(p)
        flats = [self._take_flat(p.zero_meta) for p in group]
        # shards[r][i]: where rank r's shard of group[i] belongs in its buffer
        shards = [
            [
                flat[r * p.zero_meta.shard_numel : (r + 1) * p.zero_meta.shard_numel]
                for p, flat in zip(group, flats)
            ]
            for r in range(world)
        ]
        # storage -> final position, no intermediate copy; the in-place
        # allgather then finds every shard already where it goes
        for r in range(world):
            for p, dest in zip(group, shards[r]):
                self.offload.fetch_into(self._key(p, r, "param16"), dest, rank=r)
        self.comm.allgather_into(shards, flats)
        for p, flat in zip(group, flats):
            self._install(p, flat)
            if san is not None:
                san.on_gather_end(p)

    def coalesced_fetch_plan(
        self, params: Sequence[Parameter]
    ) -> tuple[list[str], list[int]]:
        """Keys and their ranks, as parallel lists, in the order
        :meth:`gather_coalesced` fetches.

        The prefetcher reads ahead along this plan — one bulk
        ``offload.prefetch(keys, rank=ranks)`` per module — so its in-flight
        records line up with the coalesced gather that will consume them.
        """
        keys: list[str] = []
        ranks: list[int] = []
        for group in self._by_dtype(params):
            for r in range(self.world_size):
                keys.extend(self._key(p, r, "param16") for p in group)
                ranks.extend([r] * len(group))
        return keys, ranks

    def release(self, param: Parameter) -> None:
        """Drop the full tensor after use; shards remain at their home tier.

        The inverse of :meth:`gather` — "after the execution of the
        operator, ZeRO-3 also removes the parameters" (Sec. 2).
        """
        if param.state is not PartitionState.AVAILABLE or param.zero_meta is None:
            return
        meta: ZeroParamMeta = param.zero_meta
        san = self._zerosan()
        if san is not None:
            san.on_release(param)
        self._account_release(param)
        param.data = self._released_data(param, meta.np_dtype)
        param.state = PartitionState.PARTITIONED
        box = [self._gathered.pop(param.unique_id)]
        if san is not None:
            # boxed: see on_recycle — it counts references to the buffer
            san.on_recycle(param, box)
        self._free_flats.setdefault((meta.np_dtype, meta.padded_numel), []).extend(
            box
        )

    # --- shard access (optimizer path) -----------------------------------------
    def get_shard(self, param: Parameter, rank: int) -> np.ndarray:
        """This rank's fp16 shard."""
        return self.offload.fetch(self._key(param, rank, "param16"), rank=rank)

    def shard_out(self, param: Parameter, rank: int) -> Optional[np.ndarray]:
        """Rank ``r``'s stored fp16 shard itself, when it lives in memory.

        For the optimizer to write its update straight into: handing that
        same array to :meth:`update_shard` afterwards installs it without
        moving a byte.  ``None`` when the shard is an NVMe record.
        """
        return self.offload.resident(self._key(param, rank, "param16"))

    def update_shard(self, param: Parameter, rank: int, new_shard: np.ndarray) -> None:
        """Write back an updated fp16 shard (post optimizer step)."""
        meta: ZeroParamMeta = param.zero_meta
        if new_shard.size != meta.shard_numel:
            raise ValueError(
                f"shard size {new_shard.size} != expected {meta.shard_numel}"
            )
        self.offload.stash(
            self._key(param, rank, "param16"),
            new_shard.astype(meta.np_dtype, copy=False),
            self.offload.config.param_device,
            rank=rank,
        )

    def free(self, param: Parameter) -> None:
        """Drop every stored shard of ``param`` (used when a parameter is
        replaced, e.g. by memory-centric tiling)."""
        meta: ZeroParamMeta = param.zero_meta
        if meta is None:
            return
        if param.state is PartitionState.AVAILABLE:
            # a gathered copy is being dropped along with the shards
            # (memory-centric tiling replaces the parameter wholesale); its
            # buffer's size will not be asked for again, so it is not kept
            self._account_release(param)
            self._gathered.pop(param.unique_id, None)
        for r in range(meta.world_size):
            self.offload.discard(self._key(param, r, "param16"))
        param.zero_meta = None
