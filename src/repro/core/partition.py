"""Parameter partitioning: bandwidth-centric and owner-based layouts.

Sec. 6.1 contrasts two data mappings for offloaded parameters:

* **owner/broadcast** (ZeRO / ZeRO-Offload): each parameter is fully owned
  by one data-parallel process; before use it crosses *that process's* PCIe
  link and is broadcast — only one link active per parameter;
* **bandwidth-centric / allgather** (ZeRO-Infinity): each parameter is
  sharded across *all* processes; before use every rank pulls its 1/dp slice
  over its own link and the shards are allgathered — all links active, so
  effective slow-memory bandwidth scales linearly with dp.

Both layouts are implemented here so the benchmarks can measure the
difference.  The wire volume of broadcast and allgather is identical (the
paper's observation); what changes is how many host links the volume is
spread across, which the offload engine's per-link counters capture.
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
from repro.obs.memscope import attributed_empty, get_memscope
from repro.tensor.flat import pad_to_multiple, partition_bounds


@dataclass
class ZeroParamMeta:
    """Bookkeeping attached to a partitioned parameter (``param.zero_meta``)."""

    full_shape: tuple[int, ...]
    np_dtype: np.dtype
    world_size: int
    padded_numel: int
    shard_numel: int
    owner_rank: Optional[int]  # None => sharded over all ranks
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
        bandwidth_centric: bool = True,
        check: Optional[CheckContext] = None,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.world_size = world_size
        self.offload = offload
        self._check = check if check is not None else get_checker()
        self.comm = comm or ProcessGroup(world_size, check=self._check)
        self.bandwidth_centric = bandwidth_centric
        self._owner_rr = 0  # round-robin owner assignment for owner layout
        # reusable allgather output for gather_coalesced, keyed by dtype;
        # shards are assembled in-place so there is no input staging
        self._coalesce_out: dict[np.dtype, np.ndarray] = {}
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

        if self.bandwidth_centric:
            owner: Optional[int] = None
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
        else:
            owner = self._owner_rr % self.world_size
            self._owner_rr += 1
            padded_full = np.zeros(padded, dtype=flat.dtype)  # lint: allow-rawalloc
            padded_full[:numel] = flat
            self.offload.stash(
                self._key(param, owner, "param16"),
                padded_full,
                self.offload.config.param_device,
                rank=owner,
            )

        param.zero_meta = ZeroParamMeta(
            full_shape=tuple(param.data.shape),
            np_dtype=param.data.dtype,
            world_size=self.world_size,
            padded_numel=padded,
            shard_numel=shard_numel,
            owner_rank=owner,
            device=self.offload.config.param_device,
        )
        san = self._zerosan()
        if san is not None:
            san.on_partition(param)
        param.data = self._released_data(param, flat.dtype)
        param.state = PartitionState.PARTITIONED

    # --- gather ------------------------------------------------------------------
    def gather(self, param: Parameter) -> None:
        """Reconstruct the full parameter on every rank (allgather path).

        Idempotent: gathering an AVAILABLE parameter is a no-op, which is
        what lets external-parameter interception call it defensively.
        """
        if param.state is PartitionState.AVAILABLE:
            return
        meta: ZeroParamMeta = param.zero_meta
        if meta is None:
            raise RuntimeError("gather on a parameter that was never partitioned")
        san = self._zerosan()
        if san is not None:
            san.on_gather_begin(param)
        if meta.owner_rank is None:
            shards = [
                self.offload.fetch(self._key(param, r, "param16"), rank=r)
                for r in range(meta.world_size)
            ]
            gathered = self.comm.allgather(shards)[0]
        else:
            full = self.offload.fetch(
                self._key(param, meta.owner_rank, "param16"), rank=meta.owner_rank
            )
            gathered = self.comm.broadcast(
                [full if r == meta.owner_rank else None for r in range(meta.world_size)],
                root=meta.owner_rank,
            )[0]
        param.data = gathered[: meta.full_numel].reshape(meta.full_shape)
        param.state = PartitionState.AVAILABLE
        self._account_gather(param)
        if san is not None:
            san.on_gather_end(param)

    # --- coalesced gather (module granularity) -----------------------------------
    def _staging(self, dtype: np.dtype, block: int) -> np.ndarray:
        """Reusable allgather output buffer for a shard block (grown on
        demand, never shrunk — no fresh allocation per collective)."""
        out = self._coalesce_out.get(dtype)
        if out is None or out.size < block * self.world_size:
            scope = get_memscope()
            if scope.enabled and out is not None:
                scope.free(
                    "gpu",
                    out.nbytes,
                    category="gather_buffer",
                    owner="coalesce.staging",
                )
            out = attributed_empty(
                block * self.world_size,
                dtype,
                tier="gpu",
                category="gather_buffer",
                owner="coalesce.staging",
            )
            self._coalesce_out[dtype] = out
        return out

    @staticmethod
    def _split_layouts(params) -> tuple[list[Parameter], list[Parameter]]:
        """Partitioned params split into (sharded/allgather, owner/broadcast)."""
        todo = [
            p
            for p in params
            if p.state is PartitionState.PARTITIONED and p.zero_meta is not None
        ]
        sharded = [p for p in todo if p.zero_meta.owner_rank is None]
        owned = [p for p in todo if p.zero_meta.owner_rank is not None]
        return sharded, owned

    def gather_coalesced(self, params: Sequence[Parameter]) -> int:
        """Reconstruct a module's worth of parameters from one allgather.

        The paper's bandwidth-centric retrieval fetches "a layer's worth"
        of shards per collective (Sec. 5.1/6.1): for each rank the shards
        of every still-partitioned parameter are concatenated into a
        reusable staging buffer, a single allgather reconstructs the full
        concatenation, and every parameter is sliced back out — one
        collective per (module, dtype) instead of one per parameter, with
        identical bytes to per-parameter :meth:`gather`.

        Owner-layout (broadcast) parameters fall back to per-parameter
        gathers.  Returns the number of parameters made AVAILABLE.
        """
        sharded, owned = self._split_layouts(params)
        for p in owned:
            self.gather(p)
        gathered = len(owned)
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in sharded:
            by_dtype.setdefault(np.dtype(p.zero_meta.np_dtype), []).append(p)
        for dtype, group in by_dtype.items():
            self._gather_group(dtype, group)
            gathered += len(group)
        return gathered

    def _gather_group(self, dtype: np.dtype, group: list[Parameter]) -> None:
        world = self.world_size
        metas = [p.zero_meta for p in group]
        block = sum(m.shard_numel for m in metas)
        out = self._staging(dtype, block)
        san = self._zerosan()
        if san is not None:
            # staging writes into the reused buffer: void shares from the
            # previous coalesced gather before they read torn data
            san.reclaim(out)
            for p in group:
                san.on_gather_begin(p)
        # zero-copy staging: each rank's shards are fetched straight into
        # their final position in the gather buffer (storage -> out, no
        # intermediate copy); the in-place allgather then detects the
        # pre-assembled slices and moves nothing
        for r in range(world):
            off = r * block
            for p, m in zip(group, metas):
                self.offload.fetch_into(
                    self._key(p, r, "param16"),
                    out[off : off + m.shard_numel],
                    rank=r,
                )
                off += m.shard_numel
        full = self.comm.allgather_into(
            [out[r * block : (r + 1) * block] for r in range(world)], out
        )[0]
        off = 0
        for p, m in zip(group, metas):
            sh = m.shard_numel
            flat = attributed_empty(
                m.padded_numel,
                dtype,
                tier="gpu",
                category="gather_buffer",
                owner=f"p{p.unique_id}",
            )
            for r in range(world):
                flat[r * sh : (r + 1) * sh] = full[r * block + off : r * block + off + sh]
            p.data = flat[: m.full_numel].reshape(m.full_shape)
            p.state = PartitionState.AVAILABLE
            if san is not None:
                san.on_gather_end(p)
            off += sh

    def coalesced_fetch_plan(
        self, params: Sequence[Parameter]
    ) -> list[tuple[str, int]]:
        """(key, rank) pairs in the order :meth:`gather_coalesced` fetches.

        The prefetcher issues lookahead reads along this plan so its
        in-flight fetches line up with the coalesced gather that will
        consume them.
        """
        sharded, owned = self._split_layouts(params)
        plan: list[tuple[str, int]] = [
            (self._key(p, p.zero_meta.owner_rank, "param16"), p.zero_meta.owner_rank)
            for p in owned
        ]
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in sharded:
            by_dtype.setdefault(np.dtype(p.zero_meta.np_dtype), []).append(p)
        for group in by_dtype.values():
            for r in range(self.world_size):
                plan.extend((self._key(p, r, "param16"), r) for p in group)
        return plan

    def release(self, param: Parameter) -> None:
        """Drop the full tensor after use; shards remain at their home tier.

        The inverse of :meth:`gather` — "after the execution of the
        operator, ZeRO-3 also removes the parameters" (Sec. 2).
        """
        if param.state is not PartitionState.AVAILABLE or param.zero_meta is None:
            return
        san = self._zerosan()
        if san is not None:
            san.on_release(param)
        self._account_release(param)
        param.data = self._released_data(param, param.zero_meta.np_dtype)
        param.state = PartitionState.PARTITIONED

    # --- shard access (optimizer path) -----------------------------------------
    def get_shard(self, param: Parameter, rank: int) -> np.ndarray:
        """This rank's fp16 shard (owner layout: the rank's slice of it)."""
        meta: ZeroParamMeta = param.zero_meta
        if meta.owner_rank is None:
            return self.offload.fetch(self._key(param, rank, "param16"), rank=rank)
        full = self.offload.fetch(
            self._key(param, meta.owner_rank, "param16"), rank=meta.owner_rank
        )
        lo = rank * meta.shard_numel
        return full[lo : lo + meta.shard_numel]

    def shard_out(self, param: Parameter, rank: int) -> Optional[np.ndarray]:
        """Rank ``r``'s stored fp16 shard itself, when it lives in memory.

        For the optimizer to write its update straight into: handing that
        same array to :meth:`update_shard` afterwards installs it without
        moving a byte.  ``None`` when the shard is an NVMe record.
        """
        meta: ZeroParamMeta = param.zero_meta
        home = rank if meta.owner_rank is None else meta.owner_rank
        stored = self.offload.resident(self._key(param, home, "param16"))
        if stored is None or meta.owner_rank is None:
            return stored
        lo = rank * meta.shard_numel
        return stored.reshape(-1)[lo : lo + meta.shard_numel]

    def update_shard(self, param: Parameter, rank: int, new_shard: np.ndarray) -> None:
        """Write back an updated fp16 shard (post optimizer step)."""
        meta: ZeroParamMeta = param.zero_meta
        if new_shard.size != meta.shard_numel:
            raise ValueError(
                f"shard size {new_shard.size} != expected {meta.shard_numel}"
            )
        if meta.owner_rank is None:
            self.offload.stash(
                self._key(param, rank, "param16"),
                new_shard.astype(meta.np_dtype, copy=False),
                self.offload.config.param_device,
                rank=rank,
            )
        else:
            # write-through: mutate the owner's stored buffer in place
            # instead of fetching, patching and re-stashing the whole
            # parameter every optimizer step
            self.offload.update_slice(
                self._key(param, meta.owner_rank, "param16"),
                rank * meta.shard_numel,
                new_shard.astype(meta.np_dtype, copy=False),
                rank=meta.owner_rank,
            )

    def free(self, param: Parameter) -> None:
        """Drop every stored shard of ``param`` (used when a parameter is
        replaced, e.g. by memory-centric tiling)."""
        meta: ZeroParamMeta = param.zero_meta
        if meta is None:
            return
        if param.state is PartitionState.AVAILABLE:
            # a gathered copy is being dropped along with the shards
            # (memory-centric tiling replaces the parameter wholesale)
            self._account_release(param)
        ranks = (
            range(meta.world_size) if meta.owner_rank is None else [meta.owner_rank]
        )
        for r in ranks:
            self.offload.discard(self._key(param, r, "param16"))
        param.zero_meta = None
