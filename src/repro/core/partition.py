"""Parameter groups and the bandwidth-centric layout (Sec. 6.1).

The unit of data movement is the module: hooks gather a submodule's
parameters (Sec. 7.1), and parameters are partitioned per module as its
constructor returns (Sec. 7.2).  So every parameter-owning module's
parameters, per dtype, form one :class:`ParamGroup`: a flat buffer that
lays them out one after another, padded once to a multiple of the world
size.  Rank ``r`` owns elements ``[r*S, (r+1)*S)`` of it for every state
kind — parameter, gradient, master, both moments — so each (group, rank,
kind) is one offload record, and each parameter is a view into its group.

ZeRO and ZeRO-Offload give each parameter one owner process, which reads it
over its own PCIe link and broadcasts it.  ZeRO-Infinity shards every group
across *all* processes: every rank pulls its 1/dp slice over its own link
and the shards are allgathered — the same wire volume (the paper's
observation) spread over dp host links, which the offload engine's
per-link counters capture.  Below stage 3 a group is *replicated*: its flat
buffer is the members' storage for good, and the optimizer updates rank
``r``'s slice of it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.check.runtime import CheckContext, get_checker
from repro.comm.group import ProcessGroup
from repro.core.config import OffloadDevice
from repro.core.offload import InfinityOffloadEngine
from repro.nn.module import Module
from repro.nn.parameter import Parameter, PartitionState
from repro.obs.memscope import get_memscope
from repro.tensor.flat import partition_padded_size


class ParamGroup:
    """One module's parameters of one dtype, laid out flat.

    Members follow one another from element 0 in ``params`` order; the
    whole is padded once to ``padded_numel``, a multiple of the world size,
    and rank ``r`` owns ``[r * shard_numel, (r + 1) * shard_numel)``.
    ``flat`` is the buffer the members are views of: the gathered buffer
    while a partitioned group is resident (else ``None``), and for good
    the replicated buffer of a group with no ``device``.  ``owner`` is the
    ``id`` of the module that registered the members first; ``name`` its
    path in the model once the engine has named the groups.
    """

    __slots__ = (
        "gid", "name", "owner", "params", "spans", "numel", "dtype",
        "padded_numel", "shard_numel", "device", "flat",
    )

    def __init__(
        self,
        gid: int,
        owner: int,
        params: Sequence[Parameter],
        world_size: int,
        device: Optional[OffloadDevice],
    ) -> None:
        self.gid = gid
        self.name = f"g{gid}"
        self.owner = owner
        self.params = list(params)
        # each member's [lo, hi) in the flat layout
        self.spans: list[tuple[int, int]] = []
        numel = 0
        for p in self.params:
            self.spans.append((numel, numel + p.full_numel))
            numel += p.full_numel
        self.numel = numel
        self.dtype = np.dtype(self.params[0].data.dtype)
        self.padded_numel = partition_padded_size(max(numel, 1), world_size)
        self.shard_numel = self.padded_numel // world_size
        self.device = device
        self.flat: Optional[np.ndarray] = None

    def key(self, rank: int, kind: str = "param16") -> str:
        """Offload key of rank ``rank``'s ``kind`` record of this group."""
        return f"g{self.gid}.r{rank}.{kind}"

    @property
    def partitioned(self) -> bool:
        return self.device is not None

    @property
    def nbytes(self) -> int:
        """Bytes of the members themselves, padding excluded."""
        return self.numel * self.dtype.itemsize

    def shard(self, flat: np.ndarray, rank: int) -> np.ndarray:
        """Rank ``rank``'s slice of a flat buffer laid out like this group."""
        s = self.shard_numel
        return flat[rank * s : (rank + 1) * s]

    def install(self, flat: np.ndarray) -> None:
        """``flat`` holds every member in full: make each a view of it."""
        self.flat = flat
        for p, (lo, hi) in zip(self.params, self.spans):
            p.data = flat[lo:hi].reshape(p.full_shape)
            p.state = PartitionState.AVAILABLE


def groups_of(params: Sequence[Parameter]) -> list[ParamGroup]:
    """The groups ``params`` belong to, each once, in order."""
    groups: list[ParamGroup] = []
    for p in params:
        g = p.group
        if g is not None and all(g is not h for h in groups):
            groups.append(g)
    return groups


class ParameterPartitioner:
    """Groups parameters, and splits, gathers, releases and updates groups."""

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
        self.groups: list[ParamGroup] = []
        self._next_gid = 0
        # Gather buffers, recycled: release parks a group's flat buffer on
        # the free list of its (dtype, padded numel) for the next gather of
        # that size — the same group's, or a same-shaped layer's.  No more
        # buffers of a size ever exist than were live at once.
        self._free_flats: dict[tuple[np.dtype, int], list[np.ndarray]] = {}

    # --- checker hooks ----------------------------------------------------------
    def _zerosan(self):
        """The lifecycle sanitizer, or ``None`` (the disabled fast path)."""
        ck = self._check
        return None if ck is None else ck.zerosan

    def _partition_out(self, group: ParamGroup) -> None:
        """Every member's full tensor gives way to a placeholder.

        With ZeroSan enabled the placeholder is a tripwire array that
        reports use-after-release at the offending ufunc; otherwise the
        plain empty array the engine has always used.
        """
        san = self._zerosan()
        for p in group.params:
            if san is not None:
                p.release_data(san.placeholder(p, group.dtype))
            else:
                p.release_data(np.empty(0, dtype=group.dtype))  # lint: allow-rawalloc
        group.flat = None

    # --- gather-buffer accounting (memscope) ------------------------------------
    @staticmethod
    def _account(group: ParamGroup, *, alloc: bool) -> None:
        scope = get_memscope()
        if scope.enabled:
            charge = scope.alloc if alloc else scope.free
            nbytes = group.padded_numel * group.dtype.itemsize
            charge("gpu", nbytes, category="gather_buffer", owner=f"g{group.gid}")

    # --- grouping ---------------------------------------------------------------
    def group_module(self, module: Module, *, partition: bool) -> list[ParamGroup]:
        """Group ``module``'s direct parameters that no group holds yet, one
        group per dtype, and :meth:`partition` or :meth:`replicate` each.

        A parameter several modules register (a tied or external one, Sec.
        7.1) joins the group of the first of them grouped.
        """
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in module.direct_parameters():
            if p.group is None:
                members = by_dtype.setdefault(p.data.dtype, [])
                if all(p is not q for q in members):
                    members.append(p)
        make = self.partition if partition else self.replicate
        return [make(params, owner=module) for params in by_dtype.values()]

    def name_groups(self, model: Module) -> None:
        """Name every group after its owner's path in ``model`` (plus its
        dtype when the owner has groups of two): the name its checkpoint
        files and memory attribution carry."""
        paths = {id(m): path or "model" for path, m in model.named_modules()}
        names = [paths.get(g.owner, g.name) for g in self.groups]
        for group, name in zip(self.groups, names):
            group.name = name if names.count(name) == 1 else f"{name}.{group.dtype}"

    def _new_group(
        self,
        params: Sequence[Parameter],
        owner: Optional[Module],
        device: Optional[OffloadDevice],
    ) -> tuple[ParamGroup, np.ndarray]:
        """A group of ``params``, and their current values laid out flat."""
        for p in params:
            if p.group is not None or p.state is not PartitionState.AVAILABLE:
                raise RuntimeError(f"cannot group {p}: state={p.state}")
        group = ParamGroup(self._next_gid, id(owner), params, self.world_size, device)
        self._next_gid += 1
        self.groups.append(group)
        flat = np.zeros(group.padded_numel, dtype=group.dtype)  # lint: allow-rawalloc
        for p, (lo, hi) in zip(params, group.spans):
            flat[lo:hi] = p.data.reshape(-1)
            p.group = group
        return group, flat

    def replicate(
        self, params: Sequence[Parameter], *, owner: Optional[Module] = None
    ) -> ParamGroup:
        """Group ``params`` without partitioning them: one flat replicated
        buffer becomes their storage, each parameter a view of it."""
        group, flat = self._new_group(params, owner, None)
        group.install(flat)
        return group

    def partition(
        self, params: Sequence[Parameter], *, owner: Optional[Module] = None
    ) -> ParamGroup:
        """Group ``params`` and hand each rank's shard of the group to the
        offload engine.

        After this call every member's ``data`` is an empty placeholder and
        its ``state`` is ``PARTITIONED``; compute must not touch it until
        :meth:`gather` runs.
        """
        device = self.offload.config.param_device
        group, flat = self._new_group(params, owner, device)
        for rank in range(self.world_size):
            self.offload.stash(group.key(rank), group.shard(flat, rank), device, rank=rank)
        san = self._zerosan()
        if san is not None:
            for p in group.params:
                san.on_partition(p)
        self._partition_out(group)
        return group

    # --- gather ------------------------------------------------------------------
    def gather(self, target: Union[Parameter, ParamGroup]) -> None:
        """Reconstruct a parameter's group (or ``target``, a group) in full.

        Idempotent: gathering a resident group is a no-op, which is what
        lets external-parameter interception call it defensively.
        """
        group = target if isinstance(target, ParamGroup) else target.group
        if group is None:
            raise RuntimeError(f"{target} was never partitioned")
        if group.flat is None:
            self._gather(group)

    def gather_coalesced(self, groups: Sequence[ParamGroup]) -> int:
        """Reconstruct a module's worth of groups: one fetch per rank and
        one allgather per group not yet resident.

        The paper's bandwidth-centric retrieval fetches "a layer's worth"
        of shards per collective (Sec. 5.1/6.1): each rank's shard is
        fetched straight to its final place in the group's flat buffer and
        the in-place allgather completes it, each byte copied once.
        Returns the number of groups made resident.
        """
        gathered = 0
        for group in groups:
            if group.flat is None:
                self._gather(group)
                gathered += 1
        return gathered

    def _take_flat(self, group: ParamGroup) -> np.ndarray:
        """A flat gather buffer for ``group``: recycled, else freshly made."""
        free = self._free_flats.get((group.dtype, group.padded_numel))
        if free:
            return free.pop()
        # charged to memscope while a group lives in it (_account)
        return np.empty(group.padded_numel, dtype=group.dtype)  # lint: allow-rawalloc

    def _gather(self, group: ParamGroup) -> None:
        san = self._zerosan()
        if san is not None:
            for p in group.params:
                san.on_gather_begin(p)
        flat = self._take_flat(group)
        shards = [group.shard(flat, r) for r in range(self.world_size)]
        # storage -> final position, no intermediate copy; the in-place
        # allgather then finds every shard already where it goes
        for r, dest in enumerate(shards):
            self.offload.fetch_into(group.key(r), dest, rank=r)
        self.comm.allgather_into(shards, flat)
        group.install(flat)
        self._account(group, alloc=True)
        if san is not None:
            for p in group.params:
                san.on_gather_end(p)

    def release(self, target: Union[Parameter, ParamGroup]) -> None:
        """Drop a resident group's full tensors (a parameter's group, or
        ``target`` itself); the shards remain at their home tier, and the
        flat buffer goes back for the next gather of its size.

        The inverse of :meth:`gather` — "after the execution of the
        operator, ZeRO-3 also removes the parameters" (Sec. 2).
        """
        group = target if isinstance(target, ParamGroup) else target.group
        if group is None or group.flat is None or not group.partitioned:
            return
        san = self._zerosan()
        if san is not None:
            for p in group.params:
                san.on_release(p)
        self._account(group, alloc=False)
        box = [group.flat]
        self._partition_out(group)
        if san is not None:
            # boxed: see on_recycle — it counts references to the buffer
            san.on_recycle(group.params[0], box)
        self._free_flats.setdefault((group.dtype, group.padded_numel), []).extend(box)

    # --- shard access (optimizer, checkpoints) ---------------------------------
    def update_shard(self, group: ParamGroup, rank: int, new_shard: np.ndarray) -> None:
        """Write back rank ``rank``'s updated shard of ``group``."""
        if new_shard.size != group.shard_numel:
            raise ValueError(
                f"shard size {new_shard.size} != expected {group.shard_numel}"
            )
        self.offload.stash(
            group.key(rank),
            new_shard.astype(group.dtype, copy=False),
            group.device,
            rank=rank,
        )

    def free(self, group: ParamGroup) -> None:
        """Drop every stored shard of ``group`` and ungroup its members
        (when they are replaced, e.g. by memory-centric tiling)."""
        if group.flat is not None and group.partitioned:
            # a gathered copy is being dropped along with the shards; its
            # buffer's size will not be asked for again, so it is not kept
            self._account(group, alloc=False)
        group.flat = None
        if group.partitioned:
            for r in range(self.world_size):
                self.offload.discard(group.key(r))
        for p in group.params:
            p.group = None
        self.groups.remove(group)
