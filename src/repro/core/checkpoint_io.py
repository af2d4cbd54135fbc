"""Training-state checkpointing for the ZeRO-Infinity engine.

Real large-model training cannot gather a consolidated checkpoint on one
process (the model may not fit anywhere); DeepSpeed therefore writes
*sharded* checkpoints — each rank persists its own parameter and optimizer
shards.  :func:`save_checkpoint` / :func:`load_checkpoint` write and read
that format over a directory: every (group, rank) parameter shard and fp32
optimizer-state shard of every parameter group
(:class:`~repro.core.partition.ParamGroup`), plus a JSON manifest with the
layout (world size, stage, each group's members and their shapes, step
counters, loss-scale state).  Loading requires an engine with the same
world size and groups; :func:`reshard_checkpoint` rewrites a checkpoint
for another world size.

Checkpoint layout (format version 2; version 1 kept one file per
parameter and is not read)::

    <dir>/manifest.json
    <dir>/param/<group>.r<rank>.npy          parameter shard
    <dir>/optim/<group>.r<rank>.<kind>.npy   fp32 master / exp_avg / exp_avg_sq

The layout does not depend on where the optimizer keeps its master: for a
group whose master is its own fp32 record
(:meth:`~repro.core.zero_optimizer.ZeroPartitionedAdam.master_is_param`)
the ``master`` file is written from that record, and loading it installs
the parameter shard again.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.engine import ZeroInfinityEngine
from repro.tensor.flat import partition_bounds, partition_padded_size

MANIFEST = "manifest.json"
FORMAT_VERSION = 2


def _safe(name: str) -> str:
    return name.replace(os.sep, "__")


def _atomic_save(path: str, array: np.ndarray) -> None:
    """Write ``array`` to ``path`` via temp-then-rename.

    A writer killed mid-save must never leave a torn ``.npy`` behind: the
    rename is the commit point, so readers observe either the old complete
    file or the new complete file (same guarantee the spool gives via
    ``TensorStore`` atomic commits, see docs/resilience.md).
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.save(f, array)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_json(path: str, obj: dict) -> None:
    """Commit a JSON document with the same temp-then-rename discipline.

    The manifest is the checkpoint's root pointer — written last, so a
    complete manifest implies every shard file it names is complete.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _param_path(directory: str, group: str, rank: int) -> str:
    return os.path.join(directory, "param", f"{_safe(group)}.r{rank}.npy")


def _optim_path(directory: str, group: str, rank: int, kind: str) -> str:
    return os.path.join(directory, "optim", f"{_safe(group)}.r{rank}.{kind}.npy")


def _read_manifest(directory: str) -> dict:
    with open(os.path.join(directory, MANIFEST)) as f:
        manifest = json.load(f)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format version {version} is not supported: this"
            f" build reads version {FORMAT_VERSION} (one file per parameter"
            f" group and rank)"
        )
    return manifest


def _layout(engine: ZeroInfinityEngine) -> dict:
    """Each group's dtype and members, ``[name, shape]`` in layout order."""
    return {
        g.name: {
            "dtype": str(g.dtype),
            "params": [[p.name, list(p.full_shape)] for p in g.params],
        }
        for g in engine.partitioner.groups
    }


def save_checkpoint(engine: ZeroInfinityEngine, directory: str) -> dict:
    """Persist a sharded checkpoint; returns the manifest written."""
    os.makedirs(os.path.join(directory, "param"), exist_ok=True)
    os.makedirs(os.path.join(directory, "optim"), exist_ok=True)
    world = engine.config.world_size
    opt = engine.optimizer
    if not opt._initialized:
        opt.initialize_states()

    steps = {}
    for group in engine.partitioner.groups:
        for rank in range(world):
            if group.partitioned:
                shard = engine.offload.fetch(group.key(rank), rank=rank)
            else:
                shard = group.shard(group.flat, rank)
            _atomic_save(_param_path(directory, group.name, rank), shard)
            ref = opt._refs[(group.gid, rank)]
            for kind in opt.STATE_KINDS:
                state = engine.offload.fetch(getattr(ref, kind), rank=rank)
                _atomic_save(_optim_path(directory, group.name, rank, kind), state)
            steps[f"{group.name}|{rank}"] = ref.step

    manifest = {
        "format_version": FORMAT_VERSION,
        "world_size": world,
        "stage": int(engine.config.stage),
        "steps_taken": engine.steps_taken,
        "steps_skipped": engine.steps_skipped,
        "loss_scale": engine.scaler.loss_scale,
        "groups": _layout(engine),
        "optimizer_steps": steps,
    }
    _atomic_json(os.path.join(directory, MANIFEST), manifest)
    return manifest


def load_checkpoint(engine: ZeroInfinityEngine, directory: str) -> dict:
    """Restore a sharded checkpoint into a compatible engine.

    The engine must have the same world size and parameter groups: the
    same names, members and shapes.  Returns the manifest.
    """
    manifest = _read_manifest(directory)
    world = engine.config.world_size
    if manifest["world_size"] != world:
        raise ValueError(
            f"checkpoint written for world {manifest['world_size']},"
            f" engine has {world}"
        )
    layout = _layout(engine)
    if layout != manifest["groups"]:
        differ = sorted(
            name
            for name in set(layout) | set(manifest["groups"])
            if layout.get(name) != manifest["groups"].get(name)
        )
        raise ValueError(f"parameter group name or layout mismatch, e.g. {differ[:5]}")

    opt = engine.optimizer
    if not opt._initialized:
        opt.initialize_states()
    for group in engine.partitioner.groups:
        for rank in range(world):
            shard = np.load(_param_path(directory, group.name, rank))
            if group.partitioned:
                engine.partitioner.update_shard(group, rank, shard)
            else:
                group.shard(group.flat, rank)[...] = shard
            for kind in opt.STATE_KINDS:
                state = np.load(_optim_path(directory, group.name, rank, kind))
                opt.load_state(group, rank, kind, state)
            opt._refs[(group.gid, rank)].step = manifest["optimizer_steps"][
                f"{group.name}|{rank}"
            ]

    engine.steps_taken = manifest["steps_taken"]
    engine.steps_skipped = manifest["steps_skipped"]
    if hasattr(engine.scaler, "scale"):
        engine.scaler.scale = manifest["loss_scale"]
    return manifest


def reshard_checkpoint(
    src_directory: str, dst_directory: str, new_world_size: int
) -> dict:
    """Convert a sharded checkpoint to a different world size.

    The elastic-training feature (DeepSpeed's "universal checkpoint"): a
    run saved on N ranks resumes on M.  Each group's parameter shards and
    fp32 optimizer-state shards are concatenated, stripped of the old
    padding, re-padded for the new world size and re-split.  Optimizer step
    counts carry over (they are per group, not per rank).
    """
    if new_world_size <= 0:
        raise ValueError("new_world_size must be positive")
    manifest = _read_manifest(src_directory)
    old_world = manifest["world_size"]
    os.makedirs(os.path.join(dst_directory, "param"), exist_ok=True)
    os.makedirs(os.path.join(dst_directory, "optim"), exist_ok=True)

    new_steps: dict[str, int] = {}
    for name, meta in manifest["groups"].items():
        numel = sum(int(np.prod(shape, dtype=np.int64)) for _, shape in meta["params"])
        new_shard = partition_padded_size(max(numel, 1), new_world_size) // new_world_size

        def resplit(path_fn) -> None:
            full = np.concatenate(
                [np.load(path_fn(src_directory, r)) for r in range(old_world)]
            )
            for r in range(new_world_size):
                lo, hi = partition_bounds(numel, new_world_size, r)
                shard = np.zeros(new_shard, dtype=full.dtype)
                shard[: hi - lo] = full[lo:hi]
                _atomic_save(path_fn(dst_directory, r), shard)

        resplit(lambda d, r: _param_path(d, name, r))
        for kind in ("master", "exp_avg", "exp_avg_sq"):
            resplit(lambda d, r, k=kind: _optim_path(d, name, r, k))
        # step counts are uniform across a group's ranks
        step = manifest["optimizer_steps"][f"{name}|0"]
        new_steps.update({f"{name}|{r}": step for r in range(new_world_size)})

    new_manifest = dict(manifest)
    new_manifest["world_size"] = new_world_size
    new_manifest["optimizer_steps"] = new_steps
    _atomic_json(os.path.join(dst_directory, MANIFEST), new_manifest)
    return new_manifest
