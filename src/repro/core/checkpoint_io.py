"""Training-state checkpointing for the ZeRO-Infinity engine.

Real large-model training cannot gather a consolidated checkpoint on one
process (the model may not fit anywhere); DeepSpeed therefore writes
*sharded* checkpoints — each rank persists its own parameter and optimizer
shards.  :func:`save_checkpoint` / :func:`load_checkpoint` write and read
that format over a directory: every (parameter, rank) fp16 shard and fp32
optimizer-state shard goes through the engine's async I/O path, plus a JSON
manifest with layout metadata (world size, stage, step counters, loss-scale
state).  Loading requires an engine with the same world size and parameter
names; :func:`reshard_checkpoint` rewrites a checkpoint for another world
size.

Checkpoint layout::

    <dir>/manifest.json
    <dir>/param/<name>.r<rank>.npy          fp16 parameter shard
    <dir>/optim/<name>.r<rank>.<kind>.npy   fp32 master / exp_avg / exp_avg_sq

The layout does not depend on where the optimizer keeps its master: for a
parameter whose master is its own fp32 record
(:meth:`~repro.core.zero_optimizer.ZeroPartitionedAdam.master_is_param`)
the ``master`` file is written from that record, and loading it installs
the parameter shard again.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.engine import ZeroInfinityEngine
from repro.core.config import ZeroStage

MANIFEST = "manifest.json"
FORMAT_VERSION = 1


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


def _param_path(directory: str, name: str, rank: int) -> str:
    return os.path.join(directory, "param", f"{_safe(name)}.r{rank}.npy")


def _optim_path(directory: str, name: str, rank: int, kind: str) -> str:
    return os.path.join(directory, "optim", f"{_safe(name)}.r{rank}.{kind}.npy")


def save_checkpoint(engine: ZeroInfinityEngine, directory: str) -> dict:
    """Persist a sharded checkpoint; returns the manifest written."""
    os.makedirs(os.path.join(directory, "param"), exist_ok=True)
    os.makedirs(os.path.join(directory, "optim"), exist_ok=True)
    world = engine.config.world_size
    opt = engine.optimizer
    if not opt._initialized:
        opt.initialize_states()

    param_meta = {}
    for name, p in engine.model.named_parameters():
        param_meta[name] = {
            "shape": list(p.full_shape),
            "dtype": str(np.dtype(p.zero_meta.np_dtype if p.zero_meta else p.data.dtype)),
        }
        for rank in range(world):
            if engine.config.stage >= ZeroStage.PARAMETERS:
                shard = engine.partitioner.get_shard(p, rank)
            else:
                shard = opt._param_shard_fp32(p, rank).astype(
                    p.data.dtype
                )  # slice of the replicated tensor
            _atomic_save(_param_path(directory, name, rank), shard)
            ref = opt._refs.get((p.unique_id, rank))
            if ref is not None:
                for kind in opt.STATE_KINDS:
                    state = engine.offload.fetch(getattr(ref, kind), rank=rank)
                    _atomic_save(_optim_path(directory, name, rank, kind), state)

    manifest = {
        "format_version": FORMAT_VERSION,
        "world_size": world,
        "stage": int(engine.config.stage),
        "steps_taken": engine.steps_taken,
        "steps_skipped": engine.steps_skipped,
        "loss_scale": engine.scaler.loss_scale,
        "param_names": param_meta,
    }
    # optimizer step counts keyed by (name, rank) for portability
    name_by_id = {p.unique_id: n for n, p in engine.model.named_parameters()}
    manifest["optimizer_steps"] = {
        f"{name_by_id[pid]}|{rank}": ref.step
        for (pid, rank), ref in opt._refs.items()
    }
    _atomic_json(os.path.join(directory, MANIFEST), manifest)
    return manifest


def load_checkpoint(engine: ZeroInfinityEngine, directory: str) -> dict:
    """Restore a sharded checkpoint into a compatible engine.

    The engine must have the same world size and parameter names (shape
    compatibility is verified per shard).  Returns the manifest.
    """
    with open(os.path.join(directory, MANIFEST)) as f:
        manifest = json.load(f)
    if manifest["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {manifest['format_version']} not supported"
        )
    world = engine.config.world_size
    if manifest["world_size"] != world:
        raise ValueError(
            f"checkpoint written for world {manifest['world_size']},"
            f" engine has {world}"
        )
    names = {n for n, _ in engine.model.named_parameters()}
    ck_names = set(manifest["param_names"])
    if names != ck_names:
        missing = sorted(names ^ ck_names)[:5]
        raise ValueError(f"parameter name mismatch, e.g. {missing}")

    opt = engine.optimizer
    if not opt._initialized:
        opt.initialize_states()
    for name, p in engine.model.named_parameters():
        expected = tuple(manifest["param_names"][name]["shape"])
        if tuple(p.full_shape) != expected:
            raise ValueError(
                f"{name}: checkpoint shape {expected} != model {p.full_shape}"
            )
        for rank in range(world):
            shard = np.load(_param_path(directory, name, rank))
            if engine.config.stage >= ZeroStage.PARAMETERS:
                engine.partitioner.update_shard(p, rank, shard)
            else:
                flat = p.data.reshape(-1)
                sn = opt._shard_numel(p)
                lo = rank * sn
                hi = min(lo + sn, flat.size)
                if hi > lo:
                    flat[lo:hi] = shard[: hi - lo]
            for kind in opt.STATE_KINDS:
                opt.load_state(
                    p, rank, kind, np.load(_optim_path(directory, name, rank, kind))
                )
            ref = opt._refs[(p.unique_id, rank)]
            ref.step = manifest["optimizer_steps"].get(f"{name}|{rank}", 0)

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
    run saved on N ranks resumes on M.  Each parameter's fp16 shards and
    fp32 optimizer-state shards are concatenated, stripped of the old
    padding, re-padded for the new world size and re-split.  Optimizer step
    counts carry over (they are per parameter, not per rank).
    """
    if new_world_size <= 0:
        raise ValueError("new_world_size must be positive")
    with open(os.path.join(src_directory, MANIFEST)) as f:
        manifest = json.load(f)
    old_world = manifest["world_size"]
    os.makedirs(os.path.join(dst_directory, "param"), exist_ok=True)
    os.makedirs(os.path.join(dst_directory, "optim"), exist_ok=True)

    from repro.tensor.flat import pad_to_multiple

    new_steps: dict[str, int] = {}
    for name, meta in manifest["param_names"].items():
        numel = 1
        for s in meta["shape"]:
            numel *= s
        new_padded = pad_to_multiple(max(numel, 1), new_world_size)
        new_shard = new_padded // new_world_size

        def resplit(load_path_fn, save_path_fn):
            full = np.concatenate(
                [load_path_fn(rank) for rank in range(old_world)]
            )[:numel]
            out = np.zeros(new_padded, dtype=full.dtype)
            out[:numel] = full
            for rank in range(new_world_size):
                save_path_fn(rank, out[rank * new_shard : (rank + 1) * new_shard])

        resplit(
            lambda r: np.load(_param_path(src_directory, name, r)),
            lambda r, shard: _atomic_save(
                _param_path(dst_directory, name, r), shard
            ),
        )
        for kind in ("master", "exp_avg", "exp_avg_sq"):
            resplit(
                lambda r, k=kind: np.load(_optim_path(src_directory, name, r, k)),
                lambda r, shard, k=kind: _atomic_save(
                    _optim_path(dst_directory, name, r, k), shard
                ),
            )
        # step counts are uniform across ranks for a given parameter
        new_steps.update(
            {
                f"{name}|{rank}": manifest["optimizer_steps"].get(f"{name}|0", 0)
                for rank in range(new_world_size)
            }
        )

    new_manifest = dict(manifest)
    new_manifest["world_size"] = new_world_size
    new_manifest["optimizer_steps"] = new_steps
    _atomic_json(os.path.join(dst_directory, MANIFEST), new_manifest)
    return new_manifest
