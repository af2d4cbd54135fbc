"""Backend equivalence: the mp backend must be bit-identical to the loop.

The contract under test (docs/parallelism.md): for every supported
configuration, running the same seeded workload through
:class:`~repro.comm.mp_backend.MultiprocBackend` (one OS process per
rank, shared-memory exchanges) and through the in-process
:class:`~repro.comm.backend.LoopBackend` oracle produces *identical*
per-step losses, global gradient norms, ``CommStats`` byte/call
counters, and final parameter digests — not approximately equal,
``==``-equal.  Any drift is a correctness bug in the transport or the
accounting echo, never acceptable noise.

Everything process-spawning is ``@pytest.mark.mp`` and runs under the
SIGALRM deadline from ``conftest.py`` so a wedged rendezvous fails
instead of hanging the suite.
"""

from __future__ import annotations

import glob
import os
import signal

import numpy as np
import pytest

from repro.comm import (
    CommDivergence,
    LoopBackend,
    MpWorkerFailed,
    ProcessGroup,
    run_multiproc,
)
from repro.comm.shm import SEGMENT_PREFIX, SharedRing, TelemetryRing
from repro.tensor.flat import pad_to_multiple
from repro.workloads.calibrate import (
    CalibSpec,
    build_engine,
    run_mp_training,
    run_training,
    state_digest,
)


def shm_leftovers() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test in this module must leave /dev/shm clean."""
    before = shm_leftovers()
    yield
    leaked = [p for p in shm_leftovers() if p not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


# --- the backend seam itself -------------------------------------------------
class TestBackendFactory:
    def test_loop_constructs(self):
        b = LoopBackend(4)
        assert isinstance(b, LoopBackend)
        assert b.world_size == 4
        assert b.all_local and b.rank == 0 and b.is_local(3)

    def test_bad_world_size(self):
        with pytest.raises(ValueError):
            LoopBackend(0)

    def test_group_defaults_to_loop(self):
        pg = ProcessGroup(3)
        assert isinstance(pg.backend, LoopBackend)
        assert pg.all_local

    def test_group_rejects_world_mismatch(self):
        with pytest.raises(ValueError, match="world"):
            ProcessGroup(3, backend=LoopBackend(2))

    def test_fingerprint_digest_is_order_sensitive(self):
        a, b = LoopBackend(2), LoopBackend(2)
        a.note_fingerprint("allgather", ["float32"], [8])
        a.note_fingerprint("reduce_scatter", ["float32"], [8])
        b.note_fingerprint("reduce_scatter", ["float32"], [8])
        b.note_fingerprint("allgather", ["float32"], [8])
        assert a.fingerprint_digest != b.fingerprint_digest


class TestFreshRing:
    """A new segment is used as the kernel hands it out — zero-filled — with
    only the magic word written: nothing the protocol reads before its
    first write may depend on a fill the constructor no longer does."""

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_data_ring_starts_blank(self, world):
        from repro.comm.shm import ABORT_NONE, MAGIC

        ring = SharedRing(world, slot_capacity=4096)
        try:
            assert int(ring._ctrl()[0]) == MAGIC
            assert ring.epoch == 0
            assert ring.abort_kinds() == [ABORT_NONE] * world
            # every ack is below the first recovery's target epoch
            assert ring.all_recovered(0) and not ring.all_recovered(1)
            for buf in (0, 1):
                for rank in range(world):
                    # (seq, crc, nbytes) and the payload-total word
                    assert ring.read_header(buf, rank) == (0, 0, 0, 0)
        finally:
            ring.destroy()

    def test_telemetry_ring_starts_with_no_samples(self):
        ring = TelemetryRing(3, slot_capacity=256)
        try:
            assert ring.read_all() == [None, None, None]
            assert all(ring._header(r).tolist() == [0, 0] for r in range(3))
        finally:
            ring.destroy()


# --- the equivalence matrix --------------------------------------------------
MATRIX = [
    pytest.param(stage, world, offload, id=f"s{stage}-w{world}-{offload}")
    for stage in (2, 3)
    for world in (1, 2, 4)
    for offload in ("gpu", "cpu", "nvme")
] + [
    # multi-process data parallelism (stage 0) and optimizer-state
    # partitioning (stage 1): the same bucketed reduce-scatter path.  The
    # loop side is tied to DDPTrainer by test_engine's dp-baseline / zero1
    # cells, so mp == DDP follows.
    pytest.param(stage, 2, offload, id=f"s{stage}-w2-{offload}")
    for stage in (0, 1)
    for offload in ("gpu", "cpu")
]


@pytest.mark.mp
@pytest.mark.parametrize("stage,world,offload", MATRIX)
def test_matrix_bit_identical(stage, world, offload):
    spec = CalibSpec(world=world, steps=2, stage=stage, offload=offload)
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()
    # the losses really were computed in separate processes
    assert mp_run.transport.get("exchanges", 0) > 0 or world == 1


@pytest.mark.mp
def test_equivalence_under_full_checkers(monkeypatch):
    """REPRO_CHECK=all: every runtime pass armed in every rank process and
    in the loop oracle, numerics identical — while the transport digest
    checks the signed sequences the accounting echo keeps aligned."""
    monkeypatch.setenv("REPRO_CHECK", "all")
    spec = CalibSpec(world=2, steps=2, check="all")
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()


OPT_PIPELINE_CELLS = [
    # chunked NVMe stream with the double-buffered pipeline on (tiny
    # chunk so the calibration shards actually stream)
    pytest.param(
        CalibSpec(world=2, steps=2, stage=3, offload="nvme", chunk_numel=512),
        id="pipelined-chunked",
    ),
]


@pytest.mark.mp
@pytest.mark.parametrize("spec", OPT_PIPELINE_CELLS)
def test_opt_pipeline_cells_bit_identical(spec):
    """The pipelined optimizer stays loop<->mp bit-identical."""
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()


@pytest.mark.mp
def test_opt_pipeline_equivalence_under_full_checkers(monkeypatch):
    """The pipelined chunked step under REPRO_CHECK=all: shadow-record
    staging and the commit barrier must satisfy every lifecycle and
    aio-race rule in both backends, with identical numerics."""
    monkeypatch.setenv("REPRO_CHECK", "all")
    spec = CalibSpec(
        world=2, steps=2, stage=3, offload="nvme", chunk_numel=512, check="all"
    )
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.numerics() == oracle.numerics()


@pytest.mark.mp
def test_mp_transport_traffic_not_in_commstats():
    """Exchange/rendezvous traffic is transport, not simulated collectives:
    CommStats must match the loop byte-for-byte while the transport
    counters carry the real cross-process traffic."""
    spec = CalibSpec(world=2, steps=2)
    oracle = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    assert mp_run.comm_bytes_by_op == oracle.comm_bytes_by_op
    assert "exchange" not in mp_run.comm_bytes_by_op
    assert mp_run.transport["exchange_bytes"] > 0
    assert mp_run.transport["step_syncs"] == spec.steps


# --- the bucket is the unit of transport --------------------------------------
def _zero_engine(backend, *, stage, world, capacity, model_factory=None, **extra):
    """The calibration model with the reduce-bucket capacity set."""
    from repro.core import ZeroConfig, ZeroInfinityEngine, ZeroStage
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    model_cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=64, max_seq=8,
        activation_checkpointing=True,
    )
    cfg = ZeroConfig(
        world_size=world, stage=ZeroStage(stage), loss_scale=1.0,
        reduce_bucket_numel=capacity, **extra,
    )
    factory = model_factory or (lambda: GPTModel(model_cfg, rng=seeded_rng(0)))
    return ZeroInfinityEngine(cfg, model_factory=factory, lr=5e-3, comm_backend=backend)


def _microbatches(world, seed, vocab=64, seq=8):
    from repro.workloads import MarkovCorpus, per_rank_batches

    return per_rank_batches(
        MarkovCorpus(vocab, seed=1), world_size=world, bsz_per_rank=2,
        seq=seq, seed=seed,
    )


TRANSPORT_CELLS = [
    pytest.param(stage, world, capacity, id=f"s{stage}-w{world}-c{capacity}")
    for stage in (2, 3)
    for world in (2, 4)
    for capacity in (4096, 500_000)
] + [
    # below stage 2 gradients take the same bucket, so the same count holds
    pytest.param(stage, 2, capacity, id=f"s{stage}-w2-c{capacity}")
    for stage in (0, 1)
    for capacity in (4096, 500_000)
]


@pytest.mark.mp
@pytest.mark.parametrize("stage,world,capacity", TRANSPORT_CELLS)
def test_transport_is_one_exchange_per_flush(stage, world, capacity):
    """What crosses the ring in one step, derived rather than pasted.

    *Exchanges.*  A rank process talks to its peers once per bucket flush
    (capacity-forced or step-boundary), once per oversized gradient (a
    flush of its own), and once at the step boundary (the rendezvous that
    carries the losses): ``flushes + oversized_flushes + 1``.

    *Bytes.*  Every gradient enters the bucket padded to a multiple of the
    world size (an oversized one is padded the same way), and a flush
    publishes exactly the filled part of this rank's buffer, so over a step
    the rank publishes each of its gradient bytes exactly once:
    ``sum(pad(numel_p, world) * itemsize_p)`` over the parameters — plus the
    step's loss vector, one float64 per accumulation round (one here).
    """
    steps = 2

    def worker(backend):
        with _zero_engine(backend, stage=stage, world=world, capacity=capacity) as eng:
            data = _microbatches(world, seed=2)
            store = eng.coordinator.bucket_store
            seen = []
            for _ in range(steps):
                before = (
                    dict(backend.transport_stats()),
                    store.stats.flushes,
                    store.stats.oversized_flushes,
                )
                eng.train_step(next(data))
                after = backend.transport_stats()
                seen.append(
                    (
                        after["exchanges"] - before[0]["exchanges"],
                        after["exchange_bytes"] - before[0]["exchange_bytes"],
                        store.stats.flushes - before[1],
                        store.stats.oversized_flushes - before[2],
                    )
                )
            grad_bytes = sum(
                pad_to_multiple(max(p.full_numel, 1), world) * p.data.dtype.itemsize
                for p in eng.model.parameters()
            )
            return seen, grad_bytes, after["exchanges_per_step"]

    out = run_multiproc(world, worker, timeout=60.0)
    assert all(r == out.results[0] for r in out.results)
    seen, grad_bytes, per_step = out.results[0]
    for exchanges, nbytes, flushes, oversized in seen:
        assert flushes + oversized >= 1
        assert exchanges == flushes + oversized + 1
        assert nbytes == grad_bytes + 8
    assert per_step == seen[0][0]
    if capacity == 4096:
        assert seen[0][2] > 1, "the small capacity should force inline flushes"


def _accumulating_run(backend, *, stage, world):
    """Two optimizer steps of two accumulation rounds over distinct
    microbatches, at a capacity that forces flushes in mid-backward."""
    with _zero_engine(backend, stage=stage, world=world, capacity=4096) as eng:
        data = _microbatches(world, seed=5)
        losses = [
            list(eng.train_step_accumulated([next(data), next(data)]).losses)
            for _ in range(2)
        ]
        store = eng.coordinator.bucket_store.stats
        return (
            losses,
            dict(eng.comm.stats.bytes_by_op),
            dict(eng.comm.stats.calls_by_op),
            (store.flushes, store.oversized_flushes),
            state_digest(eng.gather_state()),
        )


@pytest.mark.mp
@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_accumulation_with_inline_flushes_matches_loop(stage):
    """One flush may hold two rounds of a key, and a capacity-forced flush
    happens at the same harvest in every process: losses, ``CommStats``,
    flush counts and the final state equal the loop oracle's."""
    world = 2
    oracle = _accumulating_run(None, stage=stage, world=world)
    assert oracle[3][0] > 2 * 2, "capacity 4096 should force inline flushes"
    out = run_multiproc(
        world, lambda b: _accumulating_run(b, stage=stage, world=world), timeout=60.0
    )
    assert out.results == [oracle] * world


def _big_table_model():
    """Two untied 2 M-element tables (8 MB of fp32 gradient each: oversized
    at the default capacity, and large enough to be recycled) beside a
    layer whose arrays all fit the bucket."""
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    model_cfg = TransformerConfig(
        num_layers=1, hidden_dim=128, num_heads=4, vocab_size=16384,
        max_seq=8, tie_embeddings=False,
    )
    return lambda: GPTModel(model_cfg, rng=seeded_rng(7))


def _no_copy_worker(backend):
    import tracemalloc

    world = backend.world_size
    with _zero_engine(
        backend, stage=3, world=world, capacity=500_000,
        model_factory=_big_table_model(),
    ) as eng:
        data = _microbatches(world, seed=3, vocab=16384)
        params = dict(eng.model.named_parameters())
        tables = [params["tok_emb.weight"], params["head.weight"]]
        store = eng.coordinator.bucket_store
        for _ in range(2):  # warm-up: buckets exist, free lists are full
            eng.train_step(next(data))

        def bucket_ids():
            return [id(buf) for b in store._buckets.values() for buf in b.inputs]

        def free_ids():
            return sorted(id(a) for p in tables for a in p._grad_free)

        inputs_before, free_before = bucket_ids(), free_ids()
        free_lens = [len(p._grad_free) for p in tables]
        peaks, lent, labels = [], [], []
        exchange = backend.exchange

        def watched(payload=None, *, out=None, **what):
            if "param" in what:  # oversized: where do the peers' copies land?
                lent.extend(
                    id(o.base) for r, o in enumerate(out) if r != backend.rank
                )
            labels.append(sorted(what))
            tracemalloc.start()
            try:
                return exchange(payload, out=out, **what)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        backend.exchange = watched
        for _ in range(3):
            eng.train_step(next(data))
        del backend.exchange
        stable = inputs_before == bucket_ids() and free_before == free_ids()
        bucket_bytes = min(b.inputs[0].nbytes for b in store._buckets.values())
        eng.coordinator.abort_step()
        return {
            "stable": stable,
            "free_lens": free_lens,
            "lent_from_free_list": set(lent) <= set(free_before) and len(lent),
            "labels": labels[:3],
            "peak": max(peaks),
            "bucket_bytes": bucket_bytes,
            "free_after_abort": [len(p._grad_free or ()) for p in params.values()],
        }


class TestNoCopyContract:
    """The mp cell of ``tests/test_opt_pipeline.py::TestNoCopyContract``:
    a flush's exchange reads the peers' bytes straight into the bucket's
    own per-rank input buffers, an oversized one-member group's into arrays
    lent by (and returned to) the parameter's free list, and allocates
    nothing the size of a payload."""

    @pytest.mark.mp
    def test_exchange_lands_in_buffers_that_already_exist(self):
        world = 2
        out = run_multiproc(world, _no_copy_worker, timeout=120.0)
        for seen in out.results:
            # the same input buffers and recycled arrays, step after step
            assert seen["stable"]
            # a table's kernel takes one array back, its peers' copies the
            # other world - 1; the flush returns all of them
            assert seen["free_lens"] == [world, world]
            assert seen["lent_from_free_list"] == 3 * 2 * (world - 1)
            # head and tok_emb are oversized flushes, the rest is one bucket
            assert seen["labels"] == [["param"], ["param"], ["entries", "fill"]]
            # payloads are 8 MB (a table) and ~0.8 MB (the bucket's fill)
            assert seen["bucket_bytes"] == 500_000 * 4
            assert seen["peak"] < 16 << 10, seen["peak"]
            assert not any(seen["free_after_abort"])


def _peer_flat_run(backend, steps=4):
    """``steps`` steps of a model whose multi-member groups (attention
    ``qkv``, both MLP linears: weight + bias, 3-4 MB of fp32 gradient) are
    oversized at capacity 500 000 and large enough to be recycled.  Per
    step, every array an oversized exchange landed in (kept alive, so an
    id names one array); the losses and the final state digest."""
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    world = 2
    model_cfg = TransformerConfig(
        num_layers=1, hidden_dim=512, num_heads=4, vocab_size=64, max_seq=8,
    )
    with _zero_engine(
        backend, stage=3, world=world, capacity=500_000,
        model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)),
    ) as eng:
        data = _microbatches(world, seed=3)
        landed: list[list[np.ndarray]] = []
        if backend is not None:
            exchange = backend.exchange

            def watched(payload=None, *, out=None, **what):
                if "param" in what:  # an oversized group's flush
                    landed[-1].extend(out)
                return exchange(payload, out=out, **what)

            backend.exchange = watched
        losses = []
        for _ in range(steps):
            landed.append([])
            losses.append(list(eng.train_step(next(data)).losses))
        return {
            "landed": [sorted(id(a) for a in step) for step in landed],
            "losses": losses,
            "digest": state_digest(eng.gather_state()),
        }


@pytest.mark.mp
def test_peer_flats_of_oversized_groups_are_recycled():
    """Under the mp backend the peers' copies of an oversized group of
    several members land in flats the members recycled, as the loop
    backend's ranks compute into theirs: from the second step on every
    exchange lands in the same arrays, and the state equals the loop
    oracle's bit for bit."""
    oracle = _peer_flat_run(None)
    out = run_multiproc(2, _peer_flat_run, timeout=120.0)
    for seen in out.results:
        first, *rest = seen["landed"][1:]
        assert len(first) == 3 * 2  # three oversized groups, two ranks
        assert all(step == first for step in rest)
        assert seen["losses"] == oracle["losses"]
        assert seen["digest"] == oracle["digest"]


def _param_reads_per_step(backend=None, steps=3):
    """Bytes of parameter records one process reads from NVMe in each step
    of the ``s3-w2-nvme`` cell, and the bytes those records hold."""
    from repro.nvme.store import TensorStore
    from repro.workloads import MarkovCorpus, per_rank_batches

    spec = CalibSpec(world=2, steps=steps, stage=3, offload="nvme")
    read_async = TensorStore.read_async
    per_step = []

    def counting(store, key, out=None):
        keys = [key] if isinstance(key, str) else key
        per_step[-1] += sum(store.nbytes(k) for k in keys if k.endswith(".param16"))
        return read_async(store, key, out)

    TensorStore.read_async = counting
    try:
        with build_engine(spec, comm_backend=backend) as eng:
            data = per_rank_batches(
                MarkovCorpus(spec.vocab, seed=1),
                world_size=spec.world,
                bsz_per_rank=spec.bsz_per_rank,
                seq=spec.seq,
                seed=2,
            )
            for _ in range(steps):
                per_step.append(0)
                eng.train_step(next(data))
            store = eng.offload.store
            records = sum(
                store.nbytes(k) for k in store.keys() if k.endswith(".param16")
            )
    finally:
        TensorStore.read_async = read_async
    return per_step, records


class TestReadParity:
    """The loop backend plays every rank in one process, yet reads what
    one rank process reads: each parameter record once per step, however
    many rank turns and gathers (the tied table's two) use it."""

    @pytest.mark.mp
    def test_loop_reads_what_each_rank_process_reads(self):
        loop, records = _param_reads_per_step()
        # the first step has no prefetch trace yet; from the second on
        # every record is read exactly once
        assert loop[1:] == [records, records]
        out = run_multiproc(2, _param_reads_per_step, timeout=120.0)
        for per_step, mine in out.results:
            assert mine == records
            assert per_step[1:] == loop[1:]


# --- failure protocol --------------------------------------------------------
def _divergent_worker(backend):
    # rank 1 issues an extra collective before the exchange: the
    # barrier-carried digests disagree and the exchange must refuse to
    # deliver data rather than silently mix mismatched streams
    if backend.rank == 1:
        backend.note_fingerprint("allgather", ["float32"], [16])
    try:
        backend.exchange(np.ones(4, dtype=np.float32))
    except CommDivergence:
        return "divergence"
    return "delivered"


@pytest.mark.mp
def test_divergent_sequences_detected():
    out = run_multiproc(2, _divergent_worker, timeout=30.0)
    assert out.results.count("divergence") == 2


def _ragged_flush_worker(backend):
    """Rank 1 banks one gradient more than rank 0 before the flush."""
    from repro.core.bucket import GradientBucketStore
    from repro.core.partition import ParamGroup
    from repro.nn.parameter import Parameter

    world, rank = backend.world_size, backend.rank
    store = GradientBucketStore(
        world, 1024, ProcessGroup(world, backend=backend),
        on_shard=lambda param, r, shard: None,
    )

    def bank(numel):
        grads = [None] * world
        grads[rank] = [np.full(numel, 1.0 + rank, dtype=np.float32)]
        member = Parameter(np.zeros(numel, dtype=np.float32))
        store.add(ParamGroup(numel, 0, [member], world, None), grads)

    bank(100)
    if rank == 1:
        bank(50)
    (bucket,) = store._buckets.values()
    peer = bucket.inputs[1 - rank]
    peer[:] = -7.0  # whatever was there before the flush
    try:
        store.flush()
    except CommDivergence as err:
        return str(err), bool((peer == -7.0).all())
    return "delivered", False


@pytest.mark.mp
def test_flush_with_diverged_fill_delivers_nothing():
    """A rank whose bucket holds a different fill at the flush must not be
    reduced against: both ranks raise, naming the flush and both fills,
    and no peer byte has been written into the bucket."""
    out = run_multiproc(2, _ragged_flush_worker, timeout=30.0)
    (msg0, untouched0), (msg1, untouched1) = out.results
    assert untouched0 and untouched1
    assert "entries=1 fill=100" in msg0 and "entries=2 fill=150" in msg1
    for msg in (msg0, msg1):
        assert "100 elements" in msg and "150 elements" in msg


def _replayed_worker(backend):
    """One asymmetric fault: rank 1's first forward raises OSError.

    Peers observe the broken rendezvous as CommPeerAbort, everyone takes
    the step-replay tier together, and the replay is bit-identical — so
    the run must still match the loop oracle exactly.
    """
    from repro.workloads import MarkovCorpus, per_rank_batches

    spec = CalibSpec(world=2, steps=2)
    from repro.workloads.calibrate import build_engine

    with build_engine(spec, comm_backend=backend) as engine:
        if backend.rank == 1:
            orig = engine.model.forward
            fired = []

            def flaky_forward(*a, **k):
                if not fired:
                    fired.append(True)
                    raise OSError("simulated transient device fault")
                return orig(*a, **k)

            engine.model.forward = flaky_forward
        data = per_rank_batches(
            MarkovCorpus(spec.vocab, seed=1),
            world_size=spec.world,
            bsz_per_rank=spec.bsz_per_rank,
            seq=spec.seq,
            seed=2,
        )
        losses = []
        for _ in range(spec.steps):
            losses.append(list(engine.train_step(next(data)).losses))
        return (
            losses,
            engine.step_retries_used,
            state_digest(engine.gather_state()),
        )


@pytest.mark.mp
def test_asymmetric_fault_replays_in_lockstep():
    oracle = run_training(CalibSpec(world=2, steps=2))
    out = run_multiproc(2, _replayed_worker, timeout=60.0)
    (losses0, retries0, digest0), (losses1, retries1, digest1) = out.results
    # both ranks replayed exactly once — the faulting rank via its own
    # OSError, the peer via CommPeerAbort from the broken barrier
    assert (retries0, retries1) == (1, 1)
    assert losses0 == losses1 == oracle.losses
    assert digest0 == digest1 == oracle.state_digest


def _suicidal_worker(backend):
    if backend.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no goodbye
    backend.step_sync()
    return "survived"


@pytest.mark.mp
def test_killed_rank_fails_run_without_shm_leak():
    """SIGKILL mid-step: the launcher must surface a worker failure and
    the parent's cleanup must unlink every shared segment (the autouse
    fixture asserts /dev/shm is clean afterwards)."""
    with pytest.raises(MpWorkerFailed) as err:
        run_multiproc(2, _suicidal_worker, timeout=30.0)
    assert err.value.rank == 1


def _terminal_worker(backend):
    if backend.rank == 0:
        raise RuntimeError("unrecoverable logic error on rank 0")
    backend.step_sync()
    return "unreachable"


@pytest.mark.mp
def test_terminal_error_propagates_worker_traceback():
    with pytest.raises(MpWorkerFailed, match="unrecoverable logic error"):
        run_multiproc(2, _terminal_worker, timeout=30.0)


# --- per-rank observability --------------------------------------------------
@pytest.mark.mp
def test_trace_shards_merge_per_rank():
    from repro.obs import merged_chrome_trace

    spec = CalibSpec(world=2, steps=1)
    _, shards = run_mp_training(spec, trace=True)
    assert shards is not None and [s.rank for s in shards] == [0, 1]
    doc = merged_chrome_trace(shards)
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {0, 1}
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert names == {"rank 0", "rank 1"}
    # rank-local exchange spans made it into the merged view
    assert any(
        e.get("name") == "mp:exchange" and e.get("ph") == "X"
        for e in doc["traceEvents"]
    )


@pytest.mark.mp
def test_exchange_spans_name_the_flush_that_waited():
    """Every gradient exchange span — and the ``exchange_wait`` stall inside
    it — says which flush it served: ``entries`` / ``fill`` for a bucket,
    ``param`` for an oversized gradient."""
    from repro.obs import merged_chrome_trace

    spec = CalibSpec(world=2, steps=1)
    run, shards = run_mp_training(spec, trace=True)
    events = merged_chrome_trace(shards)["traceEvents"]
    flushes = [
        e["args"] for e in events
        if e.get("name") == "mp:exchange" and "fill" in e.get("args", {})
    ]
    waits = [
        e["args"] for e in events
        if e.get("name") == "stall:exchange_wait" and "fill" in e.get("args", {})
    ]
    assert flushes and waits
    assert {(a["entries"], a["fill"]) for a in waits} == {
        (a["entries"], a["fill"]) for a in flushes
    }
    assert all(a["bytes"] == 4 * a["fill"] for a in flushes)
    assert run.transport["exchanges_per_step"] == len(flushes) / spec.world + 1
