"""The Fig. 4 / Sec. 7.1 data-movement protocol, asserted event by event.

We instrument the partitioner and coordinator and verify the lifecycle the
paper prescribes for each submodule:

  forward:  gather -> compute -> release
  backward: gather -> compute -> release -> reduce-scatter -> offload

plus: parameters are PARTITIONED at every step boundary, each leaf's
parameters are gathered at most twice per rank per iteration (fwd + bwd;
three times under activation checkpointing, for every block but the
last) — once fewer where a forward is
directly followed by the same module's backward, or a backward reads no
parameter — and gradient reduction happens exactly once per parameter per
step.
"""

import numpy as np
import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, TransformerConfig
from repro.nn.parameter import PartitionState
from repro.utils.rng import seeded_rng, spawn_rngs

WORLD = 2
VOCAB = 32


def factory(ckpt=False, layers=1):
    cfg = TransformerConfig(
        num_layers=layers,
        hidden_dim=16,
        num_heads=2,
        vocab_size=VOCAB,
        max_seq=8,
        tie_embeddings=False,  # isolate the per-leaf protocol
        activation_checkpointing=ckpt,
    )
    return GPTModel(cfg, rng=seeded_rng(3))


def batches(seed=0):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, VOCAB, (1, 8)), r.integers(0, VOCAB, (1, 8))) for r in rngs
    ]


class Recorder:
    def __init__(self, engine):
        self.events: list[tuple[str, int]] = []  # (kind, param_id)
        part = engine.partitioner
        coord = engine.coordinator

        orig_gather = part.gather_coalesced

        def gather_coalesced(groups):
            # one collective per group, but the protocol is per parameter
            self.events.extend(
                ("gather", p.unique_id)
                for g in groups
                if g.flat is None
                for p in g.params
            )
            return orig_gather(groups)

        part.gather_coalesced = gather_coalesced

        orig_release = part.release

        def release(target):
            group = getattr(target, "group", target)
            if group.flat is not None and group.partitioned:
                self.events.extend(("release", p.unique_id) for p in group.params)
            return orig_release(target)

        part.release = release

        orig_reduce = coord._reduce_and_stash

        def reduce_and_stash(group, grads):
            self.events.extend(("reduce", p.unique_id) for p in group.params)
            return orig_reduce(group, grads)

        coord._reduce_and_stash = reduce_and_stash


@pytest.fixture
def engine():
    cfg = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(param_device=OffloadDevice.CPU),
        loss_scale=1.0,
        prefetch_depth=0,  # keep the event stream deterministic
    )
    with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
        yield eng


class TestProtocol:
    def test_gather_release_alternate_per_param(self, engine):
        rec = Recorder(engine)
        engine.train_step(batches())
        by_param: dict[int, list[str]] = {}
        for kind, pid in rec.events:
            by_param.setdefault(pid, []).append(kind)
        for pid, seq in by_param.items():
            gr = [e for e in seq if e in ("gather", "release")]
            # strict alternation starting with gather
            for i, e in enumerate(gr):
                assert e == ("gather" if i % 2 == 0 else "release"), (pid, gr)

    def test_two_gathers_per_rank_per_iteration(self, engine):
        """Sec. 4.1 counts two parameter loads per iteration: one for
        forward, one for backward.  That is the upper bound here, met by
        every parameter both of whose uses read it with another module
        running in between.  Per rank turn of this model:

        * a block's or the final norm's parameters: forward, ..., backward
          — 2 gathers;
        * the head's: its forward is directly followed by its own backward,
          and a forward post-hook parks parameters until the next pre-hook
          has said whether it gathers them — the forward gather is still
          resident — 1 gather;
        * an embedding's: backward scatters ``grad_y`` into a zero table
          and reads no weight (``parameters_read("bwd")`` is empty) — 1
          gather.
        """
        rec = Recorder(engine)
        engine.train_step(batches())
        counts: dict[int, int] = {}
        for kind, pid in rec.events:
            if kind == "gather":
                counts[pid] = counts.get(pid, 0) + 1
        once = ("tok_emb.", "pos_emb.", "head.")
        want = {
            p.unique_id: (1 if name.startswith(once) else 2) * WORLD
            for name, p in engine.model.named_parameters()
        }
        assert set(want.values()) == {WORLD, 2 * WORLD}
        assert counts == want

    def test_checkpointing_adds_the_third_load(self):
        """With activation checkpointing the recompute re-gathers: the
        third parameter load of the Sec. 4.1 AIT derivation.  Three is the
        upper bound.  In a two-layer model:

        * ``block0`` recomputes.  Its backward runs its layers forward
          again (ln1 ... fc_out) and then backward (fc_out ... ln1), so
          exactly one layer — the block's last, ``mlp.fc_out`` — has its
          recompute forward directly followed by its own backward and keeps
          the recompute's gather: forward + recompute = 2 x world.  Every
          other parameter of the block has other layers between all three
          uses: forward + recompute + backward = 3 x world.
        * ``block1`` is the last block: ``ln_f`` and the head run between
          its forward and its backward, so a recompute would buy no memory
          and it keeps its caches instead.  Each of its parameters is
          gathered for forward and again for backward: 2 x world."""
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            loss_scale=1.0,
            prefetch_depth=0,
        )
        with ZeroInfinityEngine(
            cfg, model_factory=lambda: factory(ckpt=True, layers=2), lr=1e-3
        ) as eng:
            rec = Recorder(eng)
            eng.train_step(batches())
            want = {
                p.unique_id: (
                    2
                    if name.startswith("block1.") or ".mlp.fc_out." in name
                    else 3
                ) * WORLD
                for name, p in eng.model.named_parameters()
                if name.startswith("block")
            }
            assert set(want.values()) == {2 * WORLD, 3 * WORLD}
            counts: dict[int, int] = {}
            for kind, pid in rec.events:
                if kind == "gather" and pid in want:
                    counts[pid] = counts.get(pid, 0) + 1
            assert counts == want

    def test_reduce_once_per_param_per_step(self, engine):
        rec = Recorder(engine)
        engine.train_step(batches())
        reduces = [pid for kind, pid in rec.events if kind == "reduce"]
        assert len(reduces) == len(set(reduces))
        assert len(reduces) == len(list(engine.model.named_parameters()))

    def test_reduce_follows_final_release(self, engine):
        """Gradients aggregate only after the last rank's backward release."""
        rec = Recorder(engine)
        engine.train_step(batches())
        last_release: dict[int, int] = {}
        reduce_at: dict[int, int] = {}
        for i, (kind, pid) in enumerate(rec.events):
            if kind == "release":
                last_release[pid] = i
            elif kind == "reduce":
                reduce_at[pid] = i
        for pid, idx in reduce_at.items():
            assert idx > last_release[pid]

    def test_everything_partitioned_between_steps(self, engine):
        engine.train_step(batches())
        for p in engine.model.parameters():
            assert p.state is PartitionState.PARTITIONED
            assert p.data.size == 0

    def test_grad_clip_equivalence_with_baseline(self):
        """Partitioned global-norm clipping == the single-process clip."""
        from repro.optim import Adam

        b = batches(seed=5)
        merged = (
            np.concatenate([b[0][0], b[1][0]]),
            np.concatenate([b[0][1], b[1][1]]),
        )
        base = factory()
        opt = Adam(base.parameters(), lr=1e-2, grad_clip=0.05)
        base(*merged)
        base.backward(1.0)
        opt.step()
        cfg = ZeroConfig(
            world_size=WORLD, stage=ZeroStage.PARAMETERS, loss_scale=1.0
        )
        with ZeroInfinityEngine(
            cfg, model_factory=factory, lr=1e-2, grad_clip=0.05
        ) as eng:
            eng.train_step(b)
            state = eng.gather_state()
        # atol covers Adam's sign-amplification of ~zero gradients, where
        # fp32 noise in the reduction order flips m/sqrt(v) on dead entries
        for name, p in base.named_parameters():
            np.testing.assert_allclose(
                state[name], p.data, rtol=1e-4, atol=1e-5, err_msg=name
            )


class TestGroupLoads:
    """One load is one parameter group: a module's parameters, per dtype,
    fetched and allgathered together."""

    def test_dense_z3_loads_68_groups_per_step(self):
        """``dense_z3``'s engine (benchmarks/e2e/workloads.py): world 2,
        stage 3, no offload, 2 checkpointed layers, tied embeddings.  Its
        28 parameters form 15 groups — tok_emb (with the tied table),
        pos_emb, six per block (ln1, attn.qkv, attn.proj, ln2, mlp.fc_in,
        mlp.fc_out) and ln_f; the head registers only the tied table.

        Loads per rank turn:

        * forward, 16: tok_emb, pos_emb, 6 + 6 for the blocks, ln_f, and
          the head's reload of tok_emb's group (released when pos_emb's
          pre-hook found it parked and unwanted);
        * backward, 18: the head's backward finds its forward's gather
          still parked (0); ln_f 1; block1, the last block, does not
          recompute: 6; block0 recomputes its 6 layers, then its backward
          keeps fc_out (the recompute's last forward, parked) and reloads
          the other 5; the embeddings' backward reads no weight (0).

        34 per turn x 2 ranks = 68 — where one load per parameter made it
        130 (28 + 1 forward loads and 36 backward ones per turn)."""
        cfg = TransformerConfig(
            num_layers=2,
            hidden_dim=128,
            num_heads=4,
            vocab_size=128,
            max_seq=32,
            activation_checkpointing=True,
        )
        zcfg = ZeroConfig(world_size=2, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
        rng = seeded_rng(1)
        with ZeroInfinityEngine(
            zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(0))
        ) as eng:
            assert len(eng.model.parameters()) == 28
            assert len(eng.partitioner.groups) == 15
            for _ in range(3):
                before = eng.report().gathers
                eng.train_step(
                    [
                        (rng.integers(0, 128, (4, 32)), rng.integers(0, 128, (4, 32)))
                        for _ in range(2)
                    ]
                )
                assert eng.report().gathers - before == 68

    def test_the_tied_table_is_one_record_set_owned_by_tok_emb(self):
        """Sec. 7.1: the head's weight is the embedding table itself.  It
        belongs to exactly one group — tok_emb's, the first module that
        registers it — so it is one record per rank, and the head's
        hooks gather that group."""
        cfg = TransformerConfig(
            num_layers=1, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
        )
        zcfg = ZeroConfig(world_size=WORLD, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
        with ZeroInfinityEngine(
            zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(3))
        ) as eng:
            table = eng.model.tok_emb._parameters["weight"]
            assert eng.model.head._parameters["weight"] is table
            group = table.group
            assert group.name == "tok_emb" and group.params == [table]
            owning = [g for g in eng.partitioner.groups if table in g.params]
            assert owning == [group]
            assert not any(g.name.startswith("head") for g in eng.partitioner.groups)
            eng.train_step(batches())
            records = [k for k in eng.offload._mem if k.startswith(f"g{group.gid}.")]
            assert sorted(records) == sorted(
                group.key(r, kind)
                for r in range(WORLD)
                for kind in ("param16", "grad16", "exp_avg", "exp_avg_sq")
            )
