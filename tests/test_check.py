"""repro.check: checker passes, engine integration, and the exception path.

Unit-drives each runtime pass (ZeroSan lifecycle, aio races) and the layers
that check collective ordering instead of a pass, then proves the two
integration properties the subsystem exists for: a sanitized mainline
engine run is violation-free on every placement, and a forward fault
mid-module unwinds without leaking gather buffers.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.check import (
    CheckConfig,
    CheckContext,
    CheckViolation,
    context_from_config,
    use_checker,
)
from repro.check.races import AioRaceDetector
from repro.check.static import ScheduleIR, ScheduleRecorder
from repro.check.static.verify import check_collective_matching, verify_schedule
from repro.check.static.extract import RecordingLoopBackend, SymbolicBackend
from repro.check.zerosan import ZeroSan
from repro.comm import ProcessGroup, allgather
from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, TransformerConfig
from repro.nn.parameter import PartitionState
from repro.obs import planes
from repro.utils.rng import seeded_rng
from tests.helpers import inflight_events

WORLD = 2
VOCAB = 32


def model_factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def make_batches(seed=3, bsz=2, seq=8):
    rng = seeded_rng(seed)
    return [
        (
            rng.integers(0, VOCAB, size=(bsz, seq)),
            rng.integers(0, VOCAB, size=(bsz, seq)),
        )
        for _ in range(WORLD)
    ]


ALL_ON = CheckConfig(zerosan=True, races=True)


@pytest.fixture
def no_global_checker():
    """Clear any env-installed checker (``REPRO_CHECK=all`` runs) so tests
    of the installation machinery itself see a clean global slate."""
    with planes.installed("checker", None):
        yield


class _FakeParam:
    """The attribute surface ZeroSan reads off a Parameter."""

    _next = [0]

    def __init__(self, name):
        self.name = name
        self.unique_id = 900_000 + self._next[0]
        self._next[0] += 1


# --- config -----------------------------------------------------------------------


class TestCheckConfig:
    @pytest.mark.parametrize("spec", ["", "none", "off", "0"])
    def test_disabled_specs(self, spec):
        cfg = CheckConfig.from_spec(spec)
        assert cfg.enabled_passes == ()
        assert not cfg.any_runtime
        assert context_from_config(cfg) is None

    @pytest.mark.parametrize("spec", ["all", "1", "on"])
    def test_all_specs(self, spec):
        cfg = CheckConfig.from_spec(spec)
        assert cfg.enabled_passes == ("zerosan", "races", "lint")

    def test_comma_list_and_roundtrip(self):
        cfg = CheckConfig.from_spec("zerosan, races")
        assert cfg.zerosan and cfg.races
        assert not cfg.lint
        assert CheckConfig.from_spec(cfg.spec()) == cfg

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown check pass"):
            CheckConfig.from_spec("zerosan,typo")

    def test_retired_collectives_pass_rejected(self):
        with pytest.raises(ValueError, match="zerosan, races, lint"):
            CheckConfig.from_spec("collectives")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="raise.*record"):
            CheckConfig(mode="explode")

    def test_lint_only_builds_no_runtime_context(self):
        assert context_from_config(CheckConfig(lint=True)) is None


class TestInstallation:
    def test_use_checker_scoped(self, no_global_checker):
        assert planes.checker is None
        with use_checker("zerosan") as ctx:
            assert planes.checker is ctx
            assert ctx.zerosan is not None and ctx.races is None
        assert planes.checker is None

    def test_env_install(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.obs import planes;"
                "ctx = planes.checker;"
                "print(ctx.config.spec(), ctx.config.mode)",
            ],
            env={
                **os.environ,
                "REPRO_CHECK": "zerosan,races",
                "REPRO_CHECK_MODE": "record",
                "PYTHONPATH": "src",
            },
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["zerosan,races", "record"]


# --- ZeroSan ----------------------------------------------------------------------


class TestZeroSan:
    def ctx(self, mode="record"):
        return CheckContext(CheckConfig(zerosan=True, mode=mode))

    def test_clean_lifecycle(self):
        ctx = self.ctx(mode="raise")
        san = ctx.zerosan
        p = _FakeParam("w")
        san.on_partition(p)
        san.on_gather_begin(p)
        san.on_gather_end(p)
        san.on_release(p)
        ctx.on_step_boundary()  # nothing open: no report

    def test_double_gather(self):
        ctx = self.ctx()
        p = _FakeParam("w")
        ctx.zerosan.on_gather_begin(p)
        ctx.zerosan.on_gather_end(p)
        ctx.zerosan.on_gather_begin(p)
        assert ctx.violation_counts() == {"double-gather": 1}

    def test_release_without_gather(self):
        ctx = self.ctx()
        ctx.zerosan.on_release(_FakeParam("w"))
        assert ctx.violation_counts() == {"release-without-gather": 1}

    def test_gather_leak_and_stuck_gather_at_boundary(self):
        ctx = self.ctx()
        leaked, stuck = _FakeParam("leaked"), _FakeParam("stuck")
        ctx.zerosan.on_gather_begin(leaked)
        ctx.zerosan.on_gather_end(leaked)
        ctx.zerosan.on_gather_begin(stuck)
        ctx.on_step_boundary([leaked.unique_id, stuck.unique_id])
        assert ctx.violation_counts() == {"gather-leak": 1, "stuck-gather": 1}
        # the sweep drains shadow state: a second boundary is clean
        ctx.violations.clear()
        ctx.on_step_boundary()
        assert ctx.violation_counts() == {}

    def test_boundary_scopes_to_param_ids(self):
        ctx = self.ctx()
        outside = _FakeParam("outside")
        ctx.zerosan.on_gather_begin(outside)
        ctx.zerosan.on_gather_end(outside)
        ctx.on_step_boundary([123456789])  # scope excludes it
        assert ctx.violation_counts() == {}

    def test_placeholder_tripwire(self):
        ctx = self.ctx()
        p = _FakeParam("blocks.0.w")
        arr = ctx.zerosan.placeholder(p, np.float16)
        assert arr.size == 0
        _ = arr + 1.0  # any ufunc fires the tripwire
        counts = ctx.violation_counts()
        assert counts == {"use-after-release": 1}
        assert "blocks.0.w" in str(ctx.violations[0])

    def test_placeholder_raises_in_raise_mode(self):
        ctx = self.ctx(mode="raise")
        arr = ctx.zerosan.placeholder(_FakeParam("w"), np.float32)
        with pytest.raises(CheckViolation, match="use-after-release"):
            np.add(arr, arr)

    def test_placeholder_survives_pickle(self):
        import pickle

        ctx = self.ctx()
        arr = ctx.zerosan.placeholder(_FakeParam("w"), np.float32)
        clone = pickle.loads(pickle.dumps(arr))
        assert clone.size == 0 and clone.dtype == np.float32

    def test_writable_shared_view_flagged(self):
        ctx = self.ctx()
        owner = np.zeros(8, dtype=np.float32)
        ctx.zerosan.on_shared_views([owner[:4]])  # writable view
        assert "writable-shared-view" in ctx.violation_counts()


# --- collective ordering: where it is checked now ------------------------------


def _rank_groups(world=2):
    """One process group per rank over a symbolic mp rank endpoint, each
    recording the stream its group signs (what the transport digest hashes)."""
    recs = [ScheduleRecorder(world, rank=r) for r in range(world)]
    groups = [
        ProcessGroup(world, backend=SymbolicBackend(world, r, rec))
        for r, rec in enumerate(recs)
    ]
    return groups, recs


def _schedule(recs):
    return ScheduleIR(
        world=len(recs),
        ranks=tuple(rec.rank_schedule(r) for r, rec in enumerate(recs)),
        mode="mp",
    )


class TestCollectiveOrdering:
    """No runtime pass checks collective ordering: a diverged stream is the
    mp transport's ``CommDivergence`` (its rendezvous headers carry a digest
    of every signature) and, before launch, a static-verifier finding over
    the same signed stream; a ragged call is refused by the functional
    collective itself.  Each test drives one bug class through the layer
    that now catches it."""

    def test_matching_sequences_clean(self):
        groups, recs = _rank_groups()
        for pg in groups:
            pg.allgather([np.ones(64, np.float16)] * 2)
            pg.reduce_scatter([np.ones(128, np.float32)] * 2)
            pg.barrier()
        assert verify_schedule(_schedule(recs)) == []
        assert groups[0].backend.fingerprint_digest == (
            groups[1].backend.fingerprint_digest
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"allgather: ranks disagree") as exc:
            allgather([np.ones(64, np.float16), np.ones(32, np.float16)])
        assert "rank0=(float16, 64), rank1=(float16, 32)" in str(exc.value)

    def test_reorder_divergence(self):
        # rank 0: allgather then reduce_scatter; rank 1 flushed its bucket first
        payload = {
            "allgather": np.ones(64, np.float16),
            "reduce_scatter": np.ones(128, np.float32),
        }
        groups, recs = _rank_groups()
        for pg, order in zip(groups, [list(payload), list(payload)[::-1]]):
            for op in order:
                getattr(pg, op)([payload[op]] * 2)
        (f,) = check_collective_matching(_schedule(recs))
        assert f.kind == "static-collective-divergence"
        assert (f.rank, f.index) == (1, 0)
        assert groups[0].backend.fingerprint_digest != (
            groups[1].backend.fingerprint_digest
        )

    def test_missing_collective_divergence(self):
        groups, recs = _rank_groups()
        groups[0].allgather([np.ones(64, np.float16)] * 2)
        (f,) = check_collective_matching(_schedule(recs))
        assert f.kind == "static-collective-divergence"
        assert "waits forever" in f.message

    def test_process_group_fingerprints_and_barrier(self, monkeypatch):
        from repro.comm import group as group_mod

        signed = []
        sign = group_mod._signature
        monkeypatch.setattr(
            group_mod, "_signature", lambda p: signed.append(1) or sign(p)
        )
        shards = [np.ones(4, np.float32), np.ones(4, np.float32)]
        # the plain loop backend folds no signatures: nothing is signed
        ProcessGroup(2).allgather(shards)
        assert signed == []
        # a folding backend is handed each signature once; barrier() is
        # its step_sync
        rec = ScheduleRecorder(2)
        pg = ProcessGroup(2, backend=RecordingLoopBackend(2, rec))
        pg.allgather(shards)
        pg.barrier()
        assert signed == [1]
        kinds = [e.kind for e in rec.rank_schedule(0).events]
        assert kinds == ["collective", "barrier"]

    def test_process_group_shape_mismatch_reported(self):
        with pytest.raises(ValueError, match=r"allgather: ranks disagree"):
            ProcessGroup(2).allgather(
                [np.ones(4, np.float32), np.ones(3, np.float32)]
            )


# --- aio races --------------------------------------------------------------------


class TestAioRaces:
    def ctx(self, mode="record"):
        return CheckContext(CheckConfig(races=True, mode=mode))

    def test_double_submit_read(self):
        ctx = self.ctx()
        det = ctx.races
        buf = np.zeros(16, np.float32)
        det.on_submit_read(1, buf[:8])
        det.on_submit_read(2, buf[4:12])  # overlaps, no wait between
        assert ctx.violation_counts() == {"aio-double-submit": 1}

    def test_read_write_race(self):
        ctx = self.ctx()
        det = ctx.races
        buf = np.zeros(16, np.float32)
        det.on_submit_read(1, buf)
        det.on_submit_write(2, buf)
        assert ctx.violation_counts() == {"aio-race": 1}

    def test_wait_is_the_join_edge(self):
        ctx = self.ctx(mode="raise")
        det = ctx.races
        buf = np.zeros(16, np.float32)
        det.on_submit_read(1, buf)
        det.on_wait(1)
        det.on_submit_write(2, buf)  # ordered after the join: clean
        det.on_wait(2)
        assert inflight_events(det) == 0

    def test_file_range_overlap(self):
        ctx = self.ctx()
        det = ctx.races
        a, b = np.zeros(8, np.float32), np.zeros(8, np.float32)
        det.on_submit_write(1, a, path="/spool/k.bin", file_lo=0, file_hi=32)
        det.on_submit_read(2, b, path="/spool/k.bin", file_lo=16, file_hi=48)
        assert ctx.violation_counts() == {"aio-race": 1}

    def test_disjoint_file_ranges_clean(self):
        ctx = self.ctx(mode="raise")
        det = ctx.races
        a, b = np.zeros(8, np.float32), np.zeros(8, np.float32)
        det.on_submit_write(1, a, path="/spool/k.bin", file_lo=0, file_hi=32)
        det.on_submit_write(2, b, path="/spool/k.bin", file_lo=32, file_hi=64)

    def test_buffer_release_while_inflight(self):
        ctx = self.ctx()
        det = ctx.races
        buf = np.zeros(16, np.float32)
        det.on_submit_write(1, buf[:8])
        det.on_buffer_release(buf)
        assert ctx.violation_counts() == {"buffer-release-while-inflight": 1}

    def test_completed_requests_pruned(self):
        ctx = self.ctx(mode="raise")
        det = ctx.races
        buf = np.zeros(16, np.float32)
        det.on_submit_read(1, buf, done=lambda: True)  # already landed
        det.on_submit_read(2, buf, done=lambda: False)  # ordered after it
        assert inflight_events(det) == 1

    def test_aio_engine_emits_events(self, tmp_path):
        from repro.nvme.aio import AsyncIOEngine

        ctx = self.ctx(mode="raise")
        with AsyncIOEngine(num_threads=2, check=ctx) as eng:
            data = np.arange(64, dtype=np.float32)
            out = np.empty_like(data)
            path = str(tmp_path / "t.bin")
            eng.submit_write(path, data).wait()
            eng.submit_read(path, out).wait()
            assert inflight_events(ctx.races) == 0
        np.testing.assert_array_equal(out, data)


# --- engine integration ----------------------------------------------------------


G, C, N = OffloadDevice.NONE, OffloadDevice.CPU, OffloadDevice.NVME


def checked_config(dev, **kw):
    return ZeroConfig(
        world_size=WORLD,
        offload=OffloadConfig(
            param_device=dev, grad_device=dev, optimizer_device=dev
        ),
        loss_scale=1.0,
        check=ALL_ON,  # raise mode: any violation fails the test
        **kw,
    )


class TestEngineSanitized:
    @pytest.mark.parametrize("dev", [G, C, N], ids=["gpu", "cpu", "nvme"])
    def test_mainline_run_is_violation_free(self, dev):
        with ZeroInfinityEngine(
            checked_config(dev), model_factory=model_factory
        ) as eng:
            ctx = eng.check_context
            assert ctx is not None and ctx.config.mode == "raise"
            for step in range(2):
                result = eng.train_step(make_batches(seed=step))
                assert not result.skipped
            # accumulation path, then a gather_state sweep
            eng.train_step_accumulated([make_batches(seed=8), make_batches(seed=9)])
            state = eng.gather_state()
            assert state
        assert ctx.violations == []

    def test_private_context_threaded_to_subsystems(self, no_global_checker):
        with ZeroInfinityEngine(
            checked_config(C), model_factory=model_factory
        ) as eng:
            ctx = eng.check_context
            assert planes.checker is None  # config-scoped, not global
            assert eng.comm._check is ctx
            assert eng.partitioner._check is ctx
            assert eng.offload.pool._check is ctx  # the offload engine's pool

    def test_disabled_config_means_no_context(self, no_global_checker):
        cfg = ZeroConfig(world_size=WORLD, loss_scale=1.0)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            assert eng.check_context is None

    def test_global_checker_adopted_when_config_silent(self):
        cfg = ZeroConfig(world_size=WORLD, loss_scale=1.0)
        with use_checker(CheckConfig(zerosan=True, mode="raise")) as ctx:
            with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
                assert eng.check_context is ctx
                eng.train_step(make_batches())


class TestExceptionRelease:
    """Satellite: a fault mid-forward must not leak gather buffers."""

    def install_bomb(self, eng, fail_on_call=0):
        """Arm a pre-forward hook on a mid-model block that raises."""
        block = eng.model._modules["block1"]
        calls = [0]

        def boom(module, args):
            if calls[0] == fail_on_call:
                calls[0] += 1
                raise RuntimeError("injected fault")
            calls[0] += 1

        return block.register_forward_pre_hook(boom)

    def assert_step_clean(self, eng):
        for p in eng.model.parameters():
            if p.group is not None:
                assert p.state is PartitionState.PARTITIONED, p.name
            assert p.grad is None
        assert eng.coordinator._pending_grads == {}
        assert not eng.coordinator.accumulating

    @pytest.mark.parametrize("dev", [C, N], ids=["cpu", "nvme"])
    def test_forward_fault_unwinds_clean(self, dev):
        # the post-abort sweep records (never raises, so the injected fault
        # stays primary); a leaked gather would land in ctx.violations,
        # failing the final assertion below
        with ZeroInfinityEngine(
            checked_config(dev), model_factory=model_factory
        ) as eng:
            remove = self.install_bomb(eng)
            with pytest.raises(RuntimeError, match="injected fault"):
                eng.train_step(make_batches())
            remove()
            self.assert_step_clean(eng)
            result = eng.train_step(make_batches())  # engine still usable
            assert not result.skipped
        assert eng.check_context.violations == []

    def test_fault_on_second_rank_drops_banked_grads(self):
        # rank 0 completes fwd+bwd (gradients banked / bucketed) before the
        # fault hits rank 1's forward; abort must drop the partial reduction
        with ZeroInfinityEngine(
            checked_config(C), model_factory=model_factory
        ) as eng:
            remove = self.install_bomb(eng, fail_on_call=1)  # rank 1's fwd
            with pytest.raises(RuntimeError, match="injected fault"):
                eng.train_step(make_batches())
            remove()
            self.assert_step_clean(eng)
            eng.train_step(make_batches())
        assert eng.check_context.violations == []

    def test_abort_sweep_records_instead_of_raising(self):
        # a fault *during* a gather (e.g. a lost NVMe shard) leaves a
        # mid-gather shadow entry; the abort sweep must record the
        # stuck-gather rather than raise over the propagating root cause
        ctx = CheckContext(CheckConfig(zerosan=True, mode="raise"))
        p = _FakeParam("w")
        ctx.zerosan.on_partition(p)
        ctx.zerosan.on_gather_begin(p)  # interrupted: no gather_end
        ctx.on_step_abort([p.unique_id])  # must not raise
        assert ctx.violation_counts() == {"stuck-gather": 1}
        ctx.on_step_boundary([p.unique_id])  # slate is clean again

    def test_unchecked_engine_unwinds_too(self):
        cfg = ZeroConfig(world_size=WORLD, loss_scale=1.0)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            remove = self.install_bomb(eng)
            with pytest.raises(RuntimeError, match="injected fault"):
                eng.train_step(make_batches())
            remove()
            self.assert_step_clean(eng)
            eng.train_step(make_batches())


# --- a genuine leak is caught ------------------------------------------------------


class TestLeakDetection:
    def test_skipped_release_hook_reports_gather_leak(self):
        """Disabling a module's releases trips the boundary sweep."""
        cfg = ZeroConfig(
            world_size=WORLD,
            loss_scale=1.0,
            check=CheckConfig(zerosan=True, mode="record"),
        )
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            coord = eng.coordinator
            block = eng.model._modules["block1"]
            # sabotage: the coordinator "forgets" to release block1's
            # submodules — the skipped-release-hook bug class
            sabotaged = {id(m) for m in block.modules()}
            orig = coord._release_module
            coord._release_module = (
                lambda m: None if id(m) in sabotaged else orig(m)
            )
            eng.train_step(make_batches())
            counts = eng.check_context.violation_counts()
            assert counts.get("gather-leak", 0) >= 1
