"""Task-graph engine and the training-step simulator."""

import numpy as np
import pytest

from repro.analytics.model_zoo import TABLE1_CONFIGS
from repro.core.config import OffloadDevice, Strategy
from repro.hardware import dgx2_cluster
from repro.sim import (
    SimPolicy,
    SimWorkload,
    StepSimulator,
    TaskGraph,
    policy_for_strategy,
)
from repro.sim.step_model import policy_from_config
from tests.helpers import optimizer_time


class TestTaskGraph:
    def test_single_task(self):
        g = TaskGraph()
        g.add("a", "s", 2.0)
        r = g.run()
        assert r.makespan == 2.0

    def test_stream_serializes(self):
        g = TaskGraph()
        g.add("a", "s", 1.0)
        g.add("b", "s", 1.0)
        assert g.run().makespan == 2.0

    def test_independent_streams_overlap(self):
        g = TaskGraph()
        g.add("a", "s1", 3.0)
        g.add("b", "s2", 2.0)
        assert g.run().makespan == 3.0

    def test_dependency_chains(self):
        g = TaskGraph()
        a = g.add("a", "s1", 1.0)
        b = g.add("b", "s2", 1.0, [a])
        c = g.add("c", "s1", 1.0, [b])
        r = g.run()
        assert r.makespan == 3.0
        assert r.tasks[c.index].start == 2.0

    def test_diamond_dependency(self):
        g = TaskGraph()
        a = g.add("a", "x", 1.0)
        b = g.add("b", "y", 2.0, [a])
        c = g.add("c", "z", 3.0, [a])
        g.add("d", "x", 1.0, [b, c])
        assert g.run().makespan == 5.0  # 1 + max(2,3) + 1

    def test_fifo_blocks_later_ready_tasks(self):
        """CUDA-stream semantics: a blocked head blocks the whole stream."""
        g = TaskGraph()
        slow = g.add("slow", "other", 10.0)
        g.add("head", "s", 1.0, [slow])  # waits for slow
        g.add("tail", "s", 1.0)  # ready immediately but behind head
        r = g.run()
        tail = next(t for t in r.tasks if t.name == "tail")
        assert tail.start == 11.0

    def test_empty_graph(self):
        assert TaskGraph().run().makespan == 0.0

    def test_forward_dependency_only(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("a", "s", 1.0, [5])

    def test_negative_duration_raises(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add("a", "s", -1.0)

    def test_busy_accounting(self):
        g = TaskGraph()
        g.add("a", "s", 1.0)
        g.add("b", "s", 2.0)
        g.add("c", "t", 1.5)
        r = g.run()
        assert r.stream_busy == {"s": 3.0, "t": 1.5}
        assert r.busy_fraction("s") == 1.0
        assert [t.duration for t in r.tasks if t.name == "a"] == [1.0]


def wl(params=8e9, nl=10, hd=8192, heads=16, bsz=2, mp=1, accum=1):
    return SimWorkload(
        params=int(params),
        num_layers=nl,
        hidden_dim=hd,
        attn_heads=heads,
        batch_per_gpu=bsz,
        mp_degree=mp,
        grad_accumulation_steps=accum,
    )


class TestStepSimulator:
    def test_compute_bound_gpu_only(self):
        """ZeRO-3 on GPUs with overlap should approach the recompute tax's
        ceiling at large batch: useful work is 3 forwards' worth per layer
        (forward + a 2x backward) and every layer but the last adds a
        recompute forward, so at ``nl`` = 10 the ceiling is 3 nl / (4 nl -
        1) = 30/39 of the 70 TFLOPs peak (6/8 when the last layer, too,
        was charged a recompute)."""
        nl = 10
        sim = StepSimulator(
            dgx2_cluster(4), wl(nl=nl, bsz=16), policy_for_strategy(Strategy.ZERO_3)
        )
        b = sim.simulate()
        assert 40.0 < b.tflops_per_gpu < 3 * nl / (4 * nl - 1) * 70 + 1

    def test_overlap_beats_no_overlap(self):
        """Fig. 6d: prefetch/overlap matters."""
        cluster = dgx2_cluster(4)
        on = StepSimulator(
            cluster, wl(bsz=2), policy_for_strategy(Strategy.ZERO_INF_NVME)
        ).simulate()
        off_policy = SimPolicy(
            name="no-overlap",
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
            overlap=False,
        )
        off = StepSimulator(cluster, wl(bsz=2), off_policy).simulate()
        assert on.total_time < off.total_time
        assert on.tflops_per_gpu > off.tflops_per_gpu

    def test_overlap_gain_shrinks_with_batch(self):
        """Fig. 6d: the gain diminishes at large batch sizes."""
        cluster = dgx2_cluster(4)

        def speedup(bsz):
            on = StepSimulator(
                cluster, wl(bsz=bsz), policy_for_strategy(Strategy.ZERO_3)
            ).simulate()
            off_p = SimPolicy(name="off", overlap=False)
            off = StepSimulator(cluster, wl(bsz=bsz), off_p).simulate()
            return off.total_time / on.total_time

        assert speedup(2) > speedup(16) >= 1.0

    def test_bandwidth_centric_beats_owner_layout(self):
        """Fig. 6c: aggregate PCIe beats the single-link broadcast path."""
        cluster = dgx2_cluster(4)
        shared = dict(
            param_device=OffloadDevice.CPU,
            grad_device=OffloadDevice.CPU,
            optimizer_device=OffloadDevice.CPU,
        )
        fast = StepSimulator(
            cluster, wl(), SimPolicy(name="bc", bandwidth_centric=True, **shared)
        ).simulate()
        slow = StepSimulator(
            cluster,
            wl(),
            SimPolicy(
                name="owner",
                bandwidth_centric=False,
                partition_params=False,
                overlap=False,
                **shared,
            ),
        ).simulate()
        assert fast.total_time < slow.total_time

    def test_superlinear_weak_scaling(self):
        """Fig. 5b: per-GPU throughput rises with node count under NVMe."""
        tf = []
        for nodes in (4, 8, 16, 32):
            cfg = TABLE1_CONFIGS["1T-32node"]
            w = SimWorkload(
                params=cfg.params,
                num_layers=cfg.num_layers,
                hidden_dim=cfg.hidden_dim,
                attn_heads=cfg.attn_heads,
                batch_per_gpu=cfg.batch_per_gpu,
                mp_degree=4,
                grad_accumulation_steps=4,
            )
            b = StepSimulator(
                dgx2_cluster(nodes), w, policy_for_strategy(Strategy.ZERO_INF_NVME)
            ).simulate()
            tf.append(b.tflops_per_gpu)
        assert tf == sorted(tf)
        assert tf[-1] > 1.3 * tf[0]

    def test_throughput_declines_toward_extreme_scale(self):
        """Fig. 5a: 10T/20T lose throughput to tiny batch + NVMe traffic."""
        cluster = dgx2_cluster(32)
        results = {}
        for name in ("1T-32node", "10T-32node", "20T-32node"):
            cfg = TABLE1_CONFIGS[name]
            accum = max(1, round(4096 / cfg.total_batch))
            w = SimWorkload.from_config(cfg, grad_accumulation_steps=accum)
            pol = policy_from_config(cfg)
            results[name] = StepSimulator(cluster, w, pol).simulate().tflops_per_gpu
        assert results["1T-32node"] > results["10T-32node"] > results["20T-32node"]
        assert results["20T-32node"] > 15.0  # still doing useful work

    def test_act_offload_overhead_shrinks_with_hidden(self):
        """Fig. 6e: checkpoint offload costs ~1.2x at 2K, ~1x at 32K+."""
        cluster = dgx2_cluster(2)

        def overhead(hd):
            base_wl = wl(params=12 * 5 * hd * hd, nl=5, hd=hd, bsz=4)
            on = StepSimulator(
                cluster,
                base_wl,
                SimPolicy(
                    name="on",
                    optimizer_device=OffloadDevice.CPU,
                    act_offload=True,
                    overlap=False,
                ),
            ).simulate()
            off = StepSimulator(
                cluster,
                base_wl,
                SimPolicy(
                    name="off", optimizer_device=OffloadDevice.CPU, overlap=False
                ),
            ).simulate()
            return on.total_time / off.total_time

        small, large = overhead(2048), overhead(32768)
        assert small > large
        assert small > 1.05
        assert large < 1.1

    @pytest.mark.parametrize("nl", [1, 2, 10])
    def test_the_last_layer_is_neither_checkpointed_nor_recomputed(self, nl):
        """``nn/checkpoint.py`` keeps the last block's activations and runs
        its backward straight after the head's: an N-layer checkpointed
        workload's graph carries exactly N-1 recompute forwards (a
        backward of 3 forwards' time, where the last layer's is 2) and
        N-1 checkpoint store/load pairs."""
        sim = StepSimulator(
            dgx2_cluster(1),
            wl(nl=nl),
            SimPolicy(
                name="ckpt-offload",
                optimizer_device=OffloadDevice.CPU,
                act_offload=True,
            ),
        )
        tasks = sim.build_graph().tasks
        (fwd,) = {t.duration for t in tasks if t.name.startswith("compute-fwd:")}
        bwd = sorted(t.duration for t in tasks if t.name.startswith("compute-bwd:"))
        assert bwd == pytest.approx([2 * fwd] + [3 * fwd] * (nl - 1))
        for kind in ("store", "load"):
            named = [t.name for t in tasks if t.name.startswith(f"cg-act-{kind}:")]
            assert len(named) == nl - 1
            assert not any(name.endswith(f"{nl - 1}") for name in named)

    def test_chunked_nvme_optimizer_overlap(self):
        """Sec. 5.2.2: streaming the optimizer step overlaps I/O and CPU."""
        cluster = dgx2_cluster(1)
        w = wl(params=50e9, nl=62, hd=8192, bsz=8)
        on = StepSimulator(
            cluster, w, policy_for_strategy(Strategy.ZERO_INF_NVME)
        ).simulate()
        off_p = SimPolicy(
            name="serial-opt",
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
            overlap=False,
        )
        off = StepSimulator(cluster, w, off_p).simulate()
        assert optimizer_time(on) <= optimizer_time(off) * 1.01

    def test_mp_must_divide_gpus(self):
        with pytest.raises(ValueError):
            StepSimulator(
                dgx2_cluster(1), wl(mp=3), policy_for_strategy(Strategy.ZERO_3)
            )

    def test_invalid_workload_raises(self):
        with pytest.raises(ValueError):
            wl(params=0)
        with pytest.raises(ValueError):
            wl(accum=0)

    def test_accumulation_amortizes_optimizer(self):
        cluster = dgx2_cluster(1)
        pol = policy_for_strategy(Strategy.ZERO_INF_NVME)
        one = StepSimulator(cluster, wl(accum=1), pol).simulate()
        eight = StepSimulator(cluster, wl(accum=8), pol).simulate()
        assert eight.tflops_per_gpu > one.tflops_per_gpu
