"""Modeled training step for ZeRO-Infinity and baselines.

Builds a :class:`~repro.sim.events.TaskGraph` for one optimizer step —
``grad_accumulation_steps`` forward+backward microbatch passes followed by
the (possibly NVMe-streamed) optimizer update — and reports achieved
TFLOPs/GPU, the metric of Figs. 5 and 6.

Streams model the hardware paths of Sec. 6.2:

* ``compute`` — the GPU SMs;
* ``gg``      — GPU-GPU collectives (allgather / reduce-scatter);
* ``cg``      — PCIe copies between CPU and GPU;
* ``nc``      — NVMe <-> CPU I/O;
* ``cpu``     — host cores (CPU Adam of the offloaded optimizer step).

The simulator models one representative GPU of an SPMD job.  With the
overlap-centric design on, fetch legs for layer ``i+1`` queue behind layer
``i``'s on their own streams and overlap compute (the prefetcher's
nc/cg/gg pipelining); with it off, every transfer serializes against
compute — the Fig. 6d ablation.

Per-GPU bandwidths follow the bandwidth-centric analysis of Sec. 6.1: with
partitioned parameters and allgather retrieval every GPU pulls its ``1/dp``
shard over its own links (3.0 / 1.6 GB/s per GPU to CPU / NVMe on a DGX-2);
with the broadcast layout a single PCIe link serves the whole node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analytics.bandwidth_model import DEFAULT_PEAK_TP
from repro.core.config import OffloadDevice, Strategy
from repro.hardware.topology import ClusterTopology
from repro.sim.events import SimulationResult, TaskGraph
from repro.utils.units import TFLOP


@dataclass(frozen=True)
class SimWorkload:
    """The model + batch configuration being trained."""

    params: int
    num_layers: int
    hidden_dim: int
    attn_heads: int
    batch_per_gpu: float
    seq: int = 1024
    ci: int = 1
    mp_degree: int = 1
    grad_accumulation_steps: int = 1

    def __post_init__(self) -> None:
        if self.params <= 0 or self.num_layers <= 0:
            raise ValueError("params and num_layers must be positive")
        if self.batch_per_gpu <= 0:
            raise ValueError("batch_per_gpu must be positive")
        if self.grad_accumulation_steps < 1:
            raise ValueError("grad_accumulation_steps must be >= 1")

    @staticmethod
    def from_config(cfg, *, grad_accumulation_steps: int = 1) -> "SimWorkload":
        """Build from an :class:`~repro.analytics.model_zoo.ExperimentConfig`."""
        return SimWorkload(
            params=cfg.params,
            num_layers=cfg.num_layers,
            hidden_dim=cfg.hidden_dim,
            attn_heads=cfg.attn_heads,
            batch_per_gpu=cfg.batch_per_gpu,
            seq=cfg.seq,
            mp_degree=cfg.mp_degree,
            grad_accumulation_steps=grad_accumulation_steps,
        )


@dataclass(frozen=True)
class SimPolicy:
    """Which ZeRO-Infinity features are active (the ablation knobs)."""

    name: str = "zero-infinity"
    param_device: OffloadDevice = OffloadDevice.NONE
    grad_device: OffloadDevice = OffloadDevice.NONE
    optimizer_device: OffloadDevice = OffloadDevice.NONE
    partition_params: bool = True  # ZeRO-3 sharding (vs replicated)
    bandwidth_centric: bool = True  # allgather retrieval vs owner broadcast
    overlap: bool = True  # overlap-centric design + prefetching
    act_offload: bool = False  # CPU offload of activation checkpoints
    grad_reduce: str = "reduce_scatter"  # or "allreduce" (classic DP)
    cpu_adam_flops: float = 1.0e12  # aggregate host FLOP/s per node


def policy_for_strategy(strategy: Strategy) -> SimPolicy:
    """Default simulator policy per Table 2 strategy."""
    if strategy is Strategy.DATA_PARALLEL:
        return SimPolicy(
            name=str(strategy), partition_params=False, grad_reduce="allreduce"
        )
    if strategy is Strategy.ZERO_2:
        return SimPolicy(name=str(strategy), partition_params=False)
    if strategy is Strategy.ZERO_OFFLOAD:
        return SimPolicy(
            name=str(strategy),
            partition_params=False,
            bandwidth_centric=False,
            grad_device=OffloadDevice.CPU,
            optimizer_device=OffloadDevice.CPU,
            overlap=False,
        )
    if strategy is Strategy.ZERO_3:
        return SimPolicy(name=str(strategy))
    if strategy is Strategy.ZERO_INF_CPU:
        return SimPolicy(
            name=str(strategy),
            param_device=OffloadDevice.CPU,
            grad_device=OffloadDevice.CPU,
            optimizer_device=OffloadDevice.CPU,
        )
    if strategy is Strategy.ZERO_INF_NVME:
        return SimPolicy(
            name=str(strategy),
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        )
    raise ValueError(f"no simulator policy for {strategy}")


def policy_from_config(cfg) -> SimPolicy:
    """Simulator policy honouring an ExperimentConfig's device placements."""
    return SimPolicy(
        name=cfg.name,
        param_device=cfg.param_device,
        grad_device=cfg.param_device,
        optimizer_device=cfg.optimizer_device,
        partition_params=True,
        bandwidth_centric=True,
        overlap=True,
    )


@dataclass
class StepBreakdown:
    """Achieved performance + where the time went."""

    total_time: float
    compute_time: float
    gg_time: float
    cg_time: float
    nc_time: float
    cpu_time: float
    tflops_per_gpu: float
    result: Optional[SimulationResult] = field(default=None, repr=False)


class StepSimulator:
    """One training step of ``workload`` under ``policy`` on ``cluster``."""

    def __init__(
        self,
        cluster: ClusterTopology,
        workload: SimWorkload,
        policy: SimPolicy,
        *,
        peak_tp: float = DEFAULT_PEAK_TP,
    ) -> None:
        if cluster.num_gpus % workload.mp_degree:
            raise ValueError("mp degree must divide the GPU count")
        self.cluster = cluster
        self.workload = workload
        self.policy = policy
        self.peak_tp = peak_tp

    # --- derived rates ----------------------------------------------------------
    @property
    def dp(self) -> int:
        return self.cluster.num_gpus // self.workload.mp_degree

    def _gg_bw(self) -> float:
        return self.cluster.gpu_to_gpu_bw()

    def _slow_bw_per_gpu(self, *, nvme: bool) -> float:
        """Per-GPU bandwidth to slow memory under the configured layout.

        Bandwidth-centric layout: every GPU pulls its shard over its own
        link in parallel (3.0 / 1.6 GB/s per GPU on a full DGX-2).  Owner
        layout: see :meth:`_owner_transfer_time` — transfers serialize on a
        single link, so the per-shard rate view does not apply.
        """
        node = self.cluster.node
        if self.policy.bandwidth_centric:
            return node.gpu_to_slow_memory_bw(nvme=nvme, parallel=True)
        return node.gpu_to_slow_memory_bw(nvme=nvme, parallel=False)

    def _slow_transfer_time(self, shard_bytes: float, full_bytes: float, *, nvme: bool) -> float:
        """Time to move one layer's data to/from slow memory.

        Bandwidth-centric: each GPU moves its ``shard_bytes`` concurrently.
        Owner layout (Sec. 6.1): "only a single PCIe can be active ... while
        all the PCIe links connected to all the other GPUs are idle" — the
        full tensor crosses one 12 GB/s link while everyone waits.
        """
        bw = self._slow_bw_per_gpu(nvme=nvme)
        if self.policy.bandwidth_centric:
            return shard_bytes / bw
        return full_bytes / bw

    # --- per-layer quantities ----------------------------------------------------
    def _layer_param_bytes(self) -> float:
        """fp16 parameter bytes of one layer's per-GPU (mp) slice."""
        return 2.0 * self.workload.params / self.workload.num_layers / self.workload.mp_degree

    def _layer_fwd_flops(self) -> float:
        w = self.workload
        return 2.0 * w.batch_per_gpu * w.seq * w.params / w.num_layers / w.mp_degree

    def _ckpt_bytes_per_layer(self) -> float:
        w = self.workload
        return 2.0 * w.batch_per_gpu * w.seq * w.hidden_dim

    # --- graph construction -----------------------------------------------------
    def _add_param_fetch(self, g: TaskGraph, tag: str, prev_compute):
        """nc -> cg -> gg fetch chain for one layer; returns the gate task."""
        p = self.policy
        dp = self.dp
        layer_bytes = self._layer_param_bytes()
        shard = layer_bytes / dp if p.partition_params else layer_bytes
        serial_dep = [prev_compute] if (not p.overlap and prev_compute) else []
        gate = None
        if p.param_device is OffloadDevice.NVME:
            nc = g.add(
                f"nc-fetch:{tag}",
                "nc",
                self._slow_transfer_time(shard, layer_bytes, nvme=True),
                serial_dep,
            )
            cg = g.add(
                f"cg-fetch:{tag}",
                "cg",
                self._slow_transfer_time(shard, layer_bytes, nvme=False),
                [nc],
            )
            gate = cg
        elif p.param_device is OffloadDevice.CPU:
            cg = g.add(
                f"cg-fetch:{tag}",
                "cg",
                self._slow_transfer_time(shard, layer_bytes, nvme=False),
                serial_dep,
            )
            gate = cg
        if p.partition_params and dp > 1:
            gg = g.add(
                f"gg-allgather:{tag}",
                "gg",
                (dp - 1) / dp * layer_bytes / self._gg_bw(),
                [gate] if gate is not None else serial_dep,
            )
            gate = gg
        return gate

    def _add_grad_store(self, g: TaskGraph, tag: str, bwd_compute):
        """reduce-scatter + offload write chain after a layer's backward."""
        p = self.policy
        dp = self.dp
        layer_bytes = self._layer_param_bytes()
        shard = layer_bytes / dp
        deps = [bwd_compute]
        gate = bwd_compute
        if dp > 1:
            factor = 2.0 if p.grad_reduce == "allreduce" else 1.0
            # gradient reduction rides its own stream ("rs"): queueing it on
            # the allgather stream would head-of-line block the prefetch of
            # earlier layers' parameters behind this layer's reduction
            rs = g.add(
                f"rs-{p.grad_reduce}:{tag}",
                "rs",
                factor * (dp - 1) / dp * layer_bytes / self._gg_bw(),
                deps,
            )
            gate = rs
        vol = layer_bytes if p.grad_reduce == "allreduce" else shard
        if p.grad_device is OffloadDevice.CPU:
            gate = g.add(
                f"cg-grad:{tag}",
                "cg",
                self._slow_transfer_time(vol, layer_bytes, nvme=False),
                [gate],
            )
        elif p.grad_device is OffloadDevice.NVME:
            cg = g.add(
                f"cg-grad:{tag}",
                "cg",
                self._slow_transfer_time(vol, layer_bytes, nvme=False),
                [gate],
            )
            gate = g.add(
                f"nc-grad:{tag}",
                "nc",
                self._slow_transfer_time(vol, layer_bytes, nvme=True),
                [cg],
            )
        return gate

    def _add_act_offload(self, g: TaskGraph, tag: str, dep, *, store: bool):
        """Checkpoint write (fwd) or read (bwd) over PCIe."""
        if not self.policy.act_offload:
            return None
        t = self._ckpt_bytes_per_layer() / self._slow_bw_per_gpu(nvme=False)
        kind = "store" if store else "load"
        deps = [dep] if dep is not None else []
        if not self.policy.overlap and dep is not None:
            return g.add(f"cg-act-{kind}:{tag}", "cg", t, deps)
        return g.add(f"cg-act-{kind}:{tag}", "cg", t, deps)

    def build_graph(self) -> TaskGraph:
        g = TaskGraph()
        w = self.workload
        p = self.policy
        nl = w.num_layers
        fwd_flops = self._layer_fwd_flops()
        compute_fwd = fwd_flops / self.peak_tp
        compute_bwd = 2.0 * fwd_flops / self.peak_tp
        compute_recompute = fwd_flops / self.peak_tp if w.ci else 0.0
        # the last layer's backward follows its forward at once: it is
        # neither checkpointed nor recomputed (nn/checkpoint.py)
        last = nl - 1

        for micro in range(w.grad_accumulation_steps):
            last_compute = None
            fwd_tasks = []
            # ---- forward ----
            for layer in range(nl):
                tag = f"m{micro}.f{layer}"
                gate = self._add_param_fetch(g, tag, last_compute)
                deps = [t for t in (gate, last_compute) if t is not None]
                c = g.add(f"compute-fwd:{tag}", "compute", compute_fwd, deps)
                if layer != last:
                    act = self._add_act_offload(g, tag, c, store=True)
                    if not p.overlap and act is not None:
                        c = act  # serialize the checkpoint store
                last_compute = c
                fwd_tasks.append(c)
            # ---- backward (reverse layer order) ----
            for layer in reversed(range(nl)):
                tag = f"m{micro}.b{layer}"
                act = None
                if layer != last:
                    act = self._add_act_offload(g, tag, last_compute, store=False)
                gate = self._add_param_fetch(g, tag, last_compute)
                deps = [t for t in (gate, act, last_compute) if t is not None]
                c = g.add(
                    f"compute-bwd:{tag}",
                    "compute",
                    compute_bwd + (compute_recompute if layer != last else 0.0),
                    deps,
                )
                grad_gate = self._add_grad_store(g, tag, c)
                last_compute = c if p.overlap else (grad_gate or c)
            # gradients of the last layers must land before the optimizer
            self._final_grad_gate = last_compute

        # ---- optimizer step ----
        self._add_optimizer(g, self._final_grad_gate)
        return g

    def _add_optimizer(self, g: TaskGraph, dep) -> None:
        w = self.workload
        p = self.policy
        n_gpus = self.cluster.num_gpus
        # this GPU's share of optimizer state (read + write, 16 B each way)
        share = w.params / (n_gpus if (self.policy.partition_params or p.optimizer_device is not OffloadDevice.NONE) else 1)
        state_rw = 2.0 * 16.0 * share
        param_rw = 2.0 * 2.0 * share  # fp16 shard read + write-back
        cpu_flops_per_gpu = (
            p.cpu_adam_flops / self.cluster.node.gpus_per_node
        )
        adam_flops = 20.0 * share  # ~20 FLOPs per element for Adam
        deps = [dep] if dep is not None else []
        if p.optimizer_device is OffloadDevice.NVME:
            nc_t = (state_rw + param_rw) / self._slow_bw_per_gpu(nvme=True)
            cpu_t = adam_flops / cpu_flops_per_gpu
            if p.overlap:
                # chunked streaming: reads, compute and writes pipeline
                # (Sec. 5.2.2); the longer of I/O and compute bounds it
                # because the two run on independent streams.
                g.add("opt-nc-stream", "nc", nc_t, deps)
                g.add("opt-cpu-adam", "cpu", cpu_t, deps)
            else:
                t1 = g.add("opt-nc-read", "nc", nc_t / 2.0, deps)
                t2 = g.add("opt-cpu-adam", "cpu", cpu_t, [t1])
                g.add("opt-nc-write", "nc", nc_t / 2.0, [t2])
        elif p.optimizer_device is OffloadDevice.CPU:
            cpu_t = adam_flops / cpu_flops_per_gpu
            g.add("opt-cpu-adam", "cpu", cpu_t, deps)
            if p.param_device is OffloadDevice.NONE:
                # updated fp16 params return to GPU over PCIe
                g.add(
                    "opt-cg-writeback",
                    "cg",
                    (2.0 * share) / self._slow_bw_per_gpu(nvme=False),
                    deps,
                )
        else:
            # GPU-resident optimizer: bound by HBM bandwidth
            hbm = self.cluster.node.gpu.memory.read_bw
            g.add("opt-gpu-adam", "compute", (state_rw + param_rw) / hbm, deps)

    # --- run ---------------------------------------------------------------------
    def simulate(self) -> StepBreakdown:
        g = self.build_graph()
        result = g.run()
        w = self.workload
        useful = (
            6.0
            * w.batch_per_gpu
            * w.seq
            * w.params
            / w.mp_degree
            * w.grad_accumulation_steps
        )
        return StepBreakdown(
            total_time=result.makespan,
            compute_time=result.stream_busy.get("compute", 0.0),
            gg_time=result.stream_busy.get("gg", 0.0)
            + result.stream_busy.get("rs", 0.0),
            cg_time=result.stream_busy.get("cg", 0.0),
            nc_time=result.stream_busy.get("nc", 0.0),
            cpu_time=result.stream_busy.get("cpu", 0.0),
            tflops_per_gpu=useful / result.makespan / TFLOP,
            result=result,
        )
