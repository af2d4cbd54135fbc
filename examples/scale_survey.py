"""Scale and throughput survey across cluster sizes and strategies.

Combines the capacity solver (Sec. 3 memory model) with the performance
simulator (Sec. 6 data-movement model) into the planning table an
infrastructure team would actually want: for each cluster size, what is
the largest model each strategy trains, and what throughput does
ZeRO-Infinity sustain on representative Table 1 workloads?

Run:  python examples/scale_survey.py
"""

from repro import Strategy, dgx2_cluster
from repro.analytics.model_zoo import TABLE1_CONFIGS
from repro.core.config import OffloadDevice
from repro.core.scale import max_model_size
from repro.sim import SimWorkload, StepSimulator
from repro.sim.step_model import policy_from_config
from repro.utils import Table, format_count

CLUSTERS = (1, 4, 16, 32)
STRATEGIES = [
    Strategy.DATA_PARALLEL,
    Strategy.ZERO_3,
    Strategy.ZERO_INF_CPU,
    Strategy.ZERO_INF_NVME,
]


def capacity_by_cluster() -> None:
    t = Table(
        ["nodes", "GPUs"] + [str(s) for s in STRATEGIES],
        title="Max trainable model size by strategy and cluster",
    )
    for nodes in CLUSTERS:
        cluster = dgx2_cluster(nodes)
        row = [nodes, cluster.num_gpus]
        for s in STRATEGIES:
            kw = (
                {"tile_factor": 16}
                if s in (Strategy.ZERO_INF_CPU, Strategy.ZERO_INF_NVME)
                else {}
            )
            row.append(format_count(max_model_size(s, cluster, bsz_per_gpu=1, **kw).max_params))
        t.add_row(row)
    print(t.render())
    print()


def throughput_survey() -> None:
    t = Table(
        ["workload", "nodes", "placement", "TFlops/GPU", "step time", "bottleneck"],
        title="Simulated ZeRO-Infinity throughput (Table 1 workloads)",
        float_fmt="{:.1f}",
    )
    for name in ("10B-1node", "100B-1node", "1T-1node", "1T-32node", "10T-32node"):
        cfg = TABLE1_CONFIGS[name]
        accum = max(1, round(4096 / cfg.total_batch))
        wl = SimWorkload.from_config(cfg, grad_accumulation_steps=accum)
        sim = StepSimulator(
            dgx2_cluster(cfg.num_nodes), wl, policy_from_config(cfg)
        )
        b = sim.simulate()
        streams = {
            "compute": b.compute_time,
            "gpu-gpu": b.gg_time,
            "pcie": b.cg_time,
            "nvme": b.nc_time,
            "cpu": b.cpu_time,
        }
        bottleneck = max(streams, key=streams.get)
        t.add_row(
            [
                name,
                cfg.num_nodes,
                f"p:{cfg.param_device.value}/o:{cfg.optimizer_device.value}",
                b.tflops_per_gpu,
                f"{b.total_time:.1f}s",
                bottleneck,
            ]
        )
    print(t.render())


if __name__ == "__main__":
    capacity_by_cluster()
    throughput_survey()
