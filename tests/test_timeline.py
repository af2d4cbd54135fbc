"""Gantt rendering and phase summaries of simulated timelines."""

import pytest

from repro.core.config import Strategy
from repro.hardware import dgx2_cluster
from repro.sim import (
    SimWorkload,
    StepSimulator,
    TaskGraph,
    policy_for_strategy,
    render_gantt,
)


def small_graph():
    g = TaskGraph()
    a = g.add("compute-fwd:0", "compute", 2.0)
    b = g.add("nc-fetch:1", "nc", 1.0)
    g.add("compute-fwd:1", "compute", 2.0, [a, b])
    return g.run()


class TestRenderGantt:
    def test_contains_all_streams(self):
        out = render_gantt(small_graph())
        assert "compute" in out and "nc" in out

    def test_busy_fractions_shown(self):
        out = render_gantt(small_graph())
        assert "100%" in out  # compute is busy the whole makespan
        assert "25%" in out  # nc: 1s of 4s

    def test_width_respected(self):
        out = render_gantt(small_graph(), width=40)
        body = [l for l in out.splitlines() if "|" in l]
        for line in body:
            inner = line.split("|")[1]
            assert len(inner) == 40

    def test_legend_lists_prefixes(self):
        out = render_gantt(small_graph())
        assert "compute-fwd" in out and "nc-fetch" in out

    def test_legend_maps_markers_to_prefixes(self):
        out = render_gantt(small_graph())
        legend = next(l for l in out.splitlines() if "legend:" in l)
        # markers rotate through prefixes in sorted order
        assert "#=compute-fwd" in legend
        assert "==nc-fetch" in legend

    def test_makespan_footer(self):
        out = render_gantt(small_graph(), width=40)
        footer = next(l for l in out.splitlines() if "makespan" in l)
        assert "makespan 4s" in footer  # 2s fwd + 2s dependent fwd
        assert "40 cols" in footer
        assert "0.1s/col" in footer

    def test_footer_lines_follow_chart(self):
        lines = render_gantt(small_graph()).splitlines()
        assert "legend:" in lines[-2]
        assert "makespan" in lines[-1]

    def test_empty_graph(self):
        assert render_gantt(TaskGraph().run()) == "(empty timeline)"

    def test_real_step_renders(self):
        wl = SimWorkload(
            params=int(8e9),
            num_layers=4,
            hidden_dim=8192,
            attn_heads=16,
            batch_per_gpu=2,
        )
        b = StepSimulator(
            dgx2_cluster(1), wl, policy_for_strategy(Strategy.ZERO_INF_NVME)
        ).simulate()
        out = render_gantt(b.result)
        for stream in ("compute", "nc", "cg", "gg"):
            assert stream in out


class TestPhaseSummary:
    def test_full_step_phases_present(self):
        wl = SimWorkload(
            params=int(8e9),
            num_layers=4,
            hidden_dim=8192,
            attn_heads=16,
            batch_per_gpu=2,
        )
        b = StepSimulator(
            dgx2_cluster(1), wl, policy_for_strategy(Strategy.ZERO_INF_NVME)
        ).simulate()
        phases: dict[str, float] = {}
        for t in b.result.tasks:  # total task time per name prefix
            prefix = t.name.split(":", 1)[0]
            phases[prefix] = phases.get(prefix, 0.0) + t.duration
        for expected in (
            "compute-fwd",
            "compute-bwd",
            "nc-fetch",
            "cg-fetch",
            "gg-allgather",
            "rs-reduce_scatter",
            "opt-nc-stream",
        ):
            assert expected in phases, expected
        # backward compute is 2x forward per layer, plus a recompute
        # forward for every layer but the last: (3 nl - 1) / nl of forward
        nl = wl.num_layers
        assert phases["compute-bwd"] == pytest.approx(
            (3 * nl - 1) / nl * phases["compute-fwd"], rel=1e-6
        )
