"""Optimizer pipeline, end to end: serial schedule vs read-ahead.

The optimizer step streams sub-groups through one loop;
``OffloadConfig.optimizer_pipeline`` (on by default) keeps sub-group
``k+1``'s reads and sub-group ``k-1``'s shadow writes in flight while
sub-group ``k`` computes, and off runs the same loop with read-ahead
depth 0.

This bench runs the same seeded NVMe workload through both schedules via
:func:`repro.workloads.calibrate.measure_opt_pipeline` — alternating,
several rounds each, every instrumentation plane off — asserts they are
**bit-identical** (the overlap is scheduling, never arithmetic), and
reports end-to-end steps/s for both side by side.  The gate is measured
against measured in the same run: the pipelined schedule must not be
slower than the serial one by more than the run's own round-to-round
noise.  (Whether it is *faster* depends on the host having a second core
to run the aio workers on; the ``optimizer_io_tail`` stall time each
schedule leaves is reported beside the rates, never gated.)  The
machine-readable result is persisted to ``BENCH_optpipe.json`` at the repo
root, where ``tools/perf_gate.py`` re-measures the same contract and
ratchets the serial step rate.
"""

import json
import os

from repro.workloads.calibrate import measure_opt_pipeline


def test_opt_pipeline_end_to_end(emit, benchmark):
    report = benchmark.pedantic(measure_opt_pipeline, rounds=1, iterations=1)
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_optpipe.json",
    )
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    lines = [
        f"world {report['world']}  steps {report['steps']}"
        f"  chunk_numel {report['chunk_numel']}  rounds {report['rounds']}",
        f"serial    {report['steps_per_s']:.3f} steps/s"
        f"  tail {report['tail_us_serial'] / 1e3:.1f} ms",
        f"pipelined {report['steps_per_s_pipelined']:.3f} steps/s"
        f"  tail {report['tail_us_pipelined'] / 1e3:.1f} ms",
        f"pipelined / serial {report['pipelined_over_serial']:.3f}"
        f"  (run noise {report['noise']:.3f})",
    ]
    emit("BENCH_optpipe", "\n".join(lines))

    assert report["bit_identical"]
    assert report["pipelined_over_serial"] >= 1.0 - report["noise"]
