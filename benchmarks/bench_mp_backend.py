"""Process-parallel backend speedup: mp vs the in-process loop oracle.

The whole point of :class:`~repro.comm.mp_backend.MultiprocBackend` is
that forward/backward — the only non-replicated work — runs in parallel
across rank processes, so a world-4 run should approach 4x the loop
backend's step rate on a host with four idle cores.  This bench runs the
same compute-heavy seeded workload through both backends via
:func:`repro.workloads.calibrate.measure_mp_speedup`, asserts the
numerics are **bit-identical** (a speedup over wrong numerics is
meaningless), and persists the machine-readable result to
``BENCH_mp.json`` at the repo root, where ``tools/perf_gate.py``
ratchets the mp step rate against the committed baseline.

Bit-identity is the assertion; the measured ratio is reported beside the
host's ``cpu_count`` and ``MP_TARGET_SPEEDUP`` (1.5x at world 4), never
gated on — with fewer cores than ranks the ranks time-slice and the ratio
can only show the transport tax.  The mp-over-loop number that is tracked
end to end is ``mp_z3`` against ``dense_z3`` in ``benchmarks/e2e/``.
"""

import json
import os

from repro.workloads.calibrate import measure_mp_speedup


def test_mp_backend_speedup_contract(emit, benchmark):
    report = benchmark.pedantic(measure_mp_speedup, rounds=1, iterations=1)
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_mp.json",
    )
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    lines = [
        f"world {report['world']}  steps {report['steps']}"
        f"  cpu_count {report['cpu_count']}",
        f"loop  {report['loop_steps_per_s']:.3f} steps/s",
        f"mp    {report['mp_steps_per_s']:.3f} steps/s",
        f"speedup measured {report['speedup_measured']:.2f}x"
        f"  (target {report['target_speedup']:.1f}x)",
        f"exchange bytes {report['transport']['exchange_bytes']}"
        f"  rendezvous {report['transport']['barrier_waits']}",
    ]
    emit("BENCH_mp", "\n".join(lines))

    assert report["bit_identical"]
