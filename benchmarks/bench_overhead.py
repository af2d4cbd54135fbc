"""The overhead contract, measured and recorded: six rows, one file.

``repro.obs``, ``repro.check`` and ``repro.faults`` leave their call sites
compiled into every hot path; :mod:`repro.obs.overhead` states what that
may cost (the ``PLANES`` table) and how it is measured.  This bench runs
that measurement over every row — each plane alone, then all of them
switched on together — writes the table to ``benchmarks/reports/
overhead.txt``, asserts every row, and only then records the result in
``BENCH_overhead.json`` at the repo root, so a failing run cannot overwrite
the committed record.  ``tests/test_overhead.py`` holds the same rows in
tier 1; throughput is gated by ``benchmarks/e2e/compare.py`` alone.
"""

import json
import os

from repro.obs.overhead import measure_overhead, render_overhead

RECORD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_overhead.json",
)


def test_overhead_contract(emit, benchmark):
    reports = benchmark.pedantic(measure_overhead, rounds=1, iterations=1)
    table = render_overhead(reports)
    emit("overhead", table)
    over = [r.plane for r in reports if not r.ok]
    assert not over, f"rows outside the contract: {over}\n{table}"
    with open(RECORD, "w") as f:
        json.dump({"rows": [r.to_dict() for r in reports]}, f, indent=2)
        f.write("\n")
