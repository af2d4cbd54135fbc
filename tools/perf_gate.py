#!/usr/bin/env python
"""Performance regression gate over the committed ``BENCH_*.json`` baselines.

Re-measures the overhead contracts and compares the result against the
machine-readable baselines committed at the repo root::

    python tools/perf_gate.py            # measure, compare, exit 1 on drift
    python tools/perf_gate.py --update   # rewrite the baselines instead
    python tools/perf_gate.py --skip-memscope   # perfscope gate only

Gated metrics and tolerances (timing on shared boxes is noisy, so the
bands are deliberately wide — the gate catches order-of-magnitude rot,
not percent-level wobble):

* ``steps_per_s``       — must stay >= ``STEPS_MIN_RATIO`` x baseline;
* ``disabled_overhead`` — must stay under the budget recorded in the
  baseline file (the always-on hooks contract);
* ``enabled_overhead``  — same, against ``enabled_budget``;
* ``stall_fraction``    — must stay within ``STALL_ABS_TOL`` (absolute)
  of the baseline for the fixed bench workload.

``benchmarks/bench_perf_gate.py`` runs the same comparison inside the
bench suite and persists the table under ``benchmarks/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Throughput may degrade to this fraction of baseline before failing.
STEPS_MIN_RATIO = 0.4
#: Absolute stall-fraction drift allowed on the fixed bench workload.
STALL_ABS_TOL = 0.25


def _load(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def measure_perfscope() -> dict:
    from repro.obs.overhead import measure_perfscope_overhead

    r = measure_perfscope_overhead()
    return {
        "step_disabled_s": r.step_disabled_s,
        "step_enabled_s": r.step_enabled_s,
        "steps_per_s": r.steps_per_s,
        "spans_per_step": r.spans_per_step,
        "stall_ops_per_step": r.stall_ops_per_step,
        "noop_call_s": r.noop_call_s,
        "stall_call_s": r.stall_call_s,
        "ledger_build_s": r.ledger_build_s,
        "stall_fraction": r.stall_fraction,
        "overlap_fraction": r.overlap_fraction,
        "disabled_overhead": r.disabled_overhead,
        "enabled_overhead": r.enabled_overhead,
        "disabled_budget": 0.02,
        "enabled_budget": 0.10,
    }


def measure_memscope() -> dict:
    from repro.obs.overhead import measure_memscope_overhead

    r = measure_memscope_overhead()
    return {
        "step_disabled_s": r.step_disabled_s,
        "step_enabled_s": r.step_enabled_s,
        "ops_per_step": r.ops_per_step,
        "noop_call_s": r.noop_call_s,
        "op_call_s": r.op_call_s,
        "disabled_overhead": r.disabled_overhead,
        "enabled_overhead": r.enabled_overhead,
        "disabled_budget": 0.02,
        "enabled_budget": 0.10,
    }


def measure_livetel() -> dict:
    from repro.obs.overhead import measure_live_overhead

    r = measure_live_overhead()
    return {
        "step_disabled_s": r.step_disabled_s,
        "step_enabled_s": r.step_enabled_s,
        "steps_per_s": r.steps_per_s,
        "ops_per_step": r.ops_per_step,
        "samples_per_step": r.samples_per_step,
        "noop_call_s": r.noop_call_s,
        "emit_call_s": r.emit_call_s,
        "disabled_overhead": r.disabled_overhead,
        "enabled_overhead": r.enabled_overhead,
        "disabled_budget": 0.02,
        "enabled_budget": 0.10,
    }


def measure_mp() -> dict:
    from repro.workloads.calibrate import measure_mp_speedup

    return measure_mp_speedup()


def gate_rows(name: str, baseline: dict, measured: dict) -> list[tuple]:
    """(metric, baseline, measured, tolerance description, ok) rows."""
    rows: list[tuple] = []

    base_steps = baseline.get("steps_per_s") or (
        1.0 / baseline["step_disabled_s"] if baseline.get("step_disabled_s") else None
    )
    meas_steps = measured.get("steps_per_s") or (
        1.0 / measured["step_disabled_s"] if measured.get("step_disabled_s") else None
    )
    if base_steps and meas_steps:
        ok = meas_steps >= STEPS_MIN_RATIO * base_steps
        rows.append(
            (
                f"{name}.steps_per_s",
                f"{base_steps:.2f}",
                f"{meas_steps:.2f}",
                f">= {STEPS_MIN_RATIO:g}x baseline",
                ok,
            )
        )

    for key in ("disabled_overhead", "enabled_overhead"):
        budget = baseline.get(key.replace("overhead", "budget"))
        if budget is None or key not in measured:
            continue
        ok = measured[key] < budget
        rows.append(
            (
                f"{name}.{key}",
                f"{baseline.get(key, float('nan')):.4f}",
                f"{measured[key]:.4f}",
                f"< budget {budget:g}",
                ok,
            )
        )

    if "stall_fraction" in baseline and "stall_fraction" in measured:
        drift = abs(measured["stall_fraction"] - baseline["stall_fraction"])
        ok = drift <= STALL_ABS_TOL
        rows.append(
            (
                f"{name}.stall_fraction",
                f"{baseline['stall_fraction']:.3f}",
                f"{measured['stall_fraction']:.3f}",
                f"|drift| <= {STALL_ABS_TOL:g}",
                ok,
            )
        )
    return rows


def render_rows(rows: list[tuple]) -> str:
    from repro.utils.tables import Table

    t = Table(
        ["metric", "baseline", "measured", "tolerance", "status"],
        title="Perf gate (committed BENCH_*.json vs this machine)",
    )
    for metric, base, meas, tol, ok in rows:
        t.add_row([metric, base, meas, tol, "ok" if ok else "REGRESSION"])
    return t.render()


def run_gate(
    *, skip_memscope: bool = False, skip_mp: bool = False, update: bool = False
) -> int:
    targets = [
        ("perfscope", "BENCH_perfscope.json", measure_perfscope),
        ("livetel", "BENCH_livetel.json", measure_livetel),
    ]
    if not skip_memscope:
        targets.append(("memscope", "BENCH_memscope.json", measure_memscope))
    if not skip_mp:
        targets.append(("mp", "BENCH_mp.json", measure_mp))

    rows: list[tuple] = []
    missing: list[str] = []
    for name, fname, measure in targets:
        path = os.path.join(REPO_ROOT, fname)
        measured = measure()
        if update:
            with open(path, "w") as f:
                json.dump(measured, f, indent=2)
                f.write("\n")
            print(f"updated {fname}")
            continue
        baseline = _load(path)
        if baseline is None:
            missing.append(fname)
            continue
        rows.extend(gate_rows(name, baseline, measured))

    if update:
        return 0
    print(render_rows(rows))
    for fname in missing:
        print(f"note: no committed {fname} — run with --update to create it")
    failures = [r for r in rows if not r[-1]]
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) out of tolerance")
        return 1
    print(f"\nok: {len(rows)} metric(s) within tolerance")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--update", action="store_true",
        help="rewrite the BENCH_*.json baselines from a fresh measurement",
    )
    ap.add_argument(
        "--skip-memscope", action="store_true",
        help="gate only the perfscope baseline",
    )
    ap.add_argument(
        "--skip-mp", action="store_true",
        help="skip the multiprocessing-backend throughput baseline",
    )
    args = ap.parse_args(argv)
    return run_gate(
        skip_memscope=args.skip_memscope,
        skip_mp=args.skip_mp,
        update=args.update,
    )


if __name__ == "__main__":
    raise SystemExit(main())
