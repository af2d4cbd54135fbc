#!/usr/bin/env python
"""Static SPMD schedule gate: prove the matrix before anything launches.

Runs the full ``repro check-static`` matrix — stage {2,3} x world
{1,2,4} x {loop,mp} — through the symbolic extractor and model checker,
folds in the repo-wide lint pass, and fails on any finding::

    python tools/static_gate.py                  # verify, exit 1 on findings
    python tools/static_gate.py --budget 30      # also fail past the wall budget
    python tools/static_gate.py --report PATH    # persist the rendered table

The gate is tier-1: it must stay under the wall budget (default 30 s) so
it can run on every change, and it must stay finding-free — a
static-collective-divergence or static-deadlock here means a code change
broke the SPMD schedule before any multiprocess test had a chance to
hang on it.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Wall-clock budget (seconds) for the whole matrix plus lint.
DEFAULT_BUDGET_S = 30.0


def run_gate(budget_s: float, report_path: str | None, lint: bool) -> int:
    from repro.check.static.driver import run_static_check

    report = run_static_check(lint=lint)
    rendered = report.render()
    print(rendered)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as f:
            f.write(rendered + "\n")
        print(f"wrote {report_path}")
    if not report.ok:
        print(
            f"static gate: FAIL ({len(report.findings)} schedule finding(s),"
            f" {len(report.lint_findings)} lint finding(s))"
        )
        return 1
    if budget_s and report.wall_s > budget_s:
        print(
            f"static gate: FAIL (wall {report.wall_s:.1f}s exceeds the"
            f" {budget_s:.0f}s budget; the gate must stay cheap enough to"
            " run on every change)"
        )
        return 1
    print("static gate: OK (schedule proved, lint clean)")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--budget",
        type=float,
        default=DEFAULT_BUDGET_S,
        help="wall-clock budget in seconds (0 disables the budget check)",
    )
    ap.add_argument(
        "--report",
        default=None,
        help="also write the rendered table to this path",
    )
    ap.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the repo-wide lint pass (schedule verification only)",
    )
    args = ap.parse_args(argv)
    return run_gate(args.budget, args.report, lint=not args.no_lint)


if __name__ == "__main__":
    raise SystemExit(main())
