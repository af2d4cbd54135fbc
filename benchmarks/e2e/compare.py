"""Compare two result sets of ``run.py``: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py base.json change.json

Each row gives both medians, the ratio with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``regressed``  — the change's median is worse than the base's by more
  than the bound;
* ``improved``   — better by more than the bound;
* ``unresolved`` — either input's own spread (quartile distance over
  median, from ``run.py --repeat K``) exceeds the bound, so the pair
  cannot be told apart at that bound;
* ``unchanged``  — otherwise.

This is a regression screen.  A *gain* is claimed by the ten-pair rule of
the choosing-metrics guide, not by one ``improved`` row.  Exits 1 when any
row is ``regressed`` or ``unresolved``, or when either set failed its
correctness checks.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(summary: dict) -> float:
    if not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worse_by)`` with ``worse_by`` a share of the base median
    (an absolute difference when the base is 0)."""
    a, b = base["median"], change["median"]
    worse = (b - a) if better == "lower" else (a - b)
    if a:
        worse /= abs(a)
    if max(spread(base), spread(change)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "unchanged", worse


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        change = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    # failures ride in the driver's attempted/failed counts, not in
    # BENCHMARK.json (a metric there may never be 0); any rise is a regression
    metrics.append(("step_fail_share", "lower", 0.0))

    bad = 0
    header = f"{'workload':<16}{'metric':<17}{'base':>12}{'change':>12}{'change/base':>13}{'bound':>7}  verdict"
    print(header)
    for name in base["workloads"]:
        if name not in change["workloads"]:
            continue
        wa, wb = base["workloads"][name], change["workloads"][name]
        for metric, better, bound in metrics:
            a, b = wa["end_to_end"][metric], wb["end_to_end"][metric]
            word, _ = verdict(a, b, better, bound)
            ratio = f"{b['median'] / a['median']:.4f}" if a["median"] else "-"
            print(
                f"{name:<16}{metric:<17}{a['median']:>12.5g}{b['median']:>12.5g}"
                f"{ratio:>13}{bound:>7.2f}  {word}"
            )
            bad += word in ("regressed", "unresolved")
        for label, w in (("base", wa), ("change", wb)):
            if not w["correct"]:
                print(f"{name}: {label} failed its correctness checks: {w['checks']}")
                bad += 1
        if wa["loss_at_step_8"] != wb["loss_at_step_8"]:
            print(
                f"{name}: loss_at_step_8 differs ({wa['loss_at_step_8']!r} vs"
                f" {wb['loss_at_step_8']!r}) — expected only when the arithmetic"
                " or the seed changed"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
