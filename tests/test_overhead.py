"""Tier-1 guard for the overhead contract (``repro.obs.overhead``).

Every plane compiled into the step has one row in ``PLANES`` and must stay
inside it: switched off under 2% of a step, switched on under the row's
budget, with enough sites hit that the step really is instrumented.  All
six rows are measured once per session by the same ``measure_overhead``
the ``Overhead`` row of ``benchmarks/experiments.py`` records in
``BENCH_overhead.json`` (``python benchmarks/reproduce.py Overhead``),
retry policy included.
"""

import json
import pathlib

import pytest

from repro.obs.overhead import (
    DISABLED_BUDGET,
    PLANES,
    measure_overhead,
    render_overhead,
)

ROWS = ("tracer", "memscope", "live", "check", "faults", "all")
RECORD = pathlib.Path(__file__).resolve().parent.parent / "BENCH_overhead.json"


@pytest.fixture(scope="module")
def reports():
    measured = measure_overhead()
    return {r.plane: r for r in measured}, render_overhead(measured)


def test_every_plane_has_a_row(reports):
    # a new plane ships with a budget or not at all
    assert tuple(PLANES) == ROWS
    assert tuple(reports[0]) == ROWS


@pytest.mark.parametrize("plane", ROWS)
def test_row_within_contract(reports, plane):
    by_plane, table = reports
    r = by_plane[plane]
    assert r.sites_per_step > r.floor, table  # the step really is instrumented
    assert not r.violations, table  # sanitized steps are clean
    assert r.disabled_overhead < DISABLED_BUDGET, table
    assert r.enabled_overhead < r.enabled_budget, table
    assert r.ok, table
    # sanity on the model's ingredients
    assert r.step_disabled_s > 0 and r.noop_call_s > 0
    if r.enabled_call_s is not None:
        assert r.noop_call_s < r.enabled_call_s, table


def test_sanitized_rows_report_violations(reports):
    by_plane, _ = reports
    assert {p for p, r in by_plane.items() if r.violations is not None} == {
        "check",
        "all",
    }


def test_all_row_covers_every_plane(reports):
    by_plane, table = reports
    everything = by_plane["all"]
    assert tuple(everything.sites) == ROWS[:-1]
    for plane, sites in everything.sites.items():
        assert sites > PLANES[plane].floor, table  # no plane sat the step out
    same_placement = sum(
        r.sites_per_step
        for r in by_plane.values()
        if r is not everything and r.placement == everything.placement
    )
    assert everything.sites_per_step >= same_placement > 0, table


def test_committed_record_counts_the_same_sites(reports):
    """Sites per step are an exact count, not a timing, so the committed
    record's ``sites`` must be what this run counts, row by row.  That holds
    plain and under ``REPRO_CHECK=all`` alike: the environment's checker
    sanitizes every engine a row times, which slows both sides of the row
    but hits none of the sites it counts, and the ``check`` row counts the
    events of its own checked engine either way."""
    by_plane, _ = reports
    committed = json.loads(RECORD.read_text())["rows"]
    assert {row["plane"]: row["sites"] for row in committed} == {
        plane: r.sites for plane, r in by_plane.items()
    }, "run: python benchmarks/reproduce.py Overhead"
