"""Tier-1 guard for the overhead contract (``repro.obs.overhead``).

Every plane compiled into the step has one row in ``PLANES`` and must stay
inside it: switched off under 2% of a step, switched on under the row's
budget, with enough sites hit that the step really is instrumented.  All
six rows are measured once per session by the same ``measure_overhead``
``benchmarks/bench_overhead.py`` records, retry policy included.
"""

import pytest

from repro.obs.overhead import (
    DISABLED_BUDGET,
    PLANES,
    measure_overhead,
    render_overhead,
)

ROWS = ("tracer", "memscope", "live", "check", "faults", "all")


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
