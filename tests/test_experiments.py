"""Tier-1 guard for the paper reproduction (``benchmarks/experiments.py``).

Every deterministic row of the table of experiments (the ``modeled`` and
``engine counts`` kinds) runs here through the same callable
``benchmarks/reproduce.py`` runs.  A row fails when one of its named shape
checks fails, when its report differs from the committed
``benchmarks/reports/<stem>.txt``, or when its generated block in
EXPERIMENTS.md differs from what the row returns.  The two machine
measurements are timed by the runner only; their reports are still indexed.
"""

from __future__ import annotations

import functools
import pathlib
import re
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import experiments  # noqa: E402
import reproduce  # noqa: E402

DETERMINISTIC = [row for row in experiments.EXPERIMENTS if row.kind != experiments.MACHINE]
ROW_IDS = [row.id for row in DETERMINISTIC]


@functools.cache
def outcome(row_id: str) -> experiments.Outcome:
    return next(row for row in DETERMINISTIC if row.id == row_id).run()


@pytest.fixture(params=DETERMINISTIC, ids=ROW_IDS)
def row(request):
    return request.param


def test_row_shape_checks_hold(row):
    failed = [name for name, holds in outcome(row.id).checks if not holds]
    assert not failed, f"{row.id}: {failed}\n{outcome(row.id).report}"


def test_row_report_is_the_committed_file(row):
    committed = (reproduce.REPORTS / f"{row.stem}.txt").read_text()
    assert outcome(row.id).report + "\n" == committed, (
        f"{row.stem}.txt differs from what {row.id} computes;"
        f" run: {reproduce.COMMAND} {row.id}"
    )


def test_row_numbers_are_the_generated_block(row):
    values = outcome(row.id).values
    assert values, f"{row.id} gives EXPERIMENTS.md no numbers"
    assert set(row.paper) <= set(values), f"{row.id}: paper items without a value"
    doc = reproduce.DOC.read_text()
    block = {row.id: reproduce.numbers_block(row, outcome(row.id))}
    assert reproduce.splice(doc, block) == doc, (
        f"EXPERIMENTS.md's {row.id} table differs from the row;"
        f" run: {reproduce.COMMAND} {row.id}"
    )


def test_summary_and_index_are_generated():
    doc = reproduce.DOC.read_text()
    assert reproduce.splice(doc, {"summary": reproduce.summary_block()}) == doc
    assert (reproduce.REPORTS / "INDEX.md").read_text() == reproduce.render_index()


def test_every_report_and_block_has_a_row():
    rows = experiments.EXPERIMENTS
    assert len({row.id for row in rows}) == len({row.stem for row in rows}) == len(rows)
    # static_gate.txt is written by tools/static_gate.py, not by a row
    reports = {path.stem for path in reproduce.REPORTS.glob("*.txt")}
    assert reports == {row.stem for row in rows} | {"static_gate"}
    blocks = re.findall(r"<!-- reproduce:(\S+) -->", reproduce.DOC.read_text())
    assert sorted(blocks) == sorted(["summary", *ROW_IDS])


def test_splice_replaces_only_the_named_block():
    doc = "a\n<!-- reproduce:X -->\nold\n<!-- /reproduce:X -->\nb\n"
    assert reproduce.splice(doc, {"X": "new"}) == doc.replace("old", "new")
    with pytest.raises(KeyError):
        reproduce.splice(doc, {"Y": "new"})
