"""Reproduce the paper's experiments: every row of ``experiments.EXPERIMENTS``.

    python benchmarks/reproduce.py            # every row
    python benchmarks/reproduce.py F5a T3     # the named rows

Each row's report lands in ``benchmarks/reports/<stem>.txt``; then
``INDEX.md`` is rewritten, and so are the generated blocks of EXPERIMENTS.md
(the summary table and one table of numbers per row run), between their
``<!-- reproduce:ID -->`` markers; the prose around them is kept.  Exits 1
when a shape check fails.  ``tests/test_experiments.py`` runs every
deterministic row the same way and compares with the committed files.
"""

from __future__ import annotations

import pathlib
import re
import sys

from experiments import EXPERIMENTS, MACHINE, Experiment, Outcome

REPO = pathlib.Path(__file__).resolve().parent.parent
REPORTS = REPO / "benchmarks" / "reports"
DOC = REPO / "EXPERIMENTS.md"
COMMAND = "python benchmarks/reproduce.py"


def render_index() -> str:
    """``INDEX.md``: every report in ``REPORTS`` with its title line."""
    machine = {f"{row.stem}.txt" for row in EXPERIMENTS if row.kind == MACHINE}
    lines = ["# Reproduced artifacts\n", f"Regenerate with `{COMMAND}`.\n"]
    for path in sorted(REPORTS.glob("*.txt")):
        title = path.read_text().partition("\n")[0].strip() or path.name
        mark = " *(machine measurement: differs on every run)*" if path.name in machine else ""
        lines.append(f"- [`{path.name}`]({path.name}) — {title}{mark}")
    return "\n".join(lines) + "\n"


def summary_block() -> str:
    lines = ["| ID | artifact | kind | report |", "|---|---|---|---|"]
    lines += [
        f"| {row.id} | {row.artifact} | {row.kind} |"
        f" [`{row.stem}.txt`](benchmarks/reports/{row.stem}.txt) |"
        for row in EXPERIMENTS
    ]
    return "\n".join(lines)


def numbers_block(row: Experiment, outcome: Outcome) -> str:
    """The row's numbers next to the paper's, as EXPERIMENTS.md shows them."""
    if row.paper:
        lines = [f"| {row.id} | paper | {row.kind} |", "|---|---|---|"]
        lines += [
            f"| {item} | {row.paper.get(item, '—')} | {value} |"
            for item, value in outcome.values.items()
        ]
    else:
        lines = [f"| {row.id} | {row.kind} |", "|---|---|"]
        lines += [f"| {item} | {value} |" for item, value in outcome.values.items()]
    return "\n".join(lines)


def splice(doc: str, blocks: dict[str, str]) -> str:
    """``doc`` with each ``<!-- reproduce:ID -->`` block replaced."""
    for key, block in blocks.items():
        begin, end = f"<!-- reproduce:{key} -->\n", f"<!-- /reproduce:{key} -->"
        pattern = re.compile(rf"{re.escape(begin)}.*?{re.escape(end)}", re.S)
        doc, found = pattern.subn(lambda _: f"{begin}{block}\n{end}", doc)
        if not found:
            raise KeyError(f"EXPERIMENTS.md has no reproduce:{key} block")
    return doc


def main(ids: list[str]) -> int:
    known = {row.id: row for row in EXPERIMENTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown experiment(s) {unknown}; known: {list(known)}", file=sys.stderr)
        return 2
    blocks = {"summary": summary_block()}
    failed = []
    for row in [known[i] for i in ids] if ids else EXPERIMENTS:
        outcome = row.run()
        (REPORTS / f"{row.stem}.txt").write_text(outcome.report + "\n")
        print(f"\n{'=' * 72}\n{row.id} · {row.stem} ({row.kind})\n{'=' * 72}\n{outcome.report}\n")
        for name, holds in outcome.checks:
            print(f"  [{'ok' if holds else 'FAILED'}] {name}")
            if not holds:
                failed.append(f"{row.id}: {name}")
        if outcome.values:
            blocks[row.id] = numbers_block(row, outcome)
    (REPORTS / "INDEX.md").write_text(render_index())
    DOC.write_text(splice(DOC.read_text(), blocks))
    if failed:
        print("\nshape checks failed:\n  " + "\n  ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
