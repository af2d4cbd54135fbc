"""The static deliberate-bug corpus: every snippet fires exactly its check.

Mirror of ``tests/test_check_corpus.py`` for the static verifier
(``tests/check_corpus/static/``).  Two snippet families:

* **builder snippets** define ``build() -> ScheduleIR``;
  :func:`verify_schedule` over the IR must report the declared
  ``EXPECT`` kind (recall) and *only* that kind (precision);
* **lint snippets** define ``LINT_AS``; their own source is linted as if
  it lived at that module path and must fire exactly the declared rule.

Together the corpus covers every static finding kind and every new
interprocedural lint rule — if a refactor weakens a pass, the matching
snippet goes green-silent and this suite fails.
"""

import importlib.util
import pathlib

import pytest

from repro.check.lint import lint_source
from repro.check.static import STATIC_FINDING_KINDS
from repro.check.static.verify import verify_schedule

CORPUS_DIR = pathlib.Path(__file__).parent / "check_corpus" / "static"
SNIPPETS = sorted(
    p for p in CORPUS_DIR.glob("*.py") if p.name != "__init__.py"
)

#: New interprocedural rules the lint half of the corpus must cover.
STATIC_LINT_RULES = (
    "rank-divergent-collective",
    "readonly-view-escape",
    "shm-use-after-unlink",
)


def load(path):
    spec = importlib.util.spec_from_file_location(
        f"static_corpus_{path.stem}", path
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def builder_snippets():
    return [p for p in SNIPPETS if hasattr(load(p), "build")]


def lint_snippets():
    return [p for p in SNIPPETS if hasattr(load(p), "LINT_AS")]


def test_corpus_is_nonempty():
    assert builder_snippets(), "builder half of the static corpus is empty"
    assert lint_snippets(), "lint half of the static corpus is empty"


@pytest.mark.parametrize("path", SNIPPETS, ids=lambda p: p.stem)
def test_snippet_declares_exactly_one_family(path):
    mod = load(path)
    assert hasattr(mod, "build") != hasattr(mod, "LINT_AS"), path.name
    assert hasattr(mod, "EXPECT"), path.name


@pytest.mark.parametrize(
    "path", builder_snippets(), ids=lambda p: p.stem
)
def test_builder_snippet_fires_exactly_expected_kind(path):
    mod = load(path)
    findings = verify_schedule(mod.build())
    kinds = {f.kind for f in findings}
    # recall: the declared defect is found; precision: nothing else is
    assert kinds == {mod.EXPECT}, (path.name, [f.format() for f in findings])


@pytest.mark.parametrize("path", lint_snippets(), ids=lambda p: p.stem)
def test_lint_snippet_fires_exactly_expected_rule(path):
    mod = load(path)
    findings = lint_source(path.read_text(), mod.LINT_AS)
    rules = {f.rule for f in findings}
    assert rules == {mod.EXPECT}, (path.name, [f.rule for f in findings])


def test_corpus_covers_every_static_finding_kind():
    covered = {load(p).EXPECT for p in builder_snippets()}
    assert covered == set(STATIC_FINDING_KINDS)


def test_corpus_covers_every_new_lint_rule():
    covered = {load(p).EXPECT for p in lint_snippets()}
    assert covered == set(STATIC_LINT_RULES)
