"""The deliberate-bug corpus: every snippet fires exactly its checker.

Two properties per snippet in ``tests/check_corpus/``:

* armed with its declared passes in raise mode, ``trigger()`` raises a
  :class:`CheckViolation` of exactly the declared ``EXPECT`` kind;
* armed with **all** passes in record mode, the recorded violations are of
  that kind only — no snippet trips an unrelated pass (precision, not
  just recall).
"""

import importlib.util
import pathlib

import pytest

from repro.check import CheckConfig, CheckViolation, use_checker
from repro.check.config import PASS_NAMES

CORPUS_DIR = pathlib.Path(__file__).parent / "check_corpus"
SNIPPETS = sorted(
    p for p in CORPUS_DIR.glob("*.py") if p.name != "__init__.py"
)


def load(path):
    spec = importlib.util.spec_from_file_location(f"corpus_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("path", SNIPPETS, ids=lambda p: p.stem)
def test_snippet_raises_expected_kind(path):
    mod = load(path)
    with use_checker(CheckConfig.from_spec(mod.PASSES, mode="raise")):
        with pytest.raises(CheckViolation) as exc:
            mod.trigger()
    assert exc.value.kind == mod.EXPECT


@pytest.mark.parametrize("path", SNIPPETS, ids=lambda p: p.stem)
def test_snippet_flagged_by_exactly_its_pass(path):
    mod = load(path)
    with use_checker(CheckConfig.from_spec("all", mode="record")) as ctx:
        mod.trigger()
        kinds = set(ctx.violation_counts())
    assert kinds == {mod.EXPECT}


def test_corpus_declares_valid_passes():
    for path in SNIPPETS:
        mod = load(path)
        declared = CheckConfig.from_spec(mod.PASSES)
        assert declared.any_runtime, path.name
        for name in mod.PASSES.split(","):
            assert name.strip() in PASS_NAMES


def test_corpus_exercises_every_runtime_pass():
    armed = set()
    for path in SNIPPETS:
        armed.update(
            n.strip() for n in load(path).PASSES.split(",") if n.strip()
        )
    runtime = set(PASS_NAMES) - {"lint"}
    assert runtime == {"zerosan", "races"}
    assert runtime <= armed


def test_corpus_size():
    assert len(SNIPPETS) >= 6, [p.name for p in SNIPPETS]
