"""The plane table (``repro.obs.planes``): the one process-global state of
the instrumentation planes, its scoping primitive and its environment
switches."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from repro.check.lint import default_src_root
from repro.obs import Tracer, planes, use_tracer

SRC = pathlib.Path(default_src_root())


def _rebinds_module_state(tree: ast.AST) -> bool:
    """A ``global`` statement, or a ``globals()`` call."""
    return any(
        isinstance(node, ast.Global)
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "globals"
        )
        for node in ast.walk(tree)
    )


def test_only_the_plane_table_rebinds_module_state():
    rebinding = sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if _rebinds_module_state(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert rebinding == ["repro/obs/planes.py"]


def test_installed_restores_the_previous_plane():
    before = planes.tracer
    outer, inner = Tracer(enabled=True), Tracer(enabled=True)
    with planes.installed("tracer", outer) as got:
        assert got is outer and planes.tracer is outer
        with pytest.raises(RuntimeError), use_tracer(inner):
            assert planes.tracer is inner
            raise RuntimeError("the block fails")
        assert planes.tracer is outer
    assert planes.tracer is before


def test_installed_knows_only_the_planes():
    with pytest.raises(ValueError, match="unknown plane 'Tracer'"):
        with planes.installed("Tracer", None):
            pass
    assert planes.Tracer is Tracer


_PROBE = (
    "from repro.obs import planes;"
    "c, f = planes.checker, planes.faults;"
    "print(planes.tracer.enabled, planes.memscope.enabled, planes.live,"
    " planes.flightrec, planes.schedule);"
    "print(c and (c.config.spec(), c.config.mode));"
    "print(f and (len(f.rules), f.seed))"
)


def _probe(**env: str) -> list[str]:
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**clean, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_environment_switches():
    assert _probe() == ["False False None None None", "None", "None"]
    assert _probe(REPRO_CHECK="off", REPRO_FAULTS="none")[1:] == ["None", "None"]
    assert _probe(
        REPRO_CHECK="zerosan",
        REPRO_CHECK_MODE="record",
        REPRO_FAULTS="io_error@aio.read:times=1",
        REPRO_FAULTS_SEED="7",
    )[1:] == ["('zerosan', 'record')", "(1, 7)"]
