"""Every entry point the e2e benchmark wraps exists in ``src/``.

``benchmarks/e2e/trace.py`` patches the layers' public entry points by name
(``ENTRY_POINTS``).  A name that no longer exists is skipped there with a
warning, and only ``benchmarks/e2e/test_smoke.py`` fails on it — a suite
tier 1 does not run.  This test reads the same table and checks each name
the way the recorder resolves it: the module imports, the class is a
module attribute, and each attribute is a callable in the class's (or
module's) own namespace.  Nothing is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "trace.py"


def _entry_points() -> dict:
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()
SPECS = [
    (layer, module, cls, attrs)
    for layer, specs in ENTRY_POINTS.items()
    for module, cls, attrs in specs
]


@pytest.mark.parametrize(
    "layer,module_name,class_name,attrs",
    SPECS,
    ids=[f"{m}.{c}" if c else m for _, m, c, _ in SPECS],
)
def test_every_named_entry_point_exists(layer, module_name, class_name, attrs):
    module = importlib.import_module(module_name)
    owner = module if class_name is None else getattr(module, class_name, None)
    assert owner is not None, f"{layer}: {module_name}.{class_name} is gone"
    if attrs is None:
        # "every public function of the module": there must be one
        attrs = [
            n
            for n, v in vars(module).items()
            if not n.startswith("_")
            and callable(v)
            and getattr(v, "__module__", None) == module_name
        ]
        assert attrs, f"{layer}: {module_name} has no public function"
    missing = [a for a in attrs if not callable(vars(owner).get(a))]
    assert missing == [], f"{layer}: {module_name}.{class_name} lacks {missing}"
