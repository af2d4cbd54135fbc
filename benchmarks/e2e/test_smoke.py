"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not collected by tier 1 (``testpaths = tests``): it forks ~20 processes and
takes about a minute.  ``--quick`` runs 3 timed steps per child, enough to
check the plumbing — names, units, the ledger identity, the zero/null
pattern across workloads — not the numbers.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: the ledger rows: every layer's main-thread self time, engine included
ROWS = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].endswith(".self_ms") or m["name"] == "nvme.wait_ms"
]


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=600, **kwargs,
    )


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as f:
        return json.load(f), proc.stdout


def test_spec_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert all(m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(quick_set, workload):
    result, stdout = quick_set
    w = result["workloads"][workload]
    assert w["correct"], w["checks"]
    for m in SPEC["end_to_end"]:
        assert w["end_to_end"][m["name"]]["median"] > 0, m["name"]
        assert re.search(rf"{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}", stdout)
    for m in SPEC["per_layer"]:
        assert m["name"] in w["per_layer"], m["name"]
        assert re.search(rf"{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}", stdout)
    assert not w["missing_entry_points"]
    assert result["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_rows_sum_to_the_step_wall(quick_set, workload):
    layers = quick_set[0]["workloads"][workload]["per_layer"]
    total = sum(layers[row] for row in ROWS)
    assert total == pytest.approx(layers["bench.traced_step_ms"], rel=0.02)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_off_the_path_read_zero(quick_set, workload):
    layers = quick_set[0]["workloads"][workload]["per_layer"]
    nvme = [v for k, v in layers.items() if k.startswith("nvme.") and ".probe." not in k]
    if workload == "nvme_z3":
        assert all(v > 0 for k, v in layers.items() if k in ("nvme.self_ms", "nvme.read_ops"))
        assert 0 < layers["core.prefetch.hit_ratio"] <= 1
    else:
        assert nvme and all(v == 0 for v in nvme)
    for name in ("comm.wait_ms", "comm.exchanges"):
        assert (layers[name] is not None) == (workload == "mp_z3"), name


def test_probes_ran(quick_set):
    layers = quick_set[0]["workloads"]["dense_z3"]["per_layer"]
    probes = [k for k in layers if ".probe." in k]
    assert len(probes) >= 20
    assert all(layers[k] > 0 for k in probes)


def test_driver_line_has_exactly_the_contract_keys():
    proc = run("--workload", "offload_z2_cpu", "--seed", "3", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0


def test_no_program_no_result(tmp_path):
    """In a directory holding only the benchmark the run fails fast, and
    prints no result line."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "dense_z3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
