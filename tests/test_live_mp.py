"""Live telemetry plane under the process-parallel backend.

The mp half of ISSUE 9's observability contract: per-rank JSONL shards
merge onto one timeline, the parent-side watchdog flags an injected
straggler from polled ring samples, the flight-recorder bundle is
byte-identical between the loop oracle and real rank processes for a
fixed fault seed, and the stage-3 x world-4 chaos cell leaves a complete
postmortem bundle behind when every rank dies unrecoverably.
"""

import json
import os

import pytest

from repro.comm import MpWorkerFailed, run_multiproc
from repro.faults import use_faults
from repro.obs.flightrec import FlightRecorder, canonical_json, use_flightrec
from repro.obs.live import LiveConfig, LivePlane, use_live
from repro.workloads.calibrate import CalibSpec, run_mp_training, run_training

SPEC = CalibSpec(world=2, steps=3)
STRAGGLER = "straggler@rank.begin:rank=1,times=3,delay_us=5000"


@pytest.mark.mp
def test_mp_telemetry_jsonl_shards_merge(tmp_path):
    path = str(tmp_path / "tel.jsonl")
    run_mp_training(SPEC, live=LiveConfig(jsonl_path=path))
    shards = [f"{path}.rank{r}" for r in range(SPEC.world)]
    assert all(os.path.exists(p) for p in shards)
    merged = []
    for path in shards:
        with open(path) as fh:
            merged.extend(json.loads(line) for line in fh if line.strip())
    assert {r["rank"] for r in merged} == {0, 1}
    for rank in (0, 1):
        # CLOCK_MONOTONIC is system-wide across forks: every shard's
        # stamps are ordered on the one shared clock
        stamps = [r["mono_us"] for r in merged if r["rank"] == rank]
        assert stamps == sorted(stamps)
    assert any(r["phase"] == "step_end" for r in merged)


@pytest.mark.mp
def test_watchdog_flags_injected_straggler(tmp_path):
    spec = CalibSpec(world=2, steps=6)
    views = []
    run_mp_training(
        spec,
        live=LiveConfig(straggler_delay_us=1000),
        faults=STRAGGLER,
        faults_seed=3,
        on_view=views.append,
        view_interval=0.02,
    )
    assert views, "parent monitor loop produced no views"
    flagged = [v for v in views if v.states.get(1) == "straggler"]
    assert flagged, f"straggler never flagged in {len(views)} views"
    view = flagged[0]
    # flagged off the rank's own published sample, within its first
    # heartbeats (delay detection needs no skew accumulation)
    assert view.samples[1] is not None
    assert view.samples[1].delay_us > 0
    assert view.samples[1].hb <= spec.steps
    assert view.states[0] == "ok"


@pytest.mark.mp
def test_flight_bundle_bytes_match_loop_oracle():
    spec = SPEC
    faults, seed = STRAGGLER, 3

    def worker(backend):
        from repro.obs import planes

        with use_faults(faults, seed=seed):
            run_training(spec, comm_backend=backend)
        rec = planes.flightrec
        assert rec is not None  # installed by the launcher's live plane
        return canonical_json(rec.rank_bundle_doc(backend.rank))

    out = run_multiproc(spec.world, worker, timeout=60.0, live=LiveConfig())
    mp_bytes = out.results

    rec = FlightRecorder()
    plane = LivePlane(world=spec.world, config=LiveConfig(), recorder=rec)
    with use_flightrec(rec), use_live(plane):
        with use_faults(faults, seed=seed):
            run_training(spec)
    loop_bytes = [
        canonical_json(rec.rank_bundle_doc(r)) for r in range(spec.world)
    ]

    assert mp_bytes == loop_bytes  # byte-identical across backends
    assert b'"kind":"fault"' in loop_bytes[1]


@pytest.mark.mp
def test_chaos_cell_leaves_complete_postmortem_bundle(tmp_path):
    # stage-3 x world-4 x mp with an unrecoverable checksum storm: every
    # rank dies, every rank's shard lands, the parent writes the manifest
    spec = CalibSpec(world=4, steps=2, stage=3, offload="nvme")
    bundle_dir = tmp_path / "postmortem"
    with pytest.raises(MpWorkerFailed):
        run_mp_training(
            spec,
            trace=True,
            live=LiveConfig(postmortem_dir=str(bundle_dir)),
            faults="bit_flip@aio.read:times=1000",
            faults_seed=0,
        )
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    assert manifest["world"] == 4
    assert manifest["ranks"] == [0, 1, 2, 3]
    for rank in range(4):
        shard = json.loads(
            (bundle_dir / f"events.rank{rank}.json").read_bytes()
        )
        assert shard["rank"] == rank
        # the killing fault reached the shared run ring of every shard
        assert "fault" in [e["kind"] for e in shard["run"]]
        state = json.loads(
            (bundle_dir / f"state.rank{rank}.json").read_text()
        )
        assert "FaultUnrecoverable" in state["reason"]
        # per-rank runtime trace tail rode along (trace=True run)
        tail = json.loads(
            (bundle_dir / f"trace_tail.rank{rank}.json").read_text()
        )
        assert tail and any(ev.get("ph") == "X" for ev in tail)
