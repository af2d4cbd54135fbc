"""Dynamic prefetcher: trace recording, lookahead, invalidation/recovery."""

import numpy as np
import pytest

from repro.core.config import OffloadConfig, OffloadDevice
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.core.prefetch import DynamicPrefetcher, OperatorTrace
from repro.nn.layers import Linear
from repro.utils.rng import seeded_rng


@pytest.fixture
def setup():
    cfg = OffloadConfig(param_device=OffloadDevice.NVME)
    offload = InfinityOffloadEngine(cfg)
    part = ParameterPartitioner(2, offload=offload)
    mods = [Linear(4, 4, rng=seeded_rng(i)) for i in range(5)]
    for m in mods:
        part.group_module(m, partition=True)
    yield offload, part, mods
    offload.close()


class TestOperatorTrace:
    def test_record_and_replay(self, setup):
        _, _, mods = setup
        trace = OperatorTrace()
        trace.record(mods[0], "fwd")
        trace.record(mods[1], "fwd")
        trace.finish()
        assert len(trace) == 2
        assert trace.module_at(1) is mods[1]

    def test_record_after_finish_raises(self, setup):
        _, _, mods = setup
        trace = OperatorTrace()
        trace.finish()
        with pytest.raises(RuntimeError):
            trace.record(mods[0], "fwd")


class TestDynamicPrefetcher:
    def run_iteration(self, pf, mods, phases=("fwd",)):
        pf.begin_iteration()
        for phase in phases:
            seq = mods if phase == "fwd" else reversed(mods)
            for m in seq:
                pf.on_execute(m, phase)
        pf.end_iteration()

    def test_first_iteration_records(self, setup):
        offload, part, mods = setup
        pf = DynamicPrefetcher(offload, part, depth=2)
        self.run_iteration(pf, mods, ("fwd", "bwd"))
        assert pf.trace is not None
        assert len(pf.trace) == 10
        assert pf.issued == 0  # recording iteration issues nothing

    def test_second_iteration_prefetches(self, setup):
        offload, part, mods = setup
        pf = DynamicPrefetcher(offload, part, depth=2)
        self.run_iteration(pf, mods)
        self.run_iteration(pf, mods)
        assert pf.issued > 0
        assert pf.invalidations == 0

    def test_prefetched_reads_are_consumed_by_gather(self, setup):
        offload, part, mods = setup
        pf = DynamicPrefetcher(offload, part, depth=3)
        self.run_iteration(pf, mods)
        pf.begin_iteration()
        pf.on_execute(mods[0], "fwd")  # prefetch for mods[1..3] issued
        part.gather(mods[1].weight)
        assert offload.counters.prefetch_hits > 0
        part.release(mods[1].weight)
        pf.end_iteration()

    def test_depth_zero_never_issues(self, setup):
        offload, part, mods = setup
        pf = DynamicPrefetcher(offload, part, depth=0)
        self.run_iteration(pf, mods)
        self.run_iteration(pf, mods)
        assert pf.issued == 0

    def test_dynamic_graph_invalidates_and_recovers(self, setup):
        """Sec. 6.2: the operator map updates on dynamic workflows."""
        offload, part, mods = setup
        pf = DynamicPrefetcher(offload, part, depth=2)
        self.run_iteration(pf, mods)  # records order 0..4
        # iteration with different order -> invalidate + re-record
        pf.begin_iteration()
        reordered = [mods[0], mods[2], mods[1], mods[3], mods[4]]
        for m in reordered:
            pf.on_execute(m, "fwd")
        pf.end_iteration()
        assert pf.invalidations == 1
        assert pf.trace is not None  # re-recorded
        # next iteration with the new order prefetches again
        issued_before = pf.issued
        pf.begin_iteration()
        for m in reordered:
            pf.on_execute(m, "fwd")
        pf.end_iteration()
        assert pf.invalidations == 1
        assert pf.issued > issued_before

    def test_available_params_not_prefetched(self, setup):
        offload, part, mods = setup
        for m in mods:
            part.gather(m.weight)
            part.gather(m.bias)
        pf = DynamicPrefetcher(offload, part, depth=2)
        self.run_iteration(pf, mods)
        self.run_iteration(pf, mods)
        assert pf.issued == 0  # nothing partitioned, nothing to fetch

    def test_negative_depth_raises(self, setup):
        offload, part, _ = setup
        with pytest.raises(ValueError):
            DynamicPrefetcher(offload, part, depth=-1)

    def test_shorter_iteration_then_longer(self, setup):
        """Trace shorter than execution also invalidates cleanly."""
        offload, part, mods = setup
        self_pf = DynamicPrefetcher(offload, part, depth=1)
        self.run_iteration(self_pf, mods[:2])
        self_pf.begin_iteration()
        for m in mods:  # longer than the trace
            self_pf.on_execute(m, "fwd")
        self_pf.end_iteration()
        assert self_pf.invalidations == 1
