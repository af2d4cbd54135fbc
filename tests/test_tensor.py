"""Device tags, dtypes, and flat-buffer partitioning arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    CPU,
    Device,
    DeviceKind,
    FP16,
    FP32,
    dtype_of,
    gpu,
    nvme,
    pad_flat,
    pad_to_multiple,
    partition_bounds,
    partition_padded_size,
    same_buffer,
)
from repro.tensor.dtypes import BYTES_PER_PARAM_TOTAL


class TestDevice:
    def test_parse_gpu(self):
        assert Device.parse("gpu:3") == Device(DeviceKind.GPU, 3)

    def test_parse_cpu(self):
        assert Device.parse("cpu") == CPU

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            Device.parse("tpu:0")

    def test_cpu_index_must_be_zero(self):
        with pytest.raises(ValueError):
            Device(DeviceKind.CPU, 1)

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            Device(DeviceKind.GPU, -1)

    def test_str_roundtrip(self):
        for d in (gpu(2), CPU, nvme(1)):
            assert Device.parse(str(d)) == d

    def test_cached_constructors(self):
        assert gpu(5) is gpu(5)
        assert nvme() == nvme(0)

    def test_kind_predicates(self):
        assert gpu(0).kind is DeviceKind.GPU and CPU.is_cpu
        assert nvme().kind is DeviceKind.NVME


class TestDtypes:
    def test_mixed_precision_byte_budget(self):
        # Sec. 3: "each parameter requires 20 bytes of memory"
        assert BYTES_PER_PARAM_TOTAL == 20

    def test_dtype_of_string(self):
        assert dtype_of("fp16") is FP16

    def test_dtype_of_array(self):
        assert dtype_of(np.zeros(3, dtype=np.float32)) is FP32

    def test_dtype_of_unknown_raises(self):
        with pytest.raises(ValueError):
            dtype_of("int7")
        with pytest.raises(ValueError):
            dtype_of(np.zeros(1, dtype=np.int32))

    def test_cast_avoids_copy_when_possible(self):
        a = np.zeros(4, dtype=np.float32)
        assert FP32.cast(a) is a


class TestPartitionMath:
    def test_pad_to_multiple(self):
        assert pad_to_multiple(10, 4) == 12
        assert pad_to_multiple(8, 4) == 8
        assert pad_to_multiple(0, 4) == 0

    def test_pad_flat_copies_only_a_ragged_tail(self):
        a = np.arange(6, dtype=np.float16).reshape(2, 3)
        whole = pad_flat(a, 6)
        assert same_buffer(whole, a) and whole.shape == (6,)
        padded = pad_flat(a, 8)
        assert not np.shares_memory(padded, a) and padded.dtype == a.dtype
        np.testing.assert_array_equal(padded, [0, 1, 2, 3, 4, 5, 0, 0])
        np.testing.assert_array_equal(pad_flat(a.reshape(-1)[6:], 2), [0, 0])

    def test_same_buffer_is_start_address_identity(self):
        a = np.zeros(8, dtype=np.float32)
        assert same_buffer(a, a[:4]) and same_buffer(a.reshape(2, 4), a)
        assert not same_buffer(a[1:], a) and not same_buffer(a.copy(), a)

    def test_pad_invalid_raises(self):
        with pytest.raises(ValueError):
            pad_to_multiple(5, 0)
        with pytest.raises(ValueError):
            pad_to_multiple(-1, 2)

    def test_bounds_basic(self):
        assert partition_bounds(10, 4, 0) == (0, 3)
        assert partition_bounds(10, 4, 3) == (9, 10)

    def test_bounds_out_of_range_rank(self):
        with pytest.raises(ValueError):
            partition_bounds(10, 4, 4)

    @given(
        numel=st.integers(0, 10_000),
        world=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_is_disjoint_and_exhaustive(self, numel, world):
        """Every element belongs to exactly one rank's shard."""
        covered = 0
        prev_hi = 0
        for rank in range(world):
            lo, hi = partition_bounds(numel, world, rank)
            assert lo == prev_hi  # contiguous, no gaps or overlaps
            assert hi >= lo
            covered += hi - lo
            prev_hi = hi
        assert covered == numel

    @given(numel=st.integers(1, 10_000), world=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_shard_size_consistent(self, numel, world):
        padded = partition_padded_size(numel, world)
        assert padded % world == 0 and padded >= numel
        for rank in range(world):
            lo, hi = partition_bounds(numel, world, rank)
            assert hi - lo <= padded // world
