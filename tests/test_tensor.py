"""Device tags, dtypes, DeviceTensor, and flat-buffer arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import MemoryLedger
from repro.tensor import (
    CPU,
    Device,
    DeviceKind,
    DeviceTensor,
    FP16,
    FP32,
    dtype_of,
    flatten_arrays,
    gpu,
    nvme,
    pad_flat,
    pad_to_multiple,
    partition_bounds,
    partition_padded_size,
    same_buffer,
    unflatten_array,
)
from repro.tensor.dtypes import BYTES_PER_PARAM_TOTAL
from repro.tensor.flat import FlatView, shard_size


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
        assert gpu(0).is_gpu and CPU.is_cpu and nvme().is_nvme


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


class TestDeviceTensor:
    def test_basic_properties(self):
        t = DeviceTensor.zeros((2, 3), "fp16", gpu(0), name="w")
        assert t.shape == (2, 3)
        assert t.numel == 6
        assert t.nbytes == 12
        assert t.dtype is FP16

    def test_move_updates_device(self):
        t = DeviceTensor.zeros((4,), "fp32")
        t.to(gpu(1))
        assert t.device == gpu(1)

    def test_move_same_device_noop(self):
        t = DeviceTensor.zeros((4,), "fp32", CPU)
        assert t.to(CPU) is t

    def test_ledger_accounting_on_move(self):
        ledger = MemoryLedger()
        t = DeviceTensor(np.zeros(100, dtype=np.float32), CPU, ledger=ledger)
        assert ledger.used(CPU) == 400
        t.to(gpu(0))
        assert ledger.used(CPU) == 0
        assert ledger.used(gpu(0)) == 400

    def test_release_frees_accounting(self):
        ledger = MemoryLedger()
        t = DeviceTensor(np.zeros(10, dtype=np.float16), gpu(0), ledger=ledger)
        t.release()
        assert ledger.used(gpu(0)) == 0
        assert t.numel == 0

    def test_copy_from_shape_mismatch_raises(self):
        t = DeviceTensor.zeros((2, 2), "fp32")
        with pytest.raises(ValueError):
            t.copy_from(np.zeros(3, dtype=np.float32))

    def test_copy_from_converts_dtype(self):
        t = DeviceTensor.zeros((3,), "fp32")
        t.copy_from(np.ones(3, dtype=np.float16))
        assert np.all(t.data == 1.0)

    def test_astype_returns_new(self):
        t = DeviceTensor.zeros((3,), "fp32", gpu(0))
        u = t.astype("fp16")
        assert u.dtype is FP16 and u.device == gpu(0)
        assert t.dtype is FP32


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
        assert shard_size(numel, world) * world == partition_padded_size(numel, world)


class TestFlatten:
    def test_roundtrip(self, rng):
        arrays = [rng.random((3, 4)), rng.random((5,)), rng.random((2, 2, 2))]
        flat = flatten_arrays(arrays)
        views = unflatten_array(flat, [a.shape for a in arrays])
        for a, v in zip(arrays, views):
            np.testing.assert_array_equal(a, v)

    def test_padding(self, rng):
        arrays = [rng.random(5).astype(np.float32)]
        flat = flatten_arrays(arrays, pad_multiple=4)
        assert flat.size == 8
        assert np.all(flat[5:] == 0)

    def test_views_share_memory(self, rng):
        flat = flatten_arrays([np.zeros(6, dtype=np.float32)])
        (v,) = unflatten_array(flat, [(2, 3)])
        v[0, 0] = 9.0
        assert flat[0] == 9.0

    def test_unflatten_overflow_raises(self):
        with pytest.raises(ValueError):
            unflatten_array(np.zeros(3), [(2, 2)])

    def test_empty_list_needs_dtype(self):
        with pytest.raises(ValueError):
            flatten_arrays([])

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6
        ),
        pad=st.integers(1, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_flatten_roundtrip_property(self, shapes, pad):
        arrays = [
            np.arange(int(np.prod(s)), dtype=np.float32).reshape(s) + i
            for i, s in enumerate(shapes)
        ]
        flat = flatten_arrays(arrays, pad_multiple=pad)
        assert flat.size % pad == 0
        for a, v in zip(arrays, unflatten_array(flat, shapes)):
            np.testing.assert_array_equal(a, v)


class TestFlatView:
    def test_named_views(self):
        fv = FlatView.build([("w", (2, 3)), ("b", (3,))], dtype=np.float32)
        assert fv["w"].shape == (2, 3)
        assert fv["b"].shape == (3,)
        assert "w" in fv and "missing" not in fv

    def test_views_alias_buffer(self):
        fv = FlatView.build([("x", (4,))])
        fv["x"][:] = 7
        assert np.all(fv.buffer[:4] == 7)

    def test_duplicate_name_raises(self):
        with pytest.raises(ValueError):
            FlatView.build([("x", (2,)), ("x", (2,))])

    def test_padding(self):
        fv = FlatView.build([("x", (5,))], pad_multiple=8)
        assert fv.numel == 8
