"""Unit constants and formatting."""

from repro.utils.units import (
    GB,
    GIB,
    KB,
    MB,
    TB,
    format_bytes,
    format_count,
)


class TestConstants:
    def test_decimal_scaling(self):
        assert KB == 1000 and MB == 1000 * KB and GB == 1000 * MB and TB == 1000 * GB

    def test_binary_vs_decimal(self):
        assert GIB > GB
        assert GIB == 2**30


class TestFormatBytes:
    def test_terabytes(self):
        assert format_bytes(1.83e12) == "1.83 TB"

    def test_gigabytes(self):
        assert format_bytes(32 * GB) == "32.00 GB"

    def test_binary_units(self):
        assert format_bytes(2 * GIB, binary=True) == "2.00 GiB"

    def test_small_values(self):
        assert format_bytes(512) == "512 B"

    def test_zero(self):
        assert format_bytes(0) == "0 B"

    def test_negative(self):
        assert format_bytes(-3 * GB) == "-3.00 GB"

    def test_precision(self):
        assert format_bytes(1.5 * TB, precision=1) == "1.5 TB"


class TestFormatCount:
    def test_trillions(self):
        assert format_count(1.01e12) == "1.01T"

    def test_billions(self):
        assert format_count(175e9) == "175.00B"

    def test_small(self):
        assert format_count(42) == "42"
