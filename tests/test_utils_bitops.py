"""Unit tests for repro.utils.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import bitops
from repro.utils.bitops import (
    bit_count,
    bit_length,
    bits_to_int,
    clog2,
    int_to_bits,
    iter_minterms,
    popcount,
    reverse_bits,
    sign_extend,
    to_unsigned,
)


class TestClog2:
    def test_powers_of_two(self):
        assert clog2(1) == 0
        assert clog2(2) == 1
        assert clog2(4) == 2
        assert clog2(1024) == 10

    def test_non_powers(self):
        assert clog2(3) == 2
        assert clog2(5) == 3
        assert clog2(1000) == 10

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            clog2(0)
        with pytest.raises(ValueError):
            clog2(-1)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_defining_property(self, value):
        k = clog2(value)
        assert (1 << k) >= value
        assert k == 0 or (1 << (k - 1)) < value


class TestBitConversions:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        bits = int_to_bits(value, 64)
        assert bits_to_int(bits) == value

    def test_little_endian(self):
        assert int_to_bits(6, 4) == [0, 1, 1, 0]
        assert bits_to_int([0, 1, 1, 0]) == 6

    def test_negative_values_wrap(self):
        assert int_to_bits(-1, 4) == [1, 1, 1, 1]

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])


class TestMisc:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        with pytest.raises(ValueError):
            popcount(-1)

    @given(st.integers(min_value=-(1 << 200), max_value=1 << 200))
    def test_bit_count_fallback_matches_builtin_count(self, value):
        # Python 3.9 has no int.bit_count; the bin() count stands in.
        expected = bin(value).count("1")
        assert bitops._bin_bit_count(value) == expected
        assert bit_count(value) == expected
        if value >= 0:
            assert popcount(value) == expected

    def test_bit_length(self):
        assert bit_length(0) == 1
        assert bit_length(1) == 1
        assert bit_length(255) == 8

    def test_iter_minterms(self):
        assert list(iter_minterms(3)) == list(range(8))
        assert list(iter_minterms(0)) == [0]

    def test_reverse_bits(self):
        assert reverse_bits(0b001, 3) == 0b100
        assert reverse_bits(0b110, 3) == 0b011

    @given(st.integers(min_value=0, max_value=255))
    def test_reverse_involution(self, value):
        assert reverse_bits(reverse_bits(value, 8), 8) == value

    def test_sign_extend(self):
        assert sign_extend(0b1111, 4) == -1
        assert sign_extend(0b0111, 4) == 7
        assert sign_extend(0b1000, 4) == -8

    @given(st.integers(min_value=-128, max_value=127))
    def test_sign_roundtrip(self, value):
        assert sign_extend(to_unsigned(value, 8), 8) == value
