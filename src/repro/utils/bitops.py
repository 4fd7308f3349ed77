"""Small bit-manipulation helpers used across the package.

All functions operate on plain Python integers (arbitrary precision) so they
can be used for bit-widths well beyond 64 bits, e.g. when bit-blasting the
``NEWTON(128)`` design.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence


def clog2(value: int) -> int:
    """Return the ceiling of ``log2(value)`` for a positive integer.

    ``clog2(1)`` is 0.  This mirrors the usual hardware-design helper and is
    used, e.g., for the minimum-garbage-line bound of Eq. (3) in the paper.
    """
    if value <= 0:
        raise ValueError(f"clog2 requires a positive value, got {value}")
    return (value - 1).bit_length()


def bit_length(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1)."""
    if value < 0:
        raise ValueError("bit_length is defined for non-negative values")
    return max(1, value.bit_length())


def _bin_bit_count(value: int) -> int:
    """Stand-in for ``int.bit_count`` on Python 3.9."""
    return bin(value).count("1")


#: Number of set bits in ``abs(value)``, without a sign check: the built-in
#: ``int.bit_count`` where the interpreter has it (Python 3.10+), else a
#: ``bin`` count.  Every Python-int popcount in the package goes through it.
bit_count = getattr(int, "bit_count", _bin_bit_count)


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative values")
    return bit_count(value)


def int_to_bits(value: int, width: int) -> List[int]:
    """Little-endian bit list (index 0 = LSB) of ``value`` with ``width`` bits."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0:
        value &= (1 << width) - 1
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`int_to_bits` (little-endian bit list to integer)."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r} at index {i}")
        value |= bit << i
    return value


def iter_minterms(num_vars: int) -> Iterator[int]:
    """Iterate over all input assignments of ``num_vars`` variables."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return iter(range(1 << num_vars))


def reverse_bits(value: int, width: int) -> int:
    """Reverse the ``width`` least significant bits of ``value``."""
    result = 0
    for i in range(width):
        if (value >> i) & 1:
            result |= 1 << (width - 1 - i)
    return result


def sign_extend(value: int, width: int) -> int:
    """Interpret the ``width``-bit pattern ``value`` as a two's-complement int."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def to_unsigned(value: int, width: int) -> int:
    """Reduce a (possibly negative) integer to its ``width``-bit pattern."""
    return value & ((1 << width) - 1)
