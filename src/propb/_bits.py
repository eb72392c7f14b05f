"""Bit-level helpers: vertex masks and the block patterns used by the scanner."""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterable

# _BYTE_BITS[b] lists the set-bit positions of the byte value b, ascending.
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def mask_of(members: Iterable[int]) -> int:
    """Bitmask with one bit per vertex index."""
    m = 0
    for u in members:
        m |= 1 << u
    return m


def bit_indices(x: int) -> list[int]:
    """Set-bit positions of x, ascending.

    Walks the little-endian bytes of x with `compress`, which makes one
    index object per byte, and expands each nonzero byte from a table:
    cheap for edge masks and dense patterns.  Peeling the lowest set bit of
    x instead would cost a big-int operation per bit.  Long ints with few
    set bits, such as census blocks, go through `sparse_bit_indices`.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    out: list[int] = []
    append = out.append
    for i in compress(range(len(data)), data):
        base = i << 3
        for j in _BYTE_BITS[data[i]]:
            append(base + j)
    return out


def is_sparse(x: int, count: int) -> bool:
    """True iff x, of popcount `count`, has under one set bit per 128."""
    return count << 7 < x.bit_length()


def sparse_bit_indices(x: int, count: int) -> list[int]:
    """Set-bit positions of x, ascending, given its popcount `count`.

    `bit_indices` makes one index object per byte of x, which dominates for
    a census block with a few proper colourings among 2**16.  Sparse x
    (`is_sparse`) has its top bit read with `bit_length` and cleared, so each
    step costs the length of what is left.  Denser x goes to `bit_indices`.
    """
    if not is_sparse(x, count):
        return bit_indices(x)
    out: list[int] = []
    append = out.append
    while x:
        b = x.bit_length() - 1
        append(b)
        x ^= 1 << b
    out.reverse()
    return out


def mask_members(mask: int) -> tuple[int, ...]:
    """Vertices of an edge mask, ascending."""
    return tuple(bit_indices(mask))


@lru_cache(maxsize=None)
def scan_ones(t_bits: int) -> int:
    """All-ones pattern over a block of 2**t_bits scan positions."""
    return (1 << (1 << t_bits)) - 1


@lru_cache(maxsize=None)
def scan_bit_pattern(b: int, t_bits: int) -> int:
    """Pattern whose bit j (j < 2**t_bits) equals bit b of the integer j.

    Requires b < t_bits.  Built by doubling: 2**b zeros, 2**b ones,
    repeated out to the block width.
    """
    pattern = ((1 << (1 << b)) - 1) << (1 << b)
    width = 1 << (b + 1)
    size = 1 << t_bits
    while width < size:
        pattern |= pattern << width
        width <<= 1
    return pattern


@lru_cache(maxsize=None)
def scan_popcount_pattern(t_bits: int, count: int) -> int:
    """Pattern whose bit j (j < 2**t_bits) is set iff popcount(j) == count."""
    if count < 0 or count > t_bits:
        return 0
    if t_bits == 0:
        return 1
    low = scan_popcount_pattern(t_bits - 1, count)
    high = scan_popcount_pattern(t_bits - 1, count - 1)
    return low | (high << (1 << (t_bits - 1)))
