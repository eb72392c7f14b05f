"""Bit-level helpers: vertex masks and their set bits."""

from __future__ import annotations

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

    Up to one set bit per 256 of x's length is peeled from the top: the top
    bit left is read with `bit_length` and cleared, so each step costs the
    length of what is left, and a census block of 2**16 bits peels up to
    256 bits, one of 2**15 bits up to 128.  The unpeeled rest is walked:
    its little-endian bytes go through `compress`, which makes one index
    object per byte, and each nonzero byte expands from a table.  Masks
    under 256 bits, such as edges, have no budget and are walked whole.
    """
    top: list[int] = []
    rest = x
    budget = x.bit_length() >> 8
    while rest and len(top) < budget:
        b = rest.bit_length() - 1
        top.append(b)
        rest ^= 1 << b
    data = rest.to_bytes((rest.bit_length() + 7) // 8, "little")
    out: list[int] = []
    append = out.append
    for i in compress(range(len(data)), data):
        base = i << 3
        for j in _BYTE_BITS[data[i]]:
            append(base + j)
    top.reverse()
    out += top
    return out

