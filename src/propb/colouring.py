"""Two-colouring engines.

`enumerate_proper` scans the whole colouring space exactly.  Vertex 0 is
pinned blue and the count doubled (a colouring and its complement are proper
together).  The other v - 1 vertices are scan bits: the low 16 (or all of
them, if fewer) vary inside a block of 2**16 colourings held as one big-int
bit pattern, and the high ones are fixed per block, so 18 vertices make 2
blocks and 26 make 512.

Each edge splits into a low part (vertex 0 and the scan vertices inside a
block) and a high part (the vertices fixed by the block).  The red and blue
patterns of the low part are built once and ORed into tables keyed by the
high part.  A block takes a red key when the key's vertices are all red in
it and a blue key when they are all blue.  That is a small-int test per key
and one big OR per key taken.  Once a block's monochromatic mask is full,
the block has no proper colouring and its remaining keys are skipped.

A table holds at most 2**_KEY_BITS keys per colour, about 1 MiB.  With more
than _KEY_BITS high vertices, the top ones are fixed per pass: each of
their colourings gets its own table, built only from the edge sides still
live under it (top members all red for the red side, all blue for the blue
side).  Counts and the sorted materialized list do not depend on the split.

`is_two_colourable` is a backtracking decision procedure with unit
propagation for instances past the exhaustive limit.  It always terminates
(worst case exponential) and its witness is reproducible: branching is on the
lowest-index uncoloured vertex, blue before red.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from propb._bits import bit_indices, mask_members, scan_bit_pattern, scan_ones, scan_popcount_pattern
from propb.core import Hypergraph

DEFAULT_ENUM_LIMIT = 28
ENUM_LIMIT_ENV = "PROPB_ENUM_LIMIT"

_BLOCK_BITS = 16
# Key bits per pass table: 2 colours x 2**6 keys x 8 KiB patterns is 1 MiB.
_KEY_BITS = 6


def enumeration_limit() -> int:
    """Vertex ceiling for exhaustive enumeration (env override: PROPB_ENUM_LIMIT).

    Raises ValueError naming the variable when it is set to anything but a
    nonnegative integer.
    """
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if not raw:
        return DEFAULT_ENUM_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"{ENUM_LIMIT_ENV} must be a nonnegative integer, got {raw!r}")
    return limit


@dataclass(frozen=True)
class Colouring:
    """Red/blue split of vertices 0..v-1; bit i of red_mask means vertex i is red."""

    v: int
    red_mask: int

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError("vertex count must be nonnegative")
        if not 0 <= self.red_mask < (1 << self.v):
            raise ValueError("red set out of range for vertex count")

    @classmethod
    def from_red(cls, v: int, red: Sequence[int] | frozenset[int] | set[int]) -> "Colouring":
        mask = 0
        for u in red:
            if not 0 <= u < v:
                raise ValueError(f"vertex {u} out of range for v={v}")
            mask |= 1 << u
        return cls(v, mask)

    @property
    def red(self) -> frozenset[int]:
        return frozenset(bit_indices(self.red_mask))

    @property
    def blue_mask(self) -> int:
        return ((1 << self.v) - 1) ^ self.red_mask

    @property
    def blue(self) -> frozenset[int]:
        return frozenset(bit_indices(self.blue_mask))

    @property
    def red_count(self) -> int:
        return self.red_mask.bit_count()

    def complement(self) -> "Colouring":
        return Colouring(self.v, self.blue_mask)


@dataclass(frozen=True)
class EnumerationReport:
    """Exact census of proper colourings.

    `colourings` is populated only when materialization was requested; it is
    sorted by red bitmask and closed under complement.
    """

    total_proper: int
    balanced_count: int
    colourings: tuple[Colouring, ...] | None = None


def _check_same_vertices(h: Hypergraph, c: Colouring) -> None:
    if h.v != c.v:
        raise ValueError("hypergraph and colouring have different vertex counts")


def is_proper(h: Hypergraph, c: Colouring) -> bool:
    """True iff no edge is monochromatic under c."""
    _check_same_vertices(h, c)
    red = c.red_mask
    for mask in h.edge_masks:
        hit = mask & red
        if hit == mask or hit == 0:
            return False
    return True


def monochromatic_edges(h: Hypergraph, c: Colouring) -> list[frozenset[int]]:
    """All edges lying inside one colour class, in canonical edge order."""
    _check_same_vertices(h, c)
    red = c.red_mask
    out = []
    for mask in h.edge_masks:
        hit = mask & red
        if hit == mask or hit == 0:
            out.append(frozenset(mask_members(mask)))
    return out


def enumerate_proper(
    h: Hypergraph,
    materialize: bool = False,
    limit: int | None = None,
) -> EnumerationReport:
    """Exact count (and optionally the list) of proper colourings of h.

    Counts cover all 2**v colourings.  Refuses hypergraphs above the
    enumeration limit; use is_two_colourable for a yes/no answer there.
    """
    if limit is None:
        limit = enumeration_limit()
    if h.v > limit:
        raise ValueError(
            f"{h.v} vertices exceeds the exhaustive enumeration limit ({limit}); "
            "use is_two_colourable for a decision"
        )
    v = h.v
    if v == 0:
        cols = (Colouring(0, 0),) if materialize else None
        return EnumerationReport(total_proper=1, balanced_count=1, colourings=cols)

    t_bits = min(v - 1, _BLOCK_BITS)
    high_bits = v - 1 - t_bits
    key_bits = min(high_bits, _KEY_BITS)
    key_mask = (1 << key_bits) - 1
    full = scan_ones(t_bits)
    low_mask = (1 << t_bits) - 1
    red_pats = [scan_bit_pattern(b, t_bits) for b in range(t_bits)]
    blue_pats = [full ^ p for p in red_pats]

    # Scan bit b is vertex b + 1.  Each edge keeps its low scan bits, its
    # pass bits (the high bits above the key bits), its key bits and whether
    # it holds vertex 0, sorted so that equal low prefixes are adjacent.
    edges = []
    for mask in h.edge_masks:
        scan = mask >> 1
        high = scan >> t_bits
        edges.append((mask_members(scan & low_mask), high >> key_bits, high & key_mask, mask & 1))
    edges.sort()

    total = 0
    balanced = 0
    red_masks: list[int] = []
    for top in range(1 << (high_bits - key_bits)):
        groups = _pass_table(edges, top, red_pats, blue_pats, full)
        for key in range(1 << key_bits):
            mono = 0
            for group_key, want, pattern in groups:
                if group_key & key == want:
                    mono |= pattern
                    if mono == full:
                        break
            else:
                proper = full ^ mono
                count = proper.bit_count()
                if not count:
                    continue
                fixed = top << key_bits | key
                total += count
                if v % 2 == 0:
                    wanted = v // 2 - fixed.bit_count()
                    balanced += (proper & scan_popcount_pattern(t_bits, wanted)).bit_count()
                if materialize:
                    base = fixed << t_bits
                    red_masks.extend([(base | k) << 1 for k in bit_indices(proper)])
        del groups  # free this pass's table before the next one is built

    colourings = None
    if materialize:
        full_mask = (1 << v) - 1
        both = red_masks + [full_mask ^ r for r in red_masks]
        both.sort()
        colourings = tuple(Colouring(v, r) for r in both)
    return EnumerationReport(2 * total, 2 * balanced, colourings)


def _pass_table(
    edges: list[tuple[tuple[int, ...], int, int, int]],
    top: int,
    red_pats: list[int],
    blue_pats: list[int],
    full: int,
) -> list[tuple[int, int, int]]:
    """The table of one pass: (key, want, pattern) triples.

    `top` colours the pass bits (1 = red).  An edge's red side is live when
    its pass members are all red and it avoids vertex 0, which is pinned
    blue; its blue side is live when its pass members are all blue.  A block
    whose key bits are k takes a pattern iff key & k == want, so a red key
    must lie within k and a blue key must miss it.
    """
    red = _or_by_key(
        ((low, key) for low, pass_mask, key, has_zero in edges
         if pass_mask & top == pass_mask and not has_zero),
        red_pats,
        full,
    )
    blue = _or_by_key(
        ((low, key) for low, pass_mask, key, _ in edges if not pass_mask & top),
        blue_pats,
        full,
    )
    return [(k, k, p) for k, p in red.items()] + [(k, 0, p) for k, p in blue.items()]


def _or_by_key(
    sides: Iterable[tuple[tuple[int, ...], int]], pats: list[int], full: int
) -> dict[int, int]:
    """OR each side's pattern (the AND of pats over its low bits) by key.

    Sides come sorted by low bits, so neighbours share a prefix of them;
    `ands[i]` keeps the AND over the previous side's first i bits, and
    only the bits past the shared prefix cost a big AND.
    """
    table: dict[int, int] = {}
    prev: tuple[int, ...] = ()
    ands = [full]
    for low, key in sides:
        shared = 0
        for a, b in zip(prev, low):
            if a != b:
                break
            shared += 1
        del ands[shared + 1 :]
        pattern = ands[shared]
        for b in low[shared:]:
            pattern &= pats[b]
            ands.append(pattern)
        prev = low
        table[key] = table.get(key, 0) | pattern
    return table


def is_two_colourable(h: Hypergraph) -> tuple[bool, Colouring | None]:
    """Decide 2-colourability; returns (True, witness) or (False, None)."""
    v = h.v
    full = (1 << v) - 1
    incident: list[list[int]] = [[] for _ in range(v)]
    for mask in h.edge_masks:
        for u in mask_members(mask):
            incident[u].append(mask)

    red = 0
    blue = 0
    trail: list[tuple[int, bool]] = []

    def paint(queue: list[tuple[int, bool]]) -> bool:
        """Apply queued assignments plus unit consequences; False on conflict.

        Whatever got painted stays on the trail even when a conflict follows,
        so callers roll back to their own mark.
        """
        nonlocal red, blue
        i = 0
        while i < len(queue):
            u, as_red = queue[i]
            i += 1
            bit = 1 << u
            if (red | blue) & bit:
                if bool(red & bit) != as_red:
                    return False
                continue
            if as_red:
                red |= bit
            else:
                blue |= bit
            trail.append((bit, as_red))
            for mask in incident[u]:
                r = mask & red
                b = mask & blue
                if r == mask or b == mask:
                    return False
                rest = mask & ~(red | blue)
                if rest and rest & (rest - 1) == 0:
                    # one member left; if the rest share a colour, force the opposite
                    if b == 0:
                        queue.append((rest.bit_length() - 1, False))
                    elif r == 0:
                        queue.append((rest.bit_length() - 1, True))
        return True

    def undo(mark: int) -> None:
        nonlocal red, blue
        while len(trail) > mark:
            bit, was_red = trail.pop()
            if was_red:
                red ^= bit
            else:
                blue ^= bit

    stack: list[list[int]] = []  # frames: [vertex, tried_red, trail_mark]
    while True:
        free = full & ~(red | blue)
        if free == 0:
            return True, Colouring(v, red)
        u = (free & -free).bit_length() - 1
        stack.append([u, 0, len(trail)])
        ok = paint([(u, False)])
        while not ok:
            if not stack:
                return False, None
            frame = stack[-1]
            undo(frame[2])
            if frame[1] == 0:
                frame[1] = 1
                ok = paint([(frame[0], True)])
            else:
                stack.pop()


def pair_opposites(colourings: Sequence[Colouring]) -> list[tuple[Colouring, Colouring]]:
    """Group a complement-closed list of colourings into opposite pairs.

    Within a pair the member whose red set contains vertex 0 comes first;
    pairs are sorted by that member's red bitmask.  Rejects duplicates,
    lists not closed under complement, and mixed vertex counts.
    """
    if not colourings:
        return []
    v = colourings[0].v
    if any(c.v != v for c in colourings):
        raise ValueError("colourings live on different vertex counts")
    masks = [c.red_mask for c in colourings]
    seen = set(masks)
    if len(seen) != len(masks):
        raise ValueError("duplicate colourings in input")
    full = (1 << v) - 1
    for m in seen:
        partner = full ^ m
        if partner == m:
            raise ValueError("self-complementary colouring in input")
        if partner not in seen:
            raise ValueError("input list is not closed under complement")
    firsts = sorted(m for m in seen if m & 1)
    return [(Colouring(v, m), Colouring(v, full ^ m)) for m in firsts]
