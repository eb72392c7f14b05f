"""Two-colouring search: one lex-ordered traversal counts, lists and decides.

Vertex 0 is pinned blue; a colouring and its complement are proper together,
so counts are doubled.  The other vertices fall into three stages, in vertex
order:

- branch: vertices 1..p are searched depth first on the lowest-index free
  vertex, blue before red, and each assignment is propagated (`paint`).
- key: at each branch leaf, the next k vertices are enumerated.
- block: the top t vertices vary inside a block of 2**t colourings held as
  one big-int bit pattern.

`_split` chooses the split (t, k) per instance, and `_proper_blocks` alone
reads it.  A red and a blue table map each key to the block colourings on
which some edge is monochromatic.  They are built down the branch tree, and
each leaf reads every key from them.

Leaves, keys and blocks come out in lex order (vertex 0 first, blue before
red).  `enumerate_proper` counts every proper block or lists its
colourings as red masks (ints, like edges), while `is_two_colourable` stops
at the first one and narrows it to its lex-first colouring.  Up to 23
vertices there is no branch vertex and the search is one leaf (18 vertices
give 2 keys).  The default split (16, 6) gives 26 vertices 3 branch
vertices, so at most 8 leaves of 64 keys, and 32 vertices 9 branch
vertices and 512 leaves of 64 keys.  The wide split (15, 8) gives 26
vertices 2 branch vertices and 4 leaves of 256 keys, and 32 vertices 8
branch vertices and 256 leaves of 256 keys.  Random 7-edges on 26
vertices and random 8-edges on 32, as the alteration samples them, always
take the wide split.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from propb._bits import bit_indices
from propb.core import Hypergraph, _Value

# Vertex ceiling for counting and listing: about 2**31 colourings to scan.
ENUM_LIMIT = 32
# Listed colourings, complements included, at about 50 bytes each.
LIST_LIMIT = 1 << 23

# The (block bits, key bits) pairs that _split chooses from.  A branch
# node's two tables hold 2**k patterns of 2**t bits each: 1 MiB at the
# default pair and 2 MiB at the wide one, less what it shares with its parent.
_DEFAULT_SPLIT = (16, 6)
_WIDE_SPLIT = (15, 8)

# An edge as _or_by_key folds it: (S, key), where S holds its block members
# as block bits and key its key members as key bits.
Side = tuple[int, int]


class Colouring(_Value):
    """Red/blue split of vertices 0..v-1; bit i of red_mask means vertex i is red."""

    __slots__ = ("v", "red_mask")
    v: int
    red_mask: int

    def __init__(self, v: int, red_mask: int) -> None:
        if v < 0:
            raise ValueError("vertex count must be nonnegative")
        if red_mask < 0 or red_mask.bit_length() > v:
            raise ValueError("red set out of range for vertex count")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "red_mask", red_mask)

    @property
    def red(self) -> frozenset[int]:
        return frozenset(bit_indices(self.red_mask))


class EnumerationReport(NamedTuple):
    """Exact census of proper colourings.

    `red_masks` lists every proper colouring as its red bitmask, sorted and
    closed under complement; it is None unless materialization was requested.
    """

    total_proper: int
    red_masks: tuple[int, ...] | None = None

    @property
    def colourings(self) -> tuple[Colouring, ...] | None:
        """The red masks as `Colouring`s, built on read."""
        if self.red_masks is None:
            return None
        # Closed under complement, so the largest mask has the top vertex red.
        v = self.red_masks[-1].bit_length() if self.red_masks else 0
        return tuple(Colouring(v, m) for m in self.red_masks)


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
            out.append(frozenset(bit_indices(mask)))
    return out


def enumerate_proper(h: Hypergraph, materialize: bool = False) -> EnumerationReport:
    """Exact count (and optionally the red masks) of the proper colourings of h.

    Counts cover all 2**v colourings.  Refuses hypergraphs above ENUM_LIMIT
    vertices; use is_two_colourable for a yes/no answer there.  A listing
    is built block by block and refused as soon as it would hold more than
    LIST_LIMIT colourings; counting has no such cap.
    """
    if h.v > ENUM_LIMIT:
        raise ValueError(
            f"{h.v} vertices exceeds the exhaustive enumeration limit ({ENUM_LIMIT}); "
            "use is_two_colourable for a decision"
        )
    v = h.v
    if v == 0:
        return EnumerationReport(1, (0,) if materialize else None)

    if not materialize:
        return EnumerationReport(2 * sum(p.bit_count() for _, p, _ in _proper_blocks(h)))
    # Listing takes its total from the list's length, not from popcounts.
    red_masks: list[int] = []
    for base, proper, shift in _proper_blocks(h):
        red_masks += [base | j << shift for j in bit_indices(proper)]
        if 2 * len(red_masks) > LIST_LIMIT:
            raise ValueError(
                f"more than {LIST_LIMIT} proper colourings to list (the listing limit); "
                "count them instead"
            )
    full = (1 << v) - 1
    red_masks += [full ^ r for r in red_masks]
    red_masks.sort()
    return EnumerationReport(len(red_masks), tuple(red_masks))


def _stages(v: int, block_bits: int, key_bits: int) -> tuple[int, int]:
    """The split (t, k) of v vertices: the top t <= block_bits form the block,
    the k <= key_bits below them the key, and vertex 0 stays below both."""
    t = min(max(v - 1, 0), block_bits)
    return t, min(max(v - t - 1, 0), key_bits)


def _split(h: Hypergraph) -> tuple[int, int]:
    """The census split for h, as (block bits, key bits) before _stages
    fits it to h.v: _WIDE_SPLIT when it leaves branch vertices and there
    are at least as many edges as a wide leaf has keys; else _DEFAULT_SPLIT.

    The wide split has half as many leaves, and each reads 2**8 keys where
    a default leaf reads 2**6, which fewer edges do not repay.  It is the
    faster split where propagation is idle, and also on the n=8
    alteration outputs where some edge has one member above the branch
    vertices, so that propagation forces and prunes: there `check` and
    `count` take 1.3-3x less time than at the default split.  Dense
    instances with edges of 3-5 members on 26-34 vertices pay for the
    rule: they run up to 2.8x slower, mostly at millisecond scale.
    """
    t, k = _WIDE_SPLIT
    if h.v - t - k > 1 and len(h.edge_masks) >= 1 << k:
        return _WIDE_SPLIT
    return _DEFAULT_SPLIT


def _proper_blocks(h: Hypergraph) -> Iterator[tuple[int, int, int]]:
    """Yield (base, proper, shift) for each block that holds a proper colouring, in lex order.

    Vertex 0 is blue throughout, and the split (t, k) is _split's pair
    fitted to h.v.  `base` colours the vertices below the block (bit i
    set: vertex i red), the block is the top t vertices from `shift` up,
    and bit j of `proper` is set iff base | j << shift is a proper
    colouring.
    """
    v = h.v
    if v == 0:
        yield 0, 1, 0  # the empty colouring
        return
    t, k = _stages(v, *_split(h))
    shift = v - t
    key_base = shift - k
    key_mask = (1 << k) - 1
    head = (1 << key_base) - 1  # vertex 0 and the branch vertices
    full = (1 << (1 << t)) - 1
    red_pats, blue_pats = _block_patterns(t)
    # Key bit i is vertex key_base + i; sorting keys by their reversed bit
    # strings puts the lowest key vertex first and blue before red.
    keys = sorted(range(1 << k), key=lambda key: f"{key:0{k}b}"[::-1])
    pairs = [(x, x ^ 1 << i) for i in range(k) for x in range(1 << k) if x >> i & 1]
    branch = head - 1  # vertices 1 .. key_base - 1
    incident: list[list[int]] = [[] for _ in range(v)]
    edges_on: list[list[int]] = [[] for _ in range(key_base)]
    # Painting reaches the branch vertices and, through edges with one
    # member outside, whatever those edges force; each pass adds a key or
    # block vertex, so there are at most k + t + 1 of them.  An edge with
    # two members outside that closure never becomes unit or monochromatic
    # while branching, so it gets no incident entries.
    if key_base > 1:  # propagation prunes branches; a lone leaf tests every edge itself
        reach = head
        while True:
            grow = 0
            for mask in h.edge_masks:
                rest = mask & ~reach
                if rest and not rest & (rest - 1):
                    grow |= rest
            if not grow:
                break
            reach |= grow
        for mask in h.edge_masks:
            if not mask & ~reach:
                for u in bit_indices(mask):
                    incident[u].append(mask)
        # The red-branch skip below reads each branch vertex's edges as
        # their parts in reach, where every painted vertex lies; edges that
        # agree there are listed once.
        for mask in {mask & reach for mask in h.edge_masks}:
            for u in bit_indices(mask & branch):
                edges_on[u].append(mask)

    def paint(red: int, blue: int, u: int, as_red: bool) -> tuple[int, int] | None:
        """Paint u onto (red, blue) and propagate: the new (red, blue), or None on a conflict.

        Once a vertex is painted, `rest` is each edge on it less its colour
        class: empty, the edge is monochromatic; one vertex, that vertex is
        queued for the other colour.  A queued vertex that is already
        painted has that colour: had it the other one, painting it would
        have found the edge that queued it monochromatic.
        """
        queue = [(u, as_red)]
        for u, as_red in queue:  # forced assignments join the queue as it runs
            bit = 1 << u
            if (red | blue) & bit:
                continue
            if as_red:
                red |= bit
                mine = red
            else:
                blue |= bit
                mine = blue
            for mask in incident[u]:
                rest = mask & ~mine
                if not rest:
                    return None
                if not rest & (rest - 1):
                    queue.append((rest.bit_length() - 1, not as_red))
        return red, blue

    def fold(
        runs: list[dict[int, dict[int, list[int]]]],
        opposite: int,
        table: dict[int, int],
        as_red: bool,
    ) -> dict[int, int]:
        """OR the buckets in `runs` whose branch members miss `opposite` into a copy of `table`.

        The parent's table is never written: the copy shares its patterns.
        A key group of at least t sides is closed in t rounds; the rest
        take the AND chains of _or_by_key, at least one AND per side.
        """
        groups: dict[int, list[int]] = {}
        for run in runs:
            for members, keyed in run.items():
                if not members & opposite:
                    for key, lows in keyed.items():
                        groups.setdefault(key, []).extend(lows)
        if not groups:
            return table
        table = dict(table)
        chain: list[Side] = []
        for key, group in groups.items():
            if len(group) < t:
                chain += zip(group, repeat(key))
            else:
                table[key] = table.get(key, 0) | _close(group, t, as_red)
        return _or_by_key(sorted(chain), red_pats if as_red else blue_pats, full, table)

    # Each edge is filed once: its block-member mask S joins the list
    # tops[u][members][key], where members are its vertex-0 and branch
    # members, u is the highest of them (0 when there is none) and key its
    # key members as key bits.  At a node whose lowest free branch vertex
    # is u, every vertex below u is painted, so each bucket in tops[:u] is
    # tested once and folded in.
    tops: list[dict[int, dict[int, list[int]]]] = [{} for _ in range(key_base)]
    for mask in h.edge_masks:
        members = mask & head
        keyed = tops[(members | 1).bit_length() - 1].setdefault(members, {})
        keyed.setdefault(mask >> key_base & key_mask, []).append(mask >> shift)
    # A node is (reached, red, blue, red_table, blue_table): a painted state
    # whose lowest free branch vertex is `reached` (key_base at a leaf), and
    # its tables with the buckets in tops[:reached] folded in: its parent's
    # tables plus the buckets whose highest branch member lies in between,
    # folded as soon as it is painted.  A node keeps its own state, so
    # nothing is undone on the way back up, and its tables are freed with
    # its last pending branch.  A leaf's tables hold every edge whose branch
    # members share one colour, and that alone rules out the colourings that
    # contradict a vertex propagation forced: the earliest forced vertex
    # such a colouring gets wrong was forced by an edge whose other members
    # all agree with it, so it is monochromatic.
    # `work` holds the pending branches (node, as_red, yielded), each one
    # painting the node's vertex `reached`, blue on top, with the number of
    # blocks yielded when they were pushed; the root is the empty
    # colouring, whose one branch paints vertex 0 blue.
    # A red branch is skipped when its blue twin's subtree yielded nothing
    # and every edge on its vertex already has a red and a blue member: the
    # vertex's colour then changes nothing below, so that subtree is empty
    # too.  Without this, isolated branch vertices above an uncolourable
    # core would multiply the search by 2 each.
    yielded = 0
    work: list[tuple[tuple, bool, int]] = [((0, 0, 0, {}, {}), False, 0)]
    while work:
        (u, red, blue, red_table, blue_table), as_red, pushed = work.pop()
        if as_red and pushed == yielded and all(m & red and m & blue for m in edges_on[u]):
            continue
        painted = paint(red, blue, u, as_red)
        if painted is None:
            continue
        red, blue = painted
        free = branch & ~(red | blue)
        reached = (free & -free).bit_length() - 1 if free else key_base
        runs = tops[u:reached]
        red_table = fold(runs, blue, red_table, True)
        blue_table = fold(runs, red, blue_table, False)
        if free:
            node = (reached, red, blue, red_table, blue_table)
            work += [(node, True, yielded), (node, False, yielded)]
            continue
        # A red entry applies to the keys that contain its key members, a
        # blue one to the keys whose complements do.
        reds = _subset_or(red_table, pairs, 1 << k)
        blues = _subset_or(blue_table, pairs, 1 << k)
        for key in keys:
            mono = reds[key] | blues[key_mask ^ key]
            if mono != full:
                yielded += 1
                yield red & head | key << key_base, full ^ mono, shift
        del reds, blues  # free them before the next leaf's tables are built


def _or_by_key(
    sides: Iterable[Side], pats: Sequence[int], full: int, table: dict[int, int]
) -> dict[int, int]:
    """OR each side's pattern (the AND of pats over its low bits) into table by key.

    Each side ANDs its bits from the highest down.  Sides come sorted by
    their low bits as ints, so neighbours share their highest bits;
    `ands[i]` keeps the AND over the previous side's top i bits, and only
    the bits below the shared ones cost a big AND.
    """
    prev = 1 << len(pats)  # above every block bit: the first side shares nothing
    ands = [full]
    for low, key in sides:
        top = (low ^ prev).bit_length()  # low and prev agree from bit `top` up
        shared = (low >> top).bit_count()
        del ands[shared + 1 :]
        pattern = ands[shared]
        rest = low & ((1 << top) - 1)
        while rest:
            b = rest.bit_length() - 1
            pattern &= pats[b]
            ands.append(pattern)
            rest ^= 1 << b
        prev = low
        table[key] = table.get(key, 0) | pattern
    return table


def _close(lows: Iterable[int], t: int, as_red: bool) -> int:
    """The OR of one key group's red (or blue) side patterns over a block of 2**t.

    A red side with block members `low` is monochromatic on the block
    colourings that contain `low`, so the OR is the up-closure of the set
    {low}: seeded as one bit per side and closed in t rounds, each one
    adding bit b to every colouring that lacks it.  A blue side is
    monochromatic on the colourings inside the complement of `low`: the
    down-closure of those complements.
    """
    data = bytearray(max(1 << t >> 3, 1))
    flip = 0 if as_red else (1 << t) - 1
    for low in lows:
        j = low ^ flip
        data[j >> 3] |= 1 << (j & 7)
    f = int.from_bytes(data, "little")
    red_pats, blue_pats = _block_patterns(t)
    if as_red:
        for b, pattern in enumerate(blue_pats):
            f |= (f & pattern) << (1 << b)
    else:
        for b, pattern in enumerate(red_pats):
            f |= (f & pattern) >> (1 << b)
    return f


@lru_cache(maxsize=None)
def _block_patterns(t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per block bit b < t, the block colourings with b red, then with b blue.

    Bit j of the red pattern of b is bit b of j: 2**b zeros, then 2**b
    ones, doubled out to the 2**t block colourings.
    """
    red = []
    for b in range(t):
        pattern = ((1 << (1 << b)) - 1) << (1 << b)
        for k in range(b + 1, t):
            pattern |= pattern << (1 << k)
        red.append(pattern)
    full = (1 << (1 << t)) - 1
    return tuple(red), tuple(full ^ p for p in red)


def _subset_or(table: dict[int, int], pairs: list[tuple[int, int]], size: int) -> list[int]:
    """f[x] = OR of table[g] over the g (< size) that are subsets of x.

    `pairs` lists (x, x minus bit i) for each bit i in turn, lowest first,
    and each x with bit i set; after bit i, f[x] covers the g that differ
    from x only in bits up to i that x has set.
    """
    f = [0] * size
    for g, pattern in table.items():
        f[g] = pattern
    for x, y in pairs:
        if f[y]:
            f[x] |= f[y]
    return f


def is_two_colourable(h: Hypergraph) -> tuple[bool, Colouring | None]:
    """Decide 2-colourability; returns (True, witness) or (False, None).

    The witness is the lex-first proper colouring: vertex 0 first, blue
    before red.  There is no vertex limit.
    """
    for base, proper, shift in _proper_blocks(h):
        # Keep the blue half of the block's proper colourings wherever it is
        # non-empty, lowest block vertex first; one colouring is left.
        for pattern in _block_patterns(h.v - shift)[1]:
            blue = proper & pattern
            if blue:
                proper = blue
        return True, Colouring(h.v, base | (proper.bit_length() - 1) << shift)
    return False, None


def pair_opposites(red_masks: Sequence[int], v: int) -> list[tuple[int, int]]:
    """Group a complement-closed list of red masks on v vertices into opposite pairs.

    Within a pair the mask that contains vertex 0 comes first; pairs are
    sorted by that mask.  Rejects duplicates, masks out of range for v, and
    lists that are not closed under complement.
    """
    seen = set(red_masks)
    if len(seen) != len(red_masks):
        raise ValueError("duplicate colourings in input")
    if any(m >> v for m in seen):  # nonzero for a negative mask too
        raise ValueError("red set out of range for vertex count")
    full = (1 << v) - 1
    for m in seen:
        partner = full ^ m
        if partner == m:
            raise ValueError("self-complementary colouring in input")
        if partner not in seen:
            raise ValueError("input list is not closed under complement")
    return [(m, full ^ m) for m in sorted(m for m in seen if m & 1)]
