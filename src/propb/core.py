"""Exact data model: hypergraphs with bitmask edges and dyadic weights.

Everything in this module is immutable and exact.  No floating point enters
any value that downstream code compares, accumulates, or serializes.

`_Value` is for values built from outside input: `Hypergraph` and
`DyadicValue` (and `Colouring` elsewhere) are `__slots__` classes on it,
not tuples, because each `__init__` validates and stores its fields once.
`_Value` makes them immutable and gives field-wise `==`, `hash` and
`repr`, as a frozen dataclass would, without importing `dataclasses` when
the package loads.  Derived records, which the package builds itself
(`AlterationParams`, `EnumerationReport`, `AlterationReport`,
`DesignCheckResult`, `CheckEntry`, `VerificationReport`), are
`typing.NamedTuple`s, so each compares equal to the tuple of its fields.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering
from typing import TYPE_CHECKING, Any, Iterable

from propb._bits import bit_indices, mask_of

if TYPE_CHECKING:
    from fractions import Fraction


class _Value:
    """Immutable value whose fields are its class's `__slots__`.

    `__init__` stores each field with `object.__setattr__`; afterwards
    assignment and deletion raise AttributeError.  Equality compares the
    fields of two instances of one class, the hash is that of the field
    tuple, and pickle and copy rebuild through the constructor.
    """

    __slots__ = ()

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._values()


@total_ordering
class DyadicValue(_Value):
    """Nonnegative rational numerator / 2**exponent in canonical form.

    Canonical means the numerator is odd or zero (and a zero value has
    exponent 0), so structural equality is value equality.  Addition and
    comparison are exact integer arithmetic; `__lt__` and the value equality
    give the other comparisons.  `as_fraction()` and `decimal_str()` are the
    exact ways out.
    """

    __slots__ = ("numerator", "exponent")
    numerator: int
    exponent: int

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        n, e = numerator, exponent
        if n < 0:
            raise ValueError("dyadic numerator must be nonnegative")
        if e < 0:
            raise ValueError("dyadic exponent must be nonnegative")
        if n == 0:
            e = 0
        else:
            drop = min(e, (n & -n).bit_length() - 1)
            n >>= drop
            e -= drop
        object.__setattr__(self, "numerator", n)
        object.__setattr__(self, "exponent", e)

    def _aligned(self, other: "DyadicValue") -> tuple[int, int, int]:
        e = max(self.exponent, other.exponent)
        return (
            self.numerator << (e - self.exponent),
            other.numerator << (e - other.exponent),
            e,
        )

    def __add__(self, other: "DyadicValue") -> "DyadicValue":
        if not isinstance(other, DyadicValue):
            return NotImplemented
        a, b, e = self._aligned(other)
        return DyadicValue(a + b, e)

    def __lt__(self, other: "DyadicValue") -> bool:
        if not isinstance(other, DyadicValue):
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a < b

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, 1 << self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"

    def decimal_str(self) -> str:
        """Exact finite decimal expansion (dyadic rationals always have one)."""
        if self.exponent == 0:
            return str(self.numerator)
        digits = str(self.numerator * 5 ** self.exponent).rjust(self.exponent + 1, "0")
        return digits[: -self.exponent] + "." + digits[-self.exponent :]


# _LEX[b] is 255 minus b bit-reversed.  Comparing masks of one size as
# little-endian bytes translated through it is comparing their sorted member
# lists: the mask holding the lowest vertex where they differ comes first.
_LEX = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


class Hypergraph(_Value):
    """Immutable hypergraph on vertices 0..v-1.

    Edges are bitmasks held in canonical order: ascending size, then
    lexicographic by sorted member list.  Duplicates collapse, so structural
    equality is hypergraph equality and serialization is deterministic.
    Masks may arrive in any order, from any iterable; masks already strictly
    increasing in canonical order (a parsed canonical document, sampled edges
    joined with larger blocking edges) are kept without sorting.
    """

    __slots__ = ("v", "edge_masks")
    v: int
    edge_masks: tuple[int, ...]

    def __init__(self, v: int, edge_masks: Iterable[int]) -> None:
        if v < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "v", v)
        masks = tuple(edge_masks)  # an iterator is read once, here
        # Two masks of one size are in canonical order when the lowest
        # vertex in exactly one of them is in the first.
        ordered = True
        prev = prev_size = 0
        for mask in masks:
            if mask <= 0 or mask.bit_length() > v:
                raise ValueError("edge mask out of range for vertex count")
            size = mask.bit_count()
            if size < 2:
                raise ValueError("every edge needs at least 2 vertices")
            if size != prev_size:
                ordered = ordered and size > prev_size
                prev_size = size
            elif ordered:
                diff = prev ^ mask
                ordered = prev & diff & -diff
            prev = mask
        if ordered:
            object.__setattr__(self, "edge_masks", masks)
            return
        # Lex order first, then a stable sort by size: (size, lex) order
        # without a key tuple per mask.
        width = (max(masks).bit_length() + 7) // 8
        canon = sorted(set(masks), key=lambda m: m.to_bytes(width, "little").translate(_LEX))
        canon.sort(key=int.bit_count)
        object.__setattr__(self, "edge_masks", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edge_masks)

    @property
    def edges(self) -> tuple[frozenset[int], ...]:
        """Edges as vertex sets, in canonical order."""
        return tuple(frozenset(bit_indices(m)) for m in self.edge_masks)


def make_hypergraph(v: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validated constructor from vertex sets.

    Rejects a negative vertex count, edges with fewer than 2 distinct
    members, and out-of-range vertices.  Duplicate edges collapse.
    """
    if v < 0:
        raise ValueError("vertex count must be nonnegative")
    masks = []
    for edge in edges:
        members = set(edge)
        if len(members) < 2:
            raise ValueError(f"edge {sorted(members)} has fewer than 2 distinct vertices")
        for u in members:
            if not 0 <= u < v:
                raise ValueError(f"vertex {u} out of range for v={v}")
        masks.append(mask_of(members))
    return Hypergraph(v, tuple(masks))


def q_value(h: Hypergraph) -> DyadicValue:
    """Sum of 2**(-|e|) over all edges, as an exact dyadic value.

    Edges are counted by size, so there is one shift per distinct size.
    """
    if not h.edge_masks:
        return DyadicValue(0)
    sizes = Counter(map(int.bit_count, h.edge_masks))
    top = max(sizes)
    total = sum(count << (top - s) for s, count in sizes.items())
    return DyadicValue(total, top)


def min_edge_size(h: Hypergraph) -> int:
    """Smallest edge size; rejects an edgeless hypergraph."""
    if not h.edge_masks:
        raise ValueError("hypergraph has no edges")
    return min(m.bit_count() for m in h.edge_masks)


def union(h1: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """Edge union of two hypergraphs on the same vertex set.

    When h1's last edge precedes h2's first in canonical order, as when
    every h2 edge is larger, the concatenation is already canonical and
    the union is one linear pass.
    """
    if h1.v != h2.v:
        raise ValueError("vertex counts differ")
    return Hypergraph(h1.v, h1.edge_masks + h2.edge_masks)
