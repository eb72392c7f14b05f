"""Cross-cutting checks: block designs, edge-criticality, and the bundled
16-vertex example verified fact by fact."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from propb._bits import bit_indices
from propb.colouring import enumerate_proper, is_two_colourable, pair_opposites
from propb.constructions import affine_plane_gf4, derive_h8
from propb.core import DyadicValue, Hypergraph, q_value, union


class DesignCheckResult(NamedTuple):
    """Outcome of a t-design test over a block family.

    `lam` is the common t-subset count when it exists; otherwise
    `counterexample` is a t-subset covered a different number of times than
    the first t-subset checked.
    """

    t: int
    point_count: int
    block_count: int
    block_size: int
    lam: int | None
    counterexample: frozenset[int] | None


def design_check(blocks: Sequence[Iterable[int]], point_count: int, t: int) -> DesignCheckResult:
    """Count how many blocks cover each t-subset of the points.

    Blocks must be duplicate-free and all the same size >= t.  A subset's count
    is the popcount of the AND of its points' `holders` (bit i: block i).
    Subsets are compared in lex order with {0..t-1}.  If no block covers it,
    the answer is the first covered subset: the lowest t points of some block.
    Otherwise each subset before the first that differs is covered, so for B
    blocks at most B*C(block_size, t) + 1 subsets are counted.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if point_count < 0:
        raise ValueError("point count must be nonnegative")
    families = [frozenset(b) for b in blocks]
    if not families:
        raise ValueError("no blocks given")
    if len(set(families)) != len(families):
        raise ValueError("duplicate blocks")
    sizes = {len(b) for b in families}
    if len(sizes) != 1:
        raise ValueError(f"mixed block sizes {sorted(sizes)}")
    block_size = sizes.pop()
    if t > block_size:
        raise ValueError("t exceeds the block size")
    holders: dict[int, int] = {}
    for i, b in enumerate(families):
        for p in b:
            if not 0 <= p < point_count:
                raise ValueError(f"point {p} out of range")
            holders[p] = holders.get(p, 0) | 1 << i

    lam: int | None = None
    counterexample: frozenset[int] | None = None
    first = min(sorted(b)[:t] for b in families)
    if first != list(range(t)):
        counterexample = frozenset(first)
    else:
        for subset in combinations(range(point_count), t):
            common = (1 << len(families)) - 1
            for p in subset:
                common &= holders.get(p, 0)
            if lam is None:
                lam = common.bit_count()
            elif common.bit_count() != lam:
                lam, counterexample = None, frozenset(subset)
                break
    return DesignCheckResult(
        t=t,
        point_count=point_count,
        block_count=len(families),
        block_size=block_size,
        lam=lam,
        counterexample=counterexample,
    )


def is_edge_critical(h: Hypergraph) -> tuple[bool, frozenset[int] | None]:
    """Is every edge essential to non-2-colourability?

    Requires h itself to be non-2-colourable.  Returns (True, None) when
    deleting any single edge makes it colourable, otherwise (False, e) for
    the first removable edge in canonical order.
    """
    colourable, _ = is_two_colourable(h)
    if colourable:
        raise ValueError("input is already 2-colourable")
    masks = h.edge_masks
    for i, mask in enumerate(masks):
        rest = Hypergraph(h.v, masks[:i] + masks[i + 1 :])
        colourable, _ = is_two_colourable(rest)
        if not colourable:
            return False, frozenset(bit_indices(mask))
    return True, None


class CheckEntry(NamedTuple):
    name: str
    expected: str
    actual: str
    passed: bool


class VerificationReport(NamedTuple):
    """Every documented fact about the 16-vertex example, checked one by one."""

    checks: tuple[CheckEntry, ...]
    q_total: DyadicValue

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.checks)


def verify_paper_example(
    h4: Hypergraph | None = None, h8: Hypergraph | None = None
) -> VerificationReport:
    """Re-derive and verify the 16-vertex example end to end.

    With no arguments this builds the affine plane and its blocking family
    from scratch and checks: the 16/20 shape, the 120 proper colourings, the
    8-8 balance of each, the 60 opposite pairs, the 60 blocking 8-edges, the
    80-edge union, its non-2-colourability, the exact weight 95/64, the
    bracketing 23/16 < q < 24/16, and that the blue sets form a 3-(16,8,12)
    design.  Balance, opposite pairs and blue sets are read from one
    listing of h4's red masks.  Either part can be substituted to probe how
    the checks fail; a check whose computation raises ValueError fails with
    the message as its actual value.

    The checks run only after h8 is derived when omitted, h4 is listed by
    `enumerate_proper` and the two are joined; those steps raise ValueError
    instead.  So `derive_h8(h4)` must succeed when h8 is omitted (h4 has at
    least one vertex and only balanced proper colourings), h4 must have at
    most ENUM_LIMIT vertices and LIST_LIMIT proper colourings, and h8 must
    have h4's vertex count.
    """
    if h4 is None:
        h4 = affine_plane_gf4()
    if h8 is None:
        h8 = derive_h8(h4)
    census = enumerate_proper(h4, materialize=True)
    red_masks = census.red_masks
    assert red_masks is not None
    h = union(h4, h8)
    q = q_value(h)

    def plane_shape() -> tuple[str, bool]:
        sizes = sorted({m.bit_count() for m in h4.edge_masks})
        actual = f"{h4.v} vertices, {h4.edge_count} edges of size {sizes}"
        return actual, h4.v == 16 and h4.edge_count == 20 and sizes == [4]

    def balance() -> tuple[str, bool]:
        unbalanced = sum(1 for m in red_masks if 2 * m.bit_count() != h4.v)
        actual = f"{unbalanced} unbalanced" if unbalanced else "all balanced"
        return actual, not unbalanced

    def opposite_pairs() -> tuple[str, bool]:
        pairs = len(pair_opposites(red_masks, h4.v))
        return str(pairs), pairs == 60

    def blocking_shape() -> tuple[str, bool]:
        sizes = sorted({m.bit_count() for m in h8.edge_masks})
        return f"{h8.edge_count} edges of size {sizes}", h8.edge_count == 60 and sizes == [8]

    def uncolourable() -> tuple[str, bool]:
        proper_total = enumerate_proper(h).total_proper
        if proper_total == 0:
            return "not 2-colourable", True
        _, witness = is_two_colourable(h)
        reds = " ".join(str(u) for u in sorted(witness.red))
        return f"2-colourable ({proper_total} proper, witness red: {reds})", False

    def blue_design() -> tuple[str, bool]:
        full = (1 << h4.v) - 1
        design = design_check([bit_indices(full ^ m) for m in red_masks], h4.v, 3)
        if design.lam is None:
            return f"not a design (counterexample {sorted(design.counterexample)})", False
        shape = (design.lam, design.block_size, design.point_count)
        return f"lambda = {design.lam}", shape == (12, 8, 16)

    table = (
        ("plane-shape", "16 vertices, 20 edges of size 4", plane_shape),
        ("proper-count", "120", lambda: (str(census.total_proper), census.total_proper == 120)),
        ("balance", "every proper colouring 8 red / 8 blue", balance),
        ("opposite-pairs", "60", opposite_pairs),
        ("blocking-shape", "60 edges of size 8", blocking_shape),
        ("union-edges", "80", lambda: (str(h.edge_count), h.edge_count == 80)),
        ("uncolourable", "not 2-colourable", uncolourable),
        ("weight", "95/2^6", lambda: (str(q), q == DyadicValue(95, 6))),
        (
            "weight-bracket",
            "23/2^4 < q < 24/2^4",
            lambda: (f"q = {q}", DyadicValue(23, 4) < q < DyadicValue(24, 4)),
        ),
        ("blue-design", "3-(16,8,12) design", blue_design),
    )
    checks: list[CheckEntry] = []
    for name, expected, thunk in table:
        try:
            actual, passed = thunk()
        except ValueError as exc:
            actual, passed = f"error: {exc}", False
        checks.append(CheckEntry(name, expected, actual, passed))
    return VerificationReport(checks=tuple(checks), q_total=q)
