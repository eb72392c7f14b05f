"""Exact arithmetic and the hypergraph data model."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propb import (
    Colouring,
    DyadicValue,
    Hypergraph,
    fano,
    is_edge_critical,
    make_hypergraph,
    min_edge_size,
    monochromatic_edges,
    paper_example,
    q_value,
    run_alteration,
    seymour_toft,
    triangle,
    union,
)
from propb._bits import bit_indices, mask_of


dyadics = st.builds(
    DyadicValue, st.integers(min_value=0, max_value=1 << 40), st.integers(min_value=0, max_value=40)
)


@given(dyadics, dyadics)
def test_dyadic_comparisons_match_fractions(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)


@given(dyadics, dyadics)
def test_dyadic_addition_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


def test_dyadic_canonical_form():
    assert DyadicValue(60, 8) == DyadicValue(15, 6)
    assert DyadicValue(0, 9) == DyadicValue(0, 0)
    assert DyadicValue(8, 3) == DyadicValue(1, 0)
    assert hash(DyadicValue(60, 8)) == hash(DyadicValue(15, 6))


def test_dyadic_rendering():
    q = DyadicValue(95, 6)
    assert str(q) == "95/2^6"
    assert q.decimal_str() == "1.484375"
    assert DyadicValue(23, 4).decimal_str() == "1.4375"
    assert DyadicValue(3, 0).decimal_str() == "3"
    assert DyadicValue(0, 0).decimal_str() == "0"
    assert DyadicValue(1, 4).decimal_str() == "0.0625"


def test_dyadic_rejects_invalid():
    with pytest.raises(ValueError):
        DyadicValue(-1, 0)
    with pytest.raises(ValueError):
        DyadicValue(1, -1)
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(DyadicValue(1), 1)
    # No float and no subtraction: the exact ways out are as_fraction and decimal_str.
    with pytest.raises(TypeError):
        float(DyadicValue(23, 4))
    with pytest.raises(TypeError, match="unsupported operand"):
        DyadicValue(1, 2) - DyadicValue(1, 4)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(DyadicValue(1, 2), Fraction(1, 4))


def test_duplicate_edges_collapse():
    h = make_hypergraph(3, [{0, 1}, {0, 1}, {1, 2}])
    assert h.edge_count == 2


def test_make_hypergraph_validation():
    with pytest.raises(ValueError):
        make_hypergraph(2, [{0, 1, 5}])
    with pytest.raises(ValueError):
        make_hypergraph(3, [{2}])
    with pytest.raises(ValueError):
        make_hypergraph(3, [[1, 1]])
    with pytest.raises(ValueError):
        make_hypergraph(-1, [])
    assert make_hypergraph(0, []).edge_count == 0


def test_masks_are_range_checked_without_allocating_2_to_the_v():
    huge = 10**12
    assert Hypergraph(huge, (0b11,)).edge_count == 1
    assert Colouring(huge, 0b1).red == frozenset({0})
    with pytest.raises(ValueError):
        Hypergraph(3, (0b1001,))
    with pytest.raises(ValueError):
        Hypergraph(3, (0b11, -3))
    with pytest.raises(ValueError):
        Colouring(3, 0b1000)
    with pytest.raises(ValueError, match="every edge needs at least 2 vertices"):
        Hypergraph(3, (0b1,))
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Hypergraph(-1, ())
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Colouring(-1, 0)


def test_canonical_edge_order_size_then_lex():
    h = make_hypergraph(6, [{0, 2, 3}, {0, 1, 5}, {4, 5}])
    assert h.edges == (frozenset({4, 5}), frozenset({0, 1, 5}), frozenset({0, 2, 3}))


def naive_bit_indices(x):
    return [i for i in range(x.bit_length()) if x >> i & 1]


BLOCK = 1 << 16  # bits in a census block of 16 scan vertices


def spread_bits(count, seed, width=BLOCK):
    """A `width`-bit int with `count` set bits, the top one included."""
    rng = random.Random(seed)
    return mask_of(rng.sample(range(width - 1), count - 1)) | 1 << width - 1


# bit_indices peels up to width >> 8 top bits, one per 256, and walks the rest.
FIXED_INTS = (
    [("zero", 0)]
    + [(f"bit {i}", 1 << i) for i in (0, 7, 8, 63, 64, 65, 127, 128, BLOCK - 1)]
    + [(f"block with {count} bits", spread_bits(count, count)) for count in (1, 6, 200)]
    + [
        (f"{width} bits with budget{d:+d} set", spread_bits((width >> 8) + d, d, width))
        for width in (BLOCK, 1 << 10)
        for d in (-1, 0, 1)
    ]
    + [("full block", (1 << BLOCK) - 1)]
)


@pytest.mark.parametrize("x", [x for _, x in FIXED_INTS], ids=[name for name, _ in FIXED_INTS])
def test_bit_indices_matches_naive_on_fixed_ints(x):
    expected = naive_bit_indices(x)
    assert bit_indices(x) == expected


@st.composite
def wide_ints(draw):
    """Ints up to BLOCK bits wide: uniformly random bits (dense), or up to
    one set bit per 64 below the top one (sparse, on both sides of the
    one-per-256 peel budget in bit_indices)."""
    width = draw(st.integers(min_value=1, max_value=BLOCK))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return rng.getrandbits(width)
    return mask_of(rng.sample(range(width), rng.randint(1, max(1, width >> 6)))) | 1 << width - 1


@settings(max_examples=60, deadline=None)
@given(wide_ints())
def test_bit_indices_matches_naive(x):
    expected = naive_bit_indices(x)
    assert bit_indices(x) == expected


def naive_members(m, v):
    return frozenset(u for u in range(v) if m >> u & 1)


# Masks of 256 bits or more, where bit_indices peels bits from the top.
@pytest.mark.parametrize(
    "make, v, shift",
    [(triangle, 303, 300), (paper_example, 4096, 4080)],
    ids=["triangle at 300-302 of 303", "paper example at 4080-4095 of 4096"],
)
def test_member_views_match_naive_on_wide_masks(make, v, shift):
    masks = tuple(m << shift for m in make().edge_masks)
    h = Hypergraph(v, masks)
    naive_edges = tuple(naive_members(m, v) for m in masks)
    assert h.edges == naive_edges
    red = mask_of(range(shift, v, 2)) | 1
    c = Colouring(v, red)
    assert c.red == naive_members(red, v)
    mono = monochromatic_edges(h, c)
    assert mono and mono == [naive_members(m, v) for m in masks if m & red in (0, m)]
    _, report = run_alteration(3, 0)
    assert report._replace(killing_masks=masks).killing_edges == naive_edges
    # A superset of the first edge is removable: the first edge still blocks.
    extra = masks[0] | 1 << v - 1
    assert is_edge_critical(Hypergraph(v, masks + (extra,))) == (False, naive_members(extra, v))


@st.composite
def edge_masks(draw):
    """Masks on up to 70 vertices, or on up to 4096 with the window in the
    top 70, sizes 2..9; members drawn from a narrow window as well as from
    all vertices give many equal-size edges that share low members or low
    zero bytes and differ in any byte, and equal-size masks of different
    byte lengths."""
    v = draw(st.integers(min_value=2, max_value=70) | st.integers(min_value=71, max_value=4096))
    lo = draw(st.integers(min_value=max(0, v - 70), max_value=v - 2))
    hi = draw(st.integers(min_value=lo + 1, max_value=v - 1))
    members = st.integers(min_value=lo, max_value=hi) | st.integers(min_value=0, max_value=v - 1)
    edges = draw(st.lists(st.frozensets(members, min_size=2, max_size=9), max_size=40))
    return v, [mask_of(e) for e in edges]


def canonical_sort(masks):
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), bit_indices(m))))


@given(edge_masks())
def test_canonical_edge_order_matches_member_lists(case):
    v, masks = case
    assert Hypergraph(v, tuple(masks)).edge_masks == canonical_sort(masks)


@given(edge_masks(), st.randoms(use_true_random=False))
def test_canonical_input_is_kept_and_any_disorder_is_sorted(case, rng):
    v, masks = case
    canon = canonical_sort(masks)
    # Input already in canonical order is kept as it is, not sorted again.
    assert Hypergraph(v, canon).edge_masks is canon
    if not canon:
        return
    disorders = [canon + canon[-1:], canon[:1] + canon]  # duplicate neighbours
    for i in range(len(canon) - 1):
        swapped = list(canon)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        disorders.append(tuple(swapped))
    smaller = [j for j in range(len(canon)) if canon[j].bit_count() < canon[-1].bit_count()]
    if smaller:
        j = rng.choice(smaller)  # a smaller edge after a larger one
        disorders.append(canon[:j] + canon[j + 1 :] + canon[j : j + 1])
    for disorder in disorders:
        assert Hypergraph(v, disorder).edge_masks == canon


def test_canonical_order_is_by_lowest_differing_vertex():
    # {0, 3} precedes {1, 2} although 0b1001 > 0b0110 as integers.
    for pair in [(0b0011, 0b0101), (0b1001, 0b0110), (0b0101, 0b1010), (0b011, 0b0111)]:
        assert Hypergraph(4, pair).edge_masks == pair
        assert Hypergraph(4, pair[::-1]).edge_masks == pair
        assert Hypergraph(4, pair + pair[:1]).edge_masks == pair


def test_edges_may_arrive_as_an_iterator():
    # Validation must not use up the masks it is meant to keep, in order or not.
    for masks in [(0b011, 0b101), (0b101, 0b011)]:
        assert Hypergraph(3, iter(masks)) == Hypergraph(3, (0b011, 0b101))


@pytest.mark.parametrize("n", [3, 4])
def test_union_of_equal_size_edges_matches_the_sort(n):
    # At n = 3 and 4 sampled and blocking edges share a size, so the two
    # edge lists interleave and the union takes the sorting path.
    interleaved = 0
    for seed in range(12):
        _, report = run_alteration(n, seed)
        joined = report.h1.edge_masks + report.h2.edge_masks
        merged = union(report.h1, report.h2)
        assert merged == Hypergraph(report.h1.v, joined)
        assert merged.edge_masks == canonical_sort(joined)
        interleaved += merged.edge_masks != joined
    assert interleaved


def test_q_values_of_named_hypergraphs():
    assert q_value(triangle()) == DyadicValue(3, 2)
    assert q_value(fano()) == DyadicValue(7, 3)
    assert q_value(seymour_toft()) == DyadicValue(23, 4)
    assert q_value(paper_example()) == DyadicValue(95, 6)
    assert q_value(make_hypergraph(5, [])) == DyadicValue(0, 0)


def test_q_additive_over_any_edge_split():
    rng = random.Random(7)
    for _ in range(60):
        v = rng.randint(2, 10)
        pool = list(
            {frozenset(rng.sample(range(v), rng.randint(2, v))) for _ in range(rng.randint(0, 8))}
        )
        cut = rng.randint(0, len(pool))
        h1 = make_hypergraph(v, pool[:cut])
        h2 = make_hypergraph(v, pool[cut:])
        merged = union(h1, h2)
        assert q_value(merged) == q_value(h1) + q_value(h2)
        assert q_value(merged).as_fraction() == sum(
            (Fraction(1, 2 ** len(e)) for e in pool), start=Fraction(0)
        )


def test_union_rules():
    t = triangle()
    assert union(t, t) == t
    assert union(t, make_hypergraph(3, [])) == t
    with pytest.raises(ValueError):
        union(t, fano())


def test_min_edge_size():
    assert min_edge_size(triangle()) == 2
    assert min_edge_size(fano()) == 3
    assert min_edge_size(paper_example()) == 4
    with pytest.raises(ValueError):
        min_edge_size(make_hypergraph(4, []))
