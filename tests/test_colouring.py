"""The colouring search against per-colouring oracles: counts and lists
against a scan of all colourings, decision witnesses against a scan in lex
order, at the real stage sizes and at tiny ones."""

import hashlib
import math
import random
import time
from collections import Counter

import pytest

from propb import colouring
from propb._bits import bit_indices, mask_of
from propb.alteration import AlterationParams, derive_seed, run_alteration, sample_uniform_edges
from propb import (
    Colouring,
    affine_plane_gf4,
    enumerate_proper,
    fano,
    is_proper,
    is_two_colourable,
    make_hypergraph,
    monochromatic_edges,
    Hypergraph,
    paper_example,
    pair_opposites,
    seymour_toft,
    triangle,
)


def census_oracle(h):
    """Trivially correct census: test every red mask with is_proper."""
    reds = [r for r in range(1 << h.v) if is_proper(h, Colouring(h.v, r))]
    return len(reds), reds


def column_oracle(h):
    """Census by whole columns, sharing no code with the kernel.

    Vertex 0 is fixed blue; colouring x of the other vertices paints vertex
    u red iff bit u - 1 of x is set.  Vertex u's red column is the int whose
    bit x says so, written out as a string, and its blue column is the
    complement.  An edge is monochromatic on the AND of its members' red
    columns or of their blue ones.  The proper colourings with vertex 0 blue
    are the complement of the union; their complements have vertex 0 red.
    Returns the count and the sorted red masks.
    """
    n = 1 << (h.v - 1)
    full = (1 << n) - 1
    red = [0]  # vertex 0 is blue everywhere
    for u in range(1, h.v):
        half = 1 << (u - 1)
        red.append(int(("1" * half + "0" * half) * (n >> u), 2))
    blue = [full ^ column for column in red]
    mono = 0
    for edge in h.edges:
        on_red, on_blue = full, full
        for u in edge:
            on_red &= red[u]
            on_blue &= blue[u]
        mono |= on_red | on_blue
    proper = full ^ mono
    xs = [x for x, bit in enumerate(reversed(f"{proper:b}")) if bit == "1"]
    reds = [x << 1 for x in xs] + [((1 << h.v) - 1) ^ (x << 1) for x in xs]
    return 2 * proper.bit_count(), sorted(reds)


def lex_first_oracle(h):
    """Red mask of the first proper colouring in lex order, or None.

    Lex order reads vertex 0 first and puts blue before red, so colouring x
    of the scan paints vertex i red iff bit v - 1 - i of x is set.
    """
    for x in range(1 << h.v):
        red = int(f"{x:0{h.v}b}"[::-1], 2)
        if is_proper(h, Colouring(h.v, red)):
            return red
    return None


def force_split(monkeypatch, block_bits, key_bits):
    """Make every census take the pair (block_bits, key_bits), fitted to
    its vertex count, whatever pair colouring._split would name."""
    monkeypatch.setattr(colouring, "_split", lambda h: (block_bits, key_bits))


DEFAULT_SPLIT = colouring._DEFAULT_SPLIT


def random_hypergraph(rng, max_v=10, max_edges=8, max_size=None):
    v = rng.randint(2, max_v)
    top = max_size or v
    edges = [
        rng.sample(range(v), rng.randint(2, min(top, v))) for _ in range(rng.randint(0, max_edges))
    ]
    return make_hypergraph(v, edges)


def test_is_proper_basics():
    single = make_hypergraph(3, [{0, 1}])
    assert is_proper(single, Colouring(3, mask_of({0})))
    assert not is_proper(single, Colouring(3, mask_of({0, 1})))
    assert not is_proper(single, Colouring(3, mask_of({2})))  # {0,1} all blue


def test_monochromatic_edges_on_fano_line():
    c = Colouring(7, mask_of({0, 1, 2}))
    assert monochromatic_edges(fano(), c) == [frozenset({0, 1, 2})]
    assert not is_proper(fano(), c)


def test_vertex_count_mismatch_rejected():
    with pytest.raises(ValueError):
        is_proper(triangle(), Colouring(4, mask_of({0})))
    with pytest.raises(ValueError):
        monochromatic_edges(fano(), Colouring(3, mask_of({0})))


def test_enumerate_fixed_points():
    assert enumerate_proper(make_hypergraph(0, [])).total_proper == 1
    assert enumerate_proper(make_hypergraph(3, [])).total_proper == 8
    assert enumerate_proper(triangle()).total_proper == 0
    plane = enumerate_proper(affine_plane_gf4(), materialize=True)
    assert plane.total_proper == 120
    assert all(2 * r.bit_count() == 16 for r in plane.red_masks)
    # connected bipartite over 2 blocks: one split, two orientations
    path = enumerate_proper(make_hypergraph(18, [{i, i + 1} for i in range(17)]), materialize=True)
    assert path.red_masks == (0x15555, 0x2AAAA)
    assert path.colourings == (Colouring(18, 0x15555), Colouring(18, 0x2AAAA))
    # edgeless: every mask, and the Colouring view agrees with the masks
    for v in (0, 1, 2):
        empty = enumerate_proper(make_hypergraph(v, []), materialize=True)
        assert empty.red_masks == tuple(range(1 << v))
        assert empty.colourings == tuple(Colouring(v, m) for m in empty.red_masks)
    assert enumerate_proper(triangle(), materialize=True).colourings == ()
    assert enumerate_proper(triangle()).colourings is None


def test_enumerate_matches_per_colouring_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        h = random_hypergraph(rng)
        total, reds = census_oracle(h)
        report = enumerate_proper(h, materialize=True)
        assert report.total_proper == total
        assert list(report.red_masks) == sorted(reds)


def column_oracle_cases():
    """Connected 16- and 18-vertex documents of the paper and alteration
    workloads: the paper example and its 80 single-edge deletions, and for
    run_alteration(6, s), s = 0 and 1, the output, the output less its first
    blocking edge, the output less the first blocking edge it cannot lose
    (recorded), and its sampled edges h1."""
    h = paper_example()
    yield h
    for i in range(h.edge_count):
        yield Hypergraph(h.v, h.edge_masks[:i] + h.edge_masks[i + 1 :])
    for seed, essential in ((0, 5), (1, 93)):
        out, report = run_alteration(6, seed)
        yield out
        for blocking in (report.h2.edge_masks[0], report.h2.edge_masks[essential]):
            yield Hypergraph(out.v, [m for m in out.edge_masks if m != blocking])
        yield report.h1


def test_census_matches_the_column_oracle_at_16_and_18_vertices():
    totals = []
    for h in column_oracle_cases():
        total, reds = column_oracle(h)
        assert enumerate_proper(h).total_proper == total
        assert list(enumerate_proper(h, materialize=True).red_masks) == reds
        totals.append((h.v, total))
    assert totals[0] == (16, 0)
    assert sum(total for _, total in totals[1:81]) == 12120
    assert totals[81:] == [
        (18, 0), (18, 0), (18, 2), (18, 426),  # seed 0: output, less h2[0], less h2[5], h1
        (18, 0), (18, 0), (18, 2), (18, 492),  # seed 1: output, less h2[0], less h2[93], h1
    ]


def test_enumerate_count_is_even_with_any_edge():
    rng = random.Random(5)
    for _ in range(30):
        h = random_hypergraph(rng)
        if h.edge_count == 0:
            continue
        assert enumerate_proper(h).total_proper % 2 == 0


def test_complement_symmetry():
    rng = random.Random(11)
    for _ in range(30):
        h = random_hypergraph(rng)
        red = rng.randrange(1 << h.v)
        complement = red ^ ((1 << h.v) - 1)
        assert is_proper(h, Colouring(h.v, red)) == is_proper(h, Colouring(h.v, complement))


def test_adding_an_edge_never_gains_colourings():
    rng = random.Random(13)
    for _ in range(30):
        h = random_hypergraph(rng)
        before = enumerate_proper(h).total_proper
        extra = rng.sample(range(h.v), rng.randint(2, h.v))
        grown = make_hypergraph(h.v, list(h.edges) + [extra])
        assert enumerate_proper(grown).total_proper <= before


def test_materialized_list_closed_under_complement():
    report = enumerate_proper(affine_plane_gf4(), materialize=True)
    masks = set(report.red_masks)
    full = (1 << 16) - 1
    assert len(masks) == 120
    assert all(full ^ m in masks for m in masks)
    assert [c.red_mask for c in report.colourings] == sorted(masks)


def test_enumeration_limit_refusal():
    big = make_hypergraph(33, [{0, 1}])
    with pytest.raises(ValueError, match=r"33 vertices exceeds .* limit \(32\); use is_two_colourable"):
        enumerate_proper(big)
    assert enumerate_proper(make_hypergraph(32, [{0, 1}])).total_proper == 1 << 31


@pytest.mark.parametrize("v", [28, 32])
def test_listing_limit_refuses_at_once(v):
    """One 2-edge leaves half of all colourings proper: far past the
    listing limit, which stops the listing after 2**22 red masks."""
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"more than 8388608 proper colourings .* count them"):
        enumerate_proper(make_hypergraph(v, [{0, 1}]), materialize=True)
    assert time.perf_counter() - started < 5.0


def planted_dense(seed):
    """12 vertices, 40-60 edges of size 2-4, proper under a hidden colouring.

    Members lean to the top vertices, so at the tiny kernel sizes many
    sides share a key group: groups reach the closure threshold at the
    root and at deeper branch nodes.
    """
    rng = random.Random(seed)
    m = rng.randint(40, 60)
    red = rng.getrandbits(12)
    edges = set()
    while len(edges) < m:
        size = rng.choice((2, 3, 4))
        edge = set()
        while len(edge) < size:
            edge.add(11 - min(int(rng.expovariate(0.3)), 11))
        if 0 < sum(red >> u & 1 for u in edge) < size:
            edges.add(frozenset(edge))
    return make_hypergraph(12, edges)


# With 2 (or 3) block bits, vertices 0-2 (or 0-3) are low and the rest high.
SPLIT_CASES = [
    make_hypergraph(2, [{0, 1}]),
    make_hypergraph(3, [{1, 2}]),
    triangle(),
    make_hypergraph(10, [{0, 9}, {4, 5, 6}, {7, 8}]),
    # vertex 0; no high members; no low members; low and high members
    make_hypergraph(11, [{0, 5, 9}, {0, 1}, {1, 2}, {7, 10}, {8, 9, 10}, {2, 3, 4, 6}]),
    make_hypergraph(12, [{0, 2, 11}, {1, 2}, {7, 8, 11}, {3, 4, 5, 9, 10}, {1, 6, 10}]),
    # uncolourable: every block leaves early
    make_hypergraph(10, list(fano().edges) + [{7, 8, 9}]),
    # With (block, key) bits (2, 1), vertices 1-8 branch, 9 is the key and
    # 10-11 the block.  Sides folded in at depth 1 ({1, 9, 11}, {1, 10, 11})
    # later have their key or block member forced the other way by 2- and
    # 3-edges painted deeper down.
    make_hypergraph(
        12, [{1, 9, 11}, {2, 9}, {1, 10, 11}, {5, 11}, {6, 7, 9}, {3, 4, 10}, {0, 8, 10}]
    ),
    make_hypergraph(
        12,
        [{1, 2, 9}, {2, 3, 10}, {3, 4, 11}, {4, 5, 9}, {5, 6, 10}, {6, 7, 11}, {7, 8, 9},
         {1, 8, 10}, {2, 11}],
    ),
    # At (2, 1) a forced vertex forces another: 1 forces the key 9 and 9
    # the block vertex 10; with 2 red, the 3-edge {2, 9, 11} has its member
    # 9 forced red and forces its free member 11.
    make_hypergraph(12, [{1, 9}, {9, 10}]),
    make_hypergraph(12, [{1, 9}, {2, 9, 11}]),
    # The three events of propagation at (2, 1), with vertex 0 blue: one
    # wave queues 6 blue twice; one queues 5 red and then blue, and painting
    # it red leaves {1, 5} monochromatic; the one member of {0, 5} outside
    # red, 0, is queued blue though it is already painted.
    make_hypergraph(12, [{0, 1}, {0, 5}, {1, 6}, {5, 6}]),
    make_hypergraph(12, [{0, 1}, {0, 5}, {1, 5}]),
    make_hypergraph(12, [{0, 5}, {0, 1, 5}]),
    # dense key groups, closed in one pass each
    planted_dense(1),
    planted_dense(4),
    planted_dense(5),
    # dense: one 2-edge, so half of all colourings are proper
    make_hypergraph(12, [{3, 10}]),
]


@pytest.mark.parametrize(
    "block_bits,key_bits", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 1), (0, 0)]
)
def test_split_kernel_matches_oracle(monkeypatch, block_bits, key_bits):
    """Tiny blocks and tables force many blocks, many passes and split edges;
    (2, 1) leaves up to 8 branch vertices and (0, 0) up to 11, and 2- and
    3-edges force vertices down the branch tree."""
    force_split(monkeypatch, block_bits, key_bits)
    closed = []
    close = colouring._close
    monkeypatch.setattr(colouring, "_close", lambda *args: closed.append(args) or close(*args))
    rng = random.Random(31)
    randoms = [random_hypergraph(rng, max_v=12, max_edges=10) for _ in range(12)]
    randoms += [random_hypergraph(rng, max_v=12, max_edges=14, max_size=3) for _ in range(12)]
    for h in SPLIT_CASES + randoms:
        total, reds = census_oracle(h)
        report = enumerate_proper(h, materialize=True)
        assert report.total_proper == total
        assert list(report.red_masks) == reds
    assert enumerate_proper(SPLIT_CASES[-1]).total_proper == 1 << 11
    # With no block bit every vertex is painted by the branch search, so no
    # side is ever live; otherwise some key group is closed.
    assert bool(closed) == (block_bits > 0)


def test_block_patterns_match_their_definition():
    """Red pattern b has bit j equal to bit b of j, and blue is its
    complement in the block, at every block width up to the kernel's."""
    for t in range(17):
        full = (1 << (1 << t)) - 1
        red, blue = colouring._block_patterns(t)
        assert len(red) == len(blue) == t
        for b in range(t):
            bits = f"{red[b]:0{1 << t}b}"[::-1]
            assert bits == "".join("01"[j >> b & 1] for j in range(1 << t))
            assert blue[b] == red[b] ^ full


@pytest.mark.parametrize("t", range(17))
def test_group_closure_matches_and_chains(t):
    """A key group's closure equals the OR of its sides' AND chains, in both
    colours, at every block width up to the kernel's."""
    rng = random.Random(t)
    top = (1 << t) - 1
    full = (1 << (1 << t)) - 1
    red_pats, blue_pats = colouring._block_patterns(t)
    few = [mask_of(rng.sample(range(t), rng.randint(1, min(2, t)))) for _ in range(t)]
    many = [rng.getrandbits(t) for _ in range(t + 3)]
    # 0 has no block member, so its side's pattern is the whole block
    groups = [[0], [top], [top, 0], few + [top], many, many + few]
    for lows in groups:
        sides = sorted((low, 5) for low in lows)
        for as_red, pats in ((True, red_pats), (False, blue_pats)):
            expected = colouring._or_by_key(sides, pats, full, {})
            assert {5: colouring._close(lows, t, as_red)} == expected


N8_DIGEST = "559c4090a18f4ac7800ea47e5e2d3e37ead6bdcd2324a08a4ed095429303434e"


def sampled_edges(n, seed):
    """The edges run_alteration(n, seed) samples first (it needs no retry
    for the seeds used here)."""
    params = AlterationParams.for_edge_size(n, seed)
    return sample_uniform_edges(params.v, n, params.m_prime, derive_seed(seed, 0))


def test_n8_census_is_pinned():
    """The 32-vertex census of run_alteration(8, 5)'s sampled edges at the
    split _split picks, recorded before the branch-tree tables."""
    report = enumerate_proper(sampled_edges(8, 5), materialize=True)
    assert report.total_proper == 58938
    assert sum(2 * r.bit_count() == 32 for r in report.red_masks) == 45426
    digest = hashlib.sha256(",".join(map(str, report.red_masks)).encode()).hexdigest()
    assert digest == N8_DIGEST


def test_n8_census_agrees_across_splits(monkeypatch):
    """The same census at each split: below the block, vertex 0, then 9
    branch vertices and 6 key vertices at (16, 6), so up to 512 leaves; 8
    and 8 at (15, 8), 256 leaves; 11 and 6 at (14, 6), 2048 leaves.  This
    checks how the kernel splits the vertices into stages, not its edge
    logic, which all splits share."""
    h = sampled_edges(8, 5)
    for split in (DEFAULT_SPLIT, colouring._WIDE_SPLIT, (14, 6)):
        force_split(monkeypatch, *split)
        report = enumerate_proper(h, materialize=True)
        assert report.total_proper == 58938
        digest = hashlib.sha256(",".join(map(str, report.red_masks)).encode()).hexdigest()
        assert digest == N8_DIGEST


def affine_plane_gf5():
    """AG(2,5): 25 points, 30 lines of 5; 2 522 200 proper colourings."""
    lines = [[x * 5 + (a * x + b) % 5 for x in range(5)] for a in range(5) for b in range(5)]
    lines += [[x * 5 + y for y in range(5)] for x in range(5)]
    return make_hypergraph(25, lines)


def test_listing_agrees_with_counting(monkeypatch):
    """Listing takes its total from what it lists.  bit_indices peels up to
    one set bit per 256 of a block's length: a block under that budget is
    peeled whole, a denser one is peeled up to it and the rest walked.
    Both sides of that switch must list exactly what counting counts."""
    sides = set()
    lister = colouring.bit_indices

    def spy(x):
        js = lister(x)
        budget = x.bit_length() >> 8
        if budget:  # long enough to peel: a census block, not an edge
            sides.add(len(js) < budget)
        return js

    monkeypatch.setattr(colouring, "bit_indices", spy)
    rng = random.Random(17)
    cases = [make_hypergraph(0, []), make_hypergraph(1, []), make_hypergraph(2, [{0, 1}])]
    for n, seed in ((6, 0), (6, 3), (7, 1)):
        params = AlterationParams.for_edge_size(n, seed)
        cases.append(sample_uniform_edges(params.v, n, params.m_prime, seed))
    cases.append(affine_plane_gf5())
    for v in (17, 20, 21, 24):
        cases.append(make_hypergraph(v, [rng.sample(range(v), rng.randint(3, 6)) for _ in range(8)]))
    for h in cases:
        listed = enumerate_proper(h, materialize=True)
        counted = enumerate_proper(h)
        assert listed.total_proper == counted.total_proper == len(listed.red_masks)
    assert sides == {False, True}


def test_decision_agrees_with_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        h = random_hypergraph(rng, max_v=12)
        colourable, witness = is_two_colourable(h)
        assert colourable == (enumerate_proper(h).total_proper > 0)
        if colourable:
            assert is_proper(h, witness)
        else:
            assert witness is None


@pytest.mark.parametrize(
    "block_bits,key_bits",
    [DEFAULT_SPLIT, (2, 1), (2, 2), (2, 3), (3, 3), (1, 1), (0, 0)],
)
def test_decision_witness_is_lex_first(monkeypatch, block_bits, key_bits):
    """Tiny sizes put vertices in the branch, key and block stages at once;
    small edges make propagation force vertices in each of them."""
    force_split(monkeypatch, block_bits, key_bits)
    rng = random.Random(43)
    randoms = [random_hypergraph(rng, max_v=12, max_edges=10) for _ in range(30)]
    randoms += [random_hypergraph(rng, max_v=12, max_edges=14, max_size=3) for _ in range(30)]
    for h in SPLIT_CASES + randoms:
        red = lex_first_oracle(h)
        expected = (False, None) if red is None else (True, Colouring(h.v, red))
        assert is_two_colourable(h) == expected


def lex_first_search(h):
    """`lex_first_oracle` by plain backtracking, fast enough for 18 vertices.

    Vertex i is painted blue, then red, and a branch ends as soon as an edge
    whose top member is i is monochromatic.
    """
    by_top = [[] for _ in range(h.v)]
    for mask in h.edge_masks:
        by_top[mask.bit_length() - 1].append(mask)

    def search(i, red):
        if i == h.v:
            return red
        for r in (red, red | 1 << i):
            if all(0 < mask & r < mask for mask in by_top[i]):
                found = search(i + 1, r)
                if found is not None:
                    return found
        return None

    return search(0, 0)


def test_lex_first_search_matches_the_scan():
    rng = random.Random(59)
    for _ in range(60):
        h = random_hypergraph(rng, max_v=12, max_edges=14, max_size=4)
        assert lex_first_search(h) == lex_first_oracle(h)


def structured_instances():
    """The paper example less each edge, and run_alteration outputs for
    n = 4-6, whole (uncolourable) and less their first blocking edge."""
    paper = paper_example()
    masks = paper.edge_masks
    cases = [Hypergraph(paper.v, masks[:i] + masks[i + 1:]) for i in range(len(masks))]
    for n, seed in ((4, 0), (4, 1), (5, 0), (5, 1), (6, 0)):
        h, report = run_alteration(n, seed)
        cut = report.killing_masks[0]
        cases += [h, Hypergraph(h.v, tuple(m for m in h.edge_masks if m != cut))]
    return cases


STRUCTURED_CASES = structured_instances()


def test_structured_decisions_agree_with_the_census():
    answers = set()
    for h in STRUCTURED_CASES:
        colourable, _ = is_two_colourable(h)
        assert colourable == (enumerate_proper(h).total_proper > 0)
        answers.add(colourable)
    assert answers == {False, True}


def test_structured_witnesses_are_lex_first():
    for h in STRUCTURED_CASES:
        red = lex_first_search(h)
        expected = (False, None) if red is None else (True, Colouring(h.v, red))
        assert is_two_colourable(h) == expected


# Seed 0's canonical edge on document line 6214; without it exactly 2
# proper colourings are left.
SEED0_CUT = mask_of([4, 5, 6, 11, 13, 15, 16, 17, 19, 20, 21, 22, 23])


def branch_instances():
    """run_alteration(7, s) outputs on 26 vertices for s = 0 and 1, whole and
    less one blocking edge: seed 0 less SEED0_CUT, seed 1 less its first
    blocking edge, which stays uncolourable.  They have 3 branch vertices
    at the default split and 2 at the wide one, which _split picks."""
    cases = []
    for seed in (0, 1):
        h, report = run_alteration(7, seed)
        cut = SEED0_CUT if seed == 0 else report.killing_masks[0]
        assert cut in h.edge_masks
        cases += [h, Hypergraph(h.v, tuple(m for m in h.edge_masks if m != cut))]
    return cases


BRANCH_CASES = branch_instances()


def test_branch_decisions_agree_with_the_census_and_the_listing(monkeypatch):
    # lex_first_search takes about 30 s per instance at 26 vertices, so the
    # lex-first reference is the listing's minimum by reversed bit string.
    for split in (DEFAULT_SPLIT, colouring._WIDE_SPLIT):
        force_split(monkeypatch, *split)
        totals = []
        for h in BRANCH_CASES:
            reds = enumerate_proper(h, materialize=True).red_masks
            assert enumerate_proper(h).total_proper == len(reds)
            totals.append(len(reds))
            if reds:
                first = min(reds, key=lambda m: format(m, f"0{h.v}b")[::-1])
                expected = (True, Colouring(h.v, first))
            else:
                expected = (False, None)
            assert is_two_colourable(h) == expected
        assert totals == [0, 2, 0, 0]
        _, witness = is_two_colourable(BRANCH_CASES[1])
        assert witness.red == {4, 5, 6, 11, 13, 15, 16, 17, 19, 20, 21, 22, 23, 25}


def scattered_components(seed):
    """19-26 vertices at the kernel's own sizes: small random components on
    scattered vertex sets, the rest isolated.

    Returns (h, parts, isolated): each part is a component on its own
    vertices 0..c-1 with the sorted global vertices they stand for.  From
    24 vertices on there are branch vertices, and a 2-edge star from a
    vertex a below the keys makes propagation force a key vertex k and a
    block vertex.  Then k forces a block vertex over a 2-edge, and over the
    3-edge {a2, k, z} the free block vertex z whenever a2, also below the
    keys, has k's colour.  Each star edge's own side rules out its forced
    vertex's other colour, and each chain edge's side does once the vertex
    before it is right.
    """
    rng = random.Random(seed)
    v = 19 + seed % 8
    t, k = colouring._stages(v, *DEFAULT_SPLIT)
    shift = v - t
    key_base = shift - k
    order = rng.sample(range(v), v)
    groups = []
    if key_base > 1:
        a, a2 = rng.sample(range(key_base), 2)
        k = rng.randrange(key_base, shift)
        x, y, z = rng.sample(range(shift, v), 3)
        order = [u for u in order if u not in (a, a2, k, x, y, z)]
        groups.append(([a, a2, k, x, y, z], [[a, k], [a, x], [k, y], [a2, k, z]]))
    if seed % 3 == 0:  # an uncolourable part
        core = fano() if seed % 2 else triangle()
        members, order = order[: core.v], order[core.v :]
        groups.append((members, [[members[u] for u in e] for e in core.edges]))
    while len(order) > 4:  # what is left at the end stays isolated
        size = rng.randint(2, min(10, len(order)))
        members, order = order[:size], order[size:]
        sizes = [rng.randint(2, min(4, size)) for _ in range(rng.randint(1, size))]
        edges = [rng.sample(members, k) for k in sizes]
        groups.append((members, edges))
    parts = []
    for members, edges in groups:
        members = sorted(members)
        local = make_hypergraph(len(members), [[members.index(u) for u in e] for e in edges])
        parts.append((local, members))
    edges = [[members[u] for u in e] for local, members in parts for e in local.edges]
    return make_hypergraph(v, edges), parts, len(order)


def test_scattered_components_match_their_oracles():
    """A union of disjoint parts has the product of their censuses: the total
    multiplies, the red counts convolve, and the lex-first witness is the
    union of the parts' own (vertex order within a part is kept)."""
    for seed in range(64):
        h, parts, isolated = scattered_components(seed)
        total = 2**isolated
        reds_by_count = [math.comb(isolated, r) for r in range(isolated + 1)]
        witness = 0
        for local, members in parts:
            part_total, reds = census_oracle(local)
            total *= part_total
            convolved = [0] * (len(reds_by_count) + local.v)
            for r in reds:
                for i, n in enumerate(reds_by_count):
                    convolved[i + r.bit_count()] += n
            reds_by_count = convolved
            red = lex_first_oracle(local)
            if red is None or witness is None:
                witness = None
            else:
                witness |= mask_of(members[u] for u in bit_indices(red))
        assert enumerate_proper(h).total_proper == total
        listed = enumerate_proper(h, materialize=True)
        histogram = Counter(map(int.bit_count, listed.red_masks))
        assert histogram == {r: n for r, n in enumerate(reds_by_count) if n}
        expected = (False, None) if witness is None else (True, Colouring(h.v, witness))
        assert is_two_colourable(h) == expected


def random_uniform(v, size, m, seed):
    rng = random.Random(seed)
    return make_hypergraph(v, [rng.sample(range(v), size) for _ in range(m)])


# Red vertices of the lex-first proper colouring, or None when there is none.
# The witnesses were recorded from the earlier backtracking decision
# procedure, which scanned vertices one at a time in lex order.
PAST_LIMIT_CASES = [
    (random_uniform(30, 3, 50, 1), [15, 19, 20, 21, 23, 24, 25, 26, 27, 28, 29]),
    (
        random_uniform(48, 3, 90, 2),
        [3, 7, 8, 11, 14, 15, 17, 21, 22, 24, 25, 28, 29, 32, 33, 38, 39, 43, 44, 46, 47],
    ),
    (
        random_uniform(64, 3, 120, 3),
        [5, 8, 10, 12, 13, 17, 25, 27, 28, 30, 31, 37, 38, 39, 40, 42, 43, 47, 49, 50, 52,
         54, 58, 59, 60, 61, 62],
    ),
    (
        random_uniform(34, 4, 150, 4),
        [4, 5, 9, 11, 12, 13, 14, 16, 17, 19, 20, 21, 25, 27, 28, 29, 33],
    ),
    (random_uniform(34, 4, 200, 4), None),
    # odd cycle of 2-edges: propagation alone refutes it
    (make_hypergraph(41, [{i, (i + 1) % 41} for i in range(41)]), None),
    # the 16-vertex example on vertices 14..29, behind 14 isolated vertices
    (Hypergraph(30, tuple(m << 14 for m in paper_example().edge_masks)), None),
    # one 2-edge at the top: the first leaf lies below 4073 free branch vertices
    (Hypergraph(4096, (3 << 4094,)), [4095]),
    # uncolourable cores behind 4073 and 41 isolated branch vertices: each
    # red branch is skipped once its blue twin has yielded nothing
    (Hypergraph(4096, tuple(m << 4080 for m in paper_example().edge_masks)), None),
    (Hypergraph(64, tuple(m << 61 for m in triangle().edge_masks)), None),
    # the same core behind vertices 3..12, each on a 3-edge {1, 2, u}: the
    # 2-edge {1, 2} gives those edges both colours, so u's red branch is
    # skipped although u is not isolated (one pass each instead of 2**10)
    (
        Hypergraph(
            4096,
            (0b110,)
            + tuple(0b110 | 1 << u for u in range(3, 13))
            + tuple(m << 4080 for m in paper_example().edge_masks),
        ),
        None,
    ),
]


def test_decision_past_the_enumeration_limit():
    budget = 10.0
    started = time.perf_counter()
    for h, red in PAST_LIMIT_CASES:
        expected = (False, None) if red is None else (True, Colouring(h.v, mask_of(red)))
        assert is_two_colourable(h) == expected
        # The 30-vertex cases lie within the census's reach: it must agree.
        if h.v <= colouring.ENUM_LIMIT:
            assert (enumerate_proper(h).total_proper > 0) == (red is not None)
    assert time.perf_counter() - started < budget


def propagates_at(h, split):
    """True when the split leaves branch vertices and some edge has at most
    one member above them, so painting them can force or prune."""
    key_base = h.v - sum(colouring._stages(h.v, *split))
    return key_base > 1 and any(sum(u >= key_base for u in e) <= 1 for e in h.edges)


def test_split_widens_with_branch_vertices_and_enough_edges():
    """_split takes the wide split where it leaves branch vertices and there
    are at least 2**8 edges, one per key of a wide leaf, whether or not
    propagation is idle there.  It keeps the default for fewer edges, and
    wherever the wide split leaves no branch vertex."""
    wide = colouring._WIDE_SPLIT
    dense = 1 << wide[1]
    # Random 7- and 8-edges, sampled and with their blocking edges added,
    # and dense random instances.  The last two propagate at the wide split:
    # the n=8 seed-32 sample has an 8-edge with 7 members below the wide
    # key, and 8 of 284 random 3-edges on 26 vertices have 2 or 3 members
    # below the wide key.
    widened = [sampled_edges(7, 0), sampled_edges(7, 1), sampled_edges(8, 5), sampled_edges(8, 0)]
    widened += [BRANCH_CASES[0], BRANCH_CASES[2], run_alteration(8, 5)[0]]
    widened += [random_uniform(32, 6, 700, 3), sampled_edges(8, 32), random_uniform(26, 3, 300, 1)]
    assert [propagates_at(h, wide) for h in widened] == [False] * 8 + [True] * 2
    for h in widened:
        assert len(h.edge_masks) >= dense
        assert colouring._split(h) == colouring._stages(h.v, *wide) == wide
    # Fewer edges than a wide leaf has keys, on 24 to 4096 vertices.
    kept = [random_uniform(32, 4, 150, 4)]
    kept += [h for h, _ in PAST_LIMIT_CASES]
    kept += [scattered_components(seed)[0] for seed in range(64) if seed % 8 >= 5]
    for h in kept:
        assert len(h.edge_masks) < dense
        assert colouring._split(h) == DEFAULT_SPLIT
    # Up to 23 vertices there is no branch vertex at the default split, and
    # at 24 none at the wide one, so nothing widens, however many edges.
    for v in range(25):
        cases = [Hypergraph(v, ())]
        if v >= 3:
            cases += [make_hypergraph(v, [{v - 2, v - 1}]), random_uniform(v, 3, 5, v)]
        if v == 24:
            cases.append(random_uniform(v, 8, 400, v))
            assert len(cases[-1].edge_masks) >= dense
        for h in cases:
            assert colouring._split(h) == DEFAULT_SPLIT
            t, k = colouring._stages(h.v, *DEFAULT_SPLIT)
            assert (t, k) == (min(max(v - 1, 0), 16), min(max(v - t - 1, 0), 6))
            assert v - t - k <= 1 or v == 24
    assert colouring._split(sampled_edges(6, 0)) == DEFAULT_SPLIT
    # The module docstring's figures: branch vertices, leaves and keys per
    # leaf at each split.
    figures = {
        (DEFAULT_SPLIT, 26): (3, 8, 64),
        (DEFAULT_SPLIT, 32): (9, 512, 64),
        (wide, 26): (2, 4, 256),
        (wide, 32): (8, 256, 256),
    }
    for (split, v), stated in figures.items():
        t, k = colouring._stages(v, *split)
        branch = v - t - k - 1
        assert (branch, 1 << branch, 1 << k) == stated


def planted_mixed(v, m, seed):
    """v vertices, m edges of 4, 6 or 8 members, proper under a hidden
    colouring."""
    rng = random.Random(seed)
    red = rng.getrandbits(v)
    edges = set()
    while len(edges) < m:
        edge = rng.sample(range(v), rng.choice((4, 6, 8)))
        if 0 < sum(red >> u & 1 for u in edge) < len(edge):
            edges.add(frozenset(edge))
    return make_hypergraph(v, edges)


def test_wide_split_with_propagation_matches_the_default(monkeypatch):
    """Dense colourable instances on which _split picks the wide split and
    painting the branch vertices forces and prunes: the count, the listing
    and the lex-first witness equal those at the default split."""
    wide = colouring._WIDE_SPLIT

    def answers(h):
        reds = enumerate_proper(h, materialize=True).red_masks
        return enumerate_proper(h).total_proper, reds, is_two_colourable(h)

    cases = [planted_mixed(26, 300, 2), planted_mixed(28, 300, 0), planted_mixed(32, 500, 1)]
    at_wide = []
    for h in cases:
        assert colouring._split(h) == wide and propagates_at(h, wide)
        at_wide.append(answers(h))
    force_split(monkeypatch, *DEFAULT_SPLIT)
    assert [answers(h) for h in cases] == at_wide
    for h, (total, reds, decision) in zip(cases, at_wide):
        first = min(reds, key=lambda m: format(m, f"0{h.v}b")[::-1])
        assert (total, decision) == (len(reds), (True, Colouring(h.v, first)))
    assert [total for total, _, _ in at_wide] == [446, 600, 20]


def test_decision_on_named_uncolourables():
    for h in (triangle(), fano(), seymour_toft(), paper_example()):
        assert is_two_colourable(h) == (False, None)


def test_decision_witness_is_stable():
    h = make_hypergraph(6, [{0, 1}, {1, 2, 3}, {3, 4, 5}, {0, 5}])
    first = is_two_colourable(h)
    second = is_two_colourable(h)
    assert first == second
    assert is_proper(h, first[1])


def test_pair_opposites_small_example():
    assert pair_opposites([0b01, 0b10], 2) == [(0b01, 0b10)]
    assert pair_opposites([], 2) == []


def test_pair_opposites_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_opposites([0b01], 2)  # not closed
    with pytest.raises(ValueError):
        pair_opposites([0b01, 0b01], 2)  # duplicate
    with pytest.raises(ValueError, match="self-complementary"):
        pair_opposites([0], 0)
    with pytest.raises(ValueError, match="out of range"):
        pair_opposites([0b001, 0b110], 2)  # closed under complement on 3 vertices
    with pytest.raises(ValueError, match="out of range"):
        pair_opposites([-2, 1], 1)


def test_pair_opposites_on_plane_census():
    report = enumerate_proper(affine_plane_gf4(), materialize=True)
    pairs = pair_opposites(report.red_masks, 16)
    assert len(pairs) == 60
    for first, second in pairs:
        assert first & 1
        assert not second & 1
        assert first ^ second == (1 << 16) - 1
    reps = [first for first, _ in pairs]
    assert reps == sorted(reps)
