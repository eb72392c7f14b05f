"""Randomized pipeline plus the exact probability helpers feeding it."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propb import (
    AlterationParams,
    Colouring,
    Hypergraph,
    RetriesExhaustedError,
    balanced_probability,
    derive_seed,
    enumerate_proper,
    erdos_edge_count,
    expected_survivor_count,
    halved_edge_count,
    is_proper,
    mono_probability,
    q_value,
    run_alteration,
    sample_uniform_edges,
    serialize,
    union,
)
from propb import alteration
from propb._bits import bit_indices, mask_of
from propb.alteration import _blocks_every_survivor
from propb.formats import MAX_VERTICES


def test_mono_probability_values():
    assert mono_probability(2, 2, 2) == Fraction(1, 3)
    assert mono_probability(3, 1, 2) == Fraction(1, 2)
    assert mono_probability(4, 0, 2) == Fraction(1)
    assert mono_probability(4, 4, 4) == Fraction(1, 35)


def test_balanced_probability_values():
    assert balanced_probability(4, 2) == Fraction(1, 3)
    assert balanced_probability(8, 4) == Fraction(1, 35)
    # n beyond the class size: only the impossible single-class events remain
    assert balanced_probability(4, 3) == Fraction(0)


def test_probability_validation():
    with pytest.raises(ValueError):
        mono_probability(2, 2, 0)
    with pytest.raises(ValueError):
        mono_probability(-1, 3, 2)
    with pytest.raises(ValueError):
        mono_probability(1, 1, 3)
    with pytest.raises(ValueError):
        balanced_probability(5, 2)
    with pytest.raises(ValueError):
        balanced_probability(4, 5)


def test_balanced_split_minimizes_mono_probability():
    # exhaustive on small even v: any split is at least as monochromatic
    for v in (4, 6, 8, 10, 12):
        for n in range(1, v + 1):
            q = balanced_probability(v, n)
            assert mono_probability(v // 2, v // 2, n) == q
            for v1 in range(v + 1):
                assert mono_probability(v1, v - v1, n) >= q


def test_edge_counts():
    table = {
        2: (8, 4), 3: (34, 17), 4: (121, 61), 5: (377, 189), 6: (1086, 543), 7: (2955, 1478),
        8: (7718, 3859), 43: (7661021414959973, 3830510707479987),
        90: (4723289663948385820357675416891, 2361644831974192910178837708446),
    }
    for n, (m, m_prime) in table.items():
        assert erdos_edge_count(n) == m
        assert halved_edge_count(n) == m_prime
    for n in range(2, 91):
        assert 2 * halved_edge_count(n) - erdos_edge_count(n) in (0, 1)
    # The 256-bit constant is proven exact only up to n = 90; from 240 on its
    # ceiling differs from a 400-digit one.
    for n in (1, 91, 240):
        for count in (erdos_edge_count, halved_edge_count):
            with pytest.raises(ValueError, match=rf"edge size {n} is outside 2\.\.90"):
                count(n)


def test_erdos_edge_count_is_the_decimal_ceiling():
    from decimal import ROUND_CEILING, Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 120
        constant = Decimal(1).exp() * Decimal(2).ln() / 4
        assert alteration._E_LN2_OVER_4 == int(constant * 2**256)
        for n in range(2, 91):
            exact = constant * n * n * 2**n
            # far from an integer, so 120 digits settle the ceiling
            assert Decimal("1e-3") < exact % 1 < 1 - Decimal("1e-3")
            assert erdos_edge_count(n) == int(exact.to_integral_value(rounding=ROUND_CEILING))


def brute_force_expectation(v, n, m):
    """Average census of h over every ordered sample of m n-subsets of v vertices."""
    # bit c of proper[i] is set when colouring c (its red mask) splits edge i
    edges = [sum(1 << u for u in e) for e in combinations(range(v), n)]
    proper = [sum(1 << c for c in range(1 << v) if e & c not in (0, e)) for e in edges]
    everything = (1 << (1 << v)) - 1
    total = 0
    for sample in product(proper, repeat=m):
        survivors = everything
        for colourings in sample:
            survivors &= colourings
        total += survivors.bit_count()
    return Fraction(total, len(edges) ** m)


def test_expected_survivor_count_matches_brute_force():
    assert expected_survivor_count(4, 2, 2) == Fraction(14, 3)
    assert expected_survivor_count(6, 3, 2) == Fraction(192, 5)
    assert expected_survivor_count(6, 2, 3) == Fraction(2096, 225)
    for v in range(2, 7):
        for n in range(2, v + 1):
            for m in range(4):
                assert expected_survivor_count(v, n, m) == brute_force_expectation(v, n, m), (v, n, m)
    for v, n, m in ((4, 2, 6), (5, 4, 7)):
        assert expected_survivor_count(v, n, m) == brute_force_expectation(v, n, m), (v, n, m)


def test_expected_survivor_count_edge_cases():
    for v, n in ((2, 2), (8, 4), (26, 7)):
        assert expected_survivor_count(v, n, 0) == 2**v
    # an edge on every vertex leaves exactly the colourings that split it
    assert expected_survivor_count(5, 5, 3) == 30
    assert type(expected_survivor_count(8, 4, 61)) is Fraction
    # the n=8 run samples 3859 edges on 32 vertices; seed 5 kept 58 938
    assert int(expected_survivor_count(32, 8, 3859)) == 61136
    for v, n, m in ((8, 1, 3), (3, 4, 1), (8, 4, -1)):
        with pytest.raises(ValueError):
            expected_survivor_count(v, n, m)


@given(
    v=st.integers(min_value=2, max_value=20).map(lambda k: 2 * k),
    n=st.integers(min_value=2, max_value=40),
    m=st.integers(min_value=0, max_value=2000),
)
@settings(max_examples=100)
@example(v=28, n=14, m=1)
def test_expected_survivor_count_below_balanced_bound(v, n, m):
    n = min(n, v)
    expected = expected_survivor_count(v, n, m)
    # the balanced split is the least monochromatic, so 2**v * (1-q)**m bounds
    # the expectation; the all-one-colour splits always fall short of it
    bound = 2**v * (1 - balanced_probability(v, n)) ** m
    assert expected == bound if m == 0 else expected < bound


def test_sampling_is_deterministic_and_well_formed():
    a = sample_uniform_edges(30, 5, 50, seed=7)
    b = sample_uniform_edges(30, 5, 50, seed=7)
    assert a == b
    assert a != sample_uniform_edges(30, 5, 50, seed=8)
    assert a.v == 30
    assert a.edge_count <= 50
    assert all(len(e) == 5 for e in a.edges)


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_uniform_edges(4, 1, 3, seed=0)
    with pytest.raises(ValueError):
        sample_uniform_edges(3, 4, 3, seed=0)
    with pytest.raises(ValueError):
        sample_uniform_edges(4, 2, -1, seed=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        sample_uniform_edges(10, 3, 5, seed=-7)


def test_sampling_covers_every_subset():
    # 10000 draws of 4-subsets of 8 points reach all 70 possibilities
    assert sample_uniform_edges(8, 4, 10000, seed=0).edge_count == 70


def test_sampling_is_roughly_uniform_across_seeds():
    counts = Counter(sample_uniform_edges(8, 4, 1, seed=s).edges[0] for s in range(2000))
    assert len(counts) == 70
    assert min(counts.values()) >= 10
    assert max(counts.values()) <= 60


def randrange_sample(v, n, m, seed):
    """Reference sampler: the partial Fisher-Yates loop on `Random.randrange`."""
    rng = random.Random(seed)
    pool = [1 << u for u in range(v)]
    masks = []
    for _ in range(m):
        for i in range(n):
            j = rng.randrange(i, v)
            pool[i], pool[j] = pool[j], pool[i]
        masks.append(sum(pool[:n]))
    return Hypergraph(v, tuple(masks))


def test_sampling_stream_matches_randrange():
    """The getrandbits draws replay randrange(i, v) exactly, so every sample,
    and every document built from one, depends only on the seed.  The grid
    takes in spans v - i that are powers of two, where k = span.bit_length()
    is one bit more than the span needs and half the draws are redrawn."""
    seeds = [0, 1, (1 << 63) - 1] + [derive_seed(s, r) for s in (5, 99) for r in (1, 7)]
    spans = set()
    for v in range(2, 41):
        for n in range(2, min(v, 9) + 1):
            spans.update(range(v - n + 1, v + 1))
            for m in (0, 1, 60):
                for seed in seeds:
                    assert sample_uniform_edges(v, n, m, seed) == randrange_sample(v, n, m, seed)
    assert {1, 2, 4, 8, 16, 32} <= spans


def test_derive_seed():
    assert derive_seed(99, 0) == 99
    seen = {derive_seed(99, r) for r in range(100)}
    assert len(seen) == 100
    assert all(0 <= s < 1 << 64 for s in seen)


def test_params_for_edge_size():
    p4 = AlterationParams.for_edge_size(4, seed=0)
    assert (p4.v, p4.m_prime, p4.big_edge_size, p4.survivor_threshold) == (8, 61, 4, 16)
    p2 = AlterationParams.for_edge_size(2, seed=0)
    assert (p2.v, p2.big_edge_size, p2.survivor_threshold, p2.m_prime) == (4, 2, 4, 4)
    p3 = AlterationParams.for_edge_size(3, seed=0)
    assert (p3.v, p3.big_edge_size, p3.survivor_threshold, p3.m_prime) == (6, 3, 8, 17)
    p7 = AlterationParams.for_edge_size(7, seed=0)
    assert (p7.v, p7.big_edge_size, p7.survivor_threshold) == (26, 13, 8192)


def test_params_validation():
    with pytest.raises(ValueError):
        AlterationParams.for_edge_size(4, seed=0, max_retries=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        AlterationParams.for_edge_size(3, seed=-5)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        run_alteration(3, -5)
    assert AlterationParams.for_edge_size(90, seed=0).v == 4050
    # for_edge_size has no check on n of its own: the edge count's 2..90
    # refuses every n whose 2 * ceil(n*n / 4) vertices exceed the cap
    for n in range(2, 91):
        assert AlterationParams.for_edge_size(n, seed=0).v <= MAX_VERTICES
    for n in (-3, 0, 1, 91, 2000):
        with pytest.raises(ValueError, match="outside 2..90"):
            AlterationParams.for_edge_size(n, seed=0)


# for_edge_size(n, seed=0) as (n, v, m_prime, big_edge_size, survivor_threshold,
# seed, max_retries, strict), recorded when AlterationParams was a slots class.
PINNED_PARAMS = [
    (2, 4, 4, 2, 4, 0, 50, False),
    (3, 6, 17, 3, 8, 0, 50, False),
    (4, 8, 61, 4, 16, 0, 50, False),
    (5, 14, 189, 7, 128, 0, 50, False),
    (6, 18, 543, 9, 512, 0, 50, False),
    (7, 26, 1478, 13, 8192, 0, 50, False),
    (8, 32, 3859, 16, 65536, 0, 50, False),
    (90, 4050, 2361644831974192910178837708446, 2025, 1 << 2025, 0, 50, False),
]


@pytest.mark.parametrize("fields", PINNED_PARAMS, ids=[f"n={f[0]}" for f in PINNED_PARAMS])
def test_params_are_pinned(fields):
    params = AlterationParams.for_edge_size(fields[0], seed=0)
    assert params == fields
    assert params._fields == (
        "n", "v", "m_prime", "big_edge_size", "survivor_threshold", "seed", "max_retries", "strict"
    )


def test_run_builds_uncolourable_hypergraphs():
    # the full census of the output is the oracle for the survivor-list proof
    for n, seed in [(n, s) for n in (2, 3, 4) for s in range(3)] + [(7, 5)]:
        h, report = run_alteration(n, seed)
        assert report.verified_uncolourable
        assert enumerate_proper(h).total_proper == 0
        assert h == union(report.h1, report.h2)


def test_verification_rejects_broken_outputs():
    h, report = run_alteration(5, 11)
    h1, survivors = report.h1, report.survivor_masks
    kills = list(report.killing_masks)
    assert _blocks_every_survivor(h, h1, survivors, kills)

    # drop the blocking edges of a survivor and its complement, when no other
    # survivor carved them and nothing else in h is monochromatic under them
    full = (1 << h.v) - 1
    index = {red: i for i, red in enumerate(survivors)}
    for i, red in enumerate(survivors):
        drop = {kills[i], kills[index[full ^ red]]}
        reduced = Hypergraph(h.v, tuple(m for m in h.edge_masks if m not in drop))
        if sum(k in drop for k in kills) == 2 and is_proper(reduced, Colouring(h.v, red)):
            break
    else:
        pytest.fail("no survivor pair can be freed")
    assert not _blocks_every_survivor(reduced, h1, survivors, kills)
    assert enumerate_proper(reduced).total_proper == 2

    # a sampled edge missing, or a blocking edge that is not monochromatic
    assert not _blocks_every_survivor(Hypergraph(h.v, h.edge_masks[1:]), h1, survivors, kills)
    red, kill = survivors[-1], kills[-1]
    other = full ^ red if kill & red else red
    bichromatic = kills[:-1] + [kill | other & -other]
    assert not _blocks_every_survivor(union(h, Hypergraph(h.v, bichromatic)), h1, survivors, bichromatic)


def test_run_censuses_once_per_sampling_attempt(monkeypatch):
    calls = []

    def counting(h, *args, **kwargs):
        calls.append(h)
        return enumerate_proper(h, *args, **kwargs)

    monkeypatch.setattr(alteration, "enumerate_proper", counting)
    _, report = run_alteration(4, 13, strict=True)
    assert report.retries_used == 2
    assert len(calls) == 3


def test_killing_edges_sit_inside_majority_classes():
    _, report = run_alteration(4, 13)
    assert report.survivor_count == 20
    assert report.retries_used == 0
    big = report.params.big_edge_size
    v = report.params.v
    assert len(report.killing_masks) == len(report.killing_edges) == report.survivor_count
    assert report.survivors == tuple(Colouring(v, red) for red in report.survivor_masks)
    for red, kill, mask in zip(report.survivor_masks, report.killing_edges, report.killing_masks):
        majority = red if 2 * red.bit_count() >= v else red ^ ((1 << v) - 1)
        assert len(kill) == big
        assert kill == frozenset(bit_indices(majority)[:big])
        assert mask == mask_of(kill)


def test_weight_accounting():
    h, report = run_alteration(4, 13)
    assert report.q_h1 + report.q_h2 == report.q_total
    assert report.q_total == q_value(h)
    assert report.q_h1.as_fraction() <= Fraction(61, 16)
    assert report.q_h2.as_fraction() <= Fraction(report.survivor_count, 16)


def test_strict_mode_retries_until_threshold():
    h, report = run_alteration(4, 13, strict=True)
    assert report.retries_used == 2
    assert report.survivor_count == 12
    assert report.survivor_count <= report.params.survivor_threshold
    assert report.verified_uncolourable
    assert enumerate_proper(h).total_proper == 0


def test_strict_mode_exhaustion():
    for max_retries in (0, 1):
        with pytest.raises(RetriesExhaustedError):
            run_alteration(4, 13, max_retries=max_retries, strict=True)


def test_run_refuses_unenumerable_sizes():
    with pytest.raises(ValueError, match="enumeration limit"):
        run_alteration(9, 0)


def test_run_is_deterministic():
    h_a, rep_a = run_alteration(3, 5, strict=True)
    h_b, rep_b = run_alteration(3, 5, strict=True)
    assert h_a == h_b
    assert rep_a == rep_b
    assert serialize(h_a) == serialize(h_b)
