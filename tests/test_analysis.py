"""Design counting, edge-criticality, and the bundled example's fact sheet."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from propb import (
    DyadicValue,
    Hypergraph,
    affine_plane_gf4,
    derive_h8,
    design_check,
    enumerate_proper,
    fano,
    is_edge_critical,
    make_hypergraph,
    paper_example,
    run_alteration,
    seymour_toft,
    triangle,
    verify_paper_example,
)
from propb.analysis import DesignCheckResult


def blue_blocks():
    census = enumerate_proper(affine_plane_gf4(), materialize=True)
    return [{u for u in range(16) if not red >> u & 1} for red in census.red_masks]


def test_design_lambdas_of_the_blue_sets():
    blocks = blue_blocks()
    for t, lam in ((0, 120), (1, 60), (2, 28), (3, 12)):
        result = design_check(blocks, 16, t)
        assert result.lam == lam
        assert result.counterexample is None
        assert (result.block_count, result.block_size, result.point_count) == (120, 8, 16)
        # standard double count: b * C(k, t) = C(v, t) * lambda
        assert 120 * comb(8, t) == comb(16, t) * lam


def test_design_lambdas_of_fano():
    lines = fano().edges
    assert design_check(lines, 7, 1).lam == 3
    assert design_check(lines, 7, 2).lam == 1


def test_design_counterexample():
    result = design_check([{0, 1}, {1, 2}], 3, 1)
    assert result.lam is None
    assert result.counterexample == frozenset({1})


def test_design_validation():
    with pytest.raises(ValueError):
        design_check([], 3, 1)
    with pytest.raises(ValueError):
        design_check([{0, 1}, {0, 1}], 3, 1)
    with pytest.raises(ValueError):
        design_check([{0, 1}, {0, 1, 2}], 3, 1)
    with pytest.raises(ValueError):
        design_check([{0, 1}], 3, 3)
    with pytest.raises(ValueError):
        design_check([{0, 1}], 3, -1)
    with pytest.raises(ValueError):
        design_check([{0, 5}], 3, 1)
    with pytest.raises(ValueError, match="point count must be nonnegative"):
        design_check([{0, 1}], -1, 1)


def scan_every_subset(blocks, point_count, t):
    """Reference: count every t-subset in lex order until one differs from the first."""
    masks = [sum(1 << p for p in b) for b in blocks]
    lam = None
    for subset in combinations(range(point_count), t):
        smask = sum(1 << p for p in subset)
        count = sum(1 for bm in masks if bm & smask == smask)
        if lam is None:
            lam = count
        elif count != lam:
            return None, frozenset(subset)
    return lam, None


def design_cases():
    rng = random.Random(7)
    for p in range(11):
        for k in range(p + 1):
            complete = [set(b) for b in combinations(range(p), k)]
            for t in range(k + 1):
                yield complete, p, t
                for _ in range(3):
                    yield rng.sample(complete, rng.randint(1, len(complete))), p, t
                # blocks drawn on fewer points, then moved onto the highest ones
                for _ in range(3):
                    low = rng.randint(k, p)
                    family = [set(b) for b in combinations(range(low), k)]
                    family = rng.sample(family, rng.randint(1, len(family)))
                    yield [{u + p - low for u in b} for b in family], p, t


def test_design_check_agrees_with_a_scan_of_every_subset():
    cases = 0
    for blocks, p, t in design_cases():
        result = design_check(blocks, p, t)
        assert (result.lam, result.counterexample) == scan_every_subset(blocks, p, t), (blocks, p, t)
        cases += 1
    assert cases == 2002


def design_check_by_masks(blocks, point_count, t):
    """Reference: the per-subset scan, which tests every block mask against each subset's mask.

    It keeps `design_check`'s lex order, early exit and shortcut for an
    uncovered {0..t-1}, so the whole result must agree.
    """
    families = [frozenset(b) for b in blocks]
    lam = counterexample = None
    first = min(sorted(b)[:t] for b in families)
    if first != list(range(t)):
        counterexample = frozenset(first)
    else:
        masks = [sum(1 << p for p in b) for b in families]
        for subset in combinations(range(point_count), t):
            smask = sum(1 << p for p in subset)
            count = sum(1 for bm in masks if bm & smask == smask)
            if lam is None:
                lam = count
            elif count != lam:
                lam, counterexample = None, frozenset(subset)
                break
    return DesignCheckResult(t, point_count, len(families), len(families[0]), lam, counterexample)


def random_design_cases():
    rng = random.Random(36)
    for p in range(1, 13):
        for k in range(1, min(p, 6) + 1):
            complete = list(combinations(range(p), k))
            above_zero = list(combinations(range(1, p), k))
            for t in range(k + 1):
                for _ in range(3):
                    yield rng.sample(complete, rng.randint(1, min(len(complete), 40))), p, t
                # no block holds point 0, so {0..t-1} is uncovered when t >= 1
                if above_zero:
                    yield rng.sample(above_zero, rng.randint(1, min(len(above_zero), 10))), p, t


def test_design_check_agrees_with_the_per_subset_scan():
    plane = affine_plane_gf4().edges
    cases = [*random_design_cases()]
    cases += [(plane, 16, t) for t in (1, 2, 3, 4)]
    cases += [(blue_blocks(), 16, t) for t in (2, 3, 4)]
    cases.append((fano().edges, 7, 2))
    failed = 0
    for blocks, p, t in cases:
        result = design_check(blocks, p, t)
        assert result == design_check_by_masks(blocks, p, t), (blocks, p, t)
        failed += result.lam is None
    assert (len(cases), failed) == (937, 621)


def test_design_check_answers_on_the_blocking_family():
    # recorded from the subset-by-subset scan
    expected = {
        1: [1],
        2: [1, 2],
        3: [1, 2, 3],
        4: [0, 1, 2, 4],
        5: [0, 1, 2, 4, 5],
        6: [0, 1, 2, 4, 5, 6],
        7: [0, 1, 2, 4, 5, 6, 11],
        8: [0, 1, 2, 4, 5, 6, 11, 15],
    }
    h8 = derive_h8(affine_plane_gf4())
    assert design_check(h8.edges, 16, 0).lam == 60
    for t, counterexample in expected.items():
        result = design_check(h8.edges, 16, t)
        assert result.lam is None
        assert result.counterexample == frozenset(counterexample)


def test_named_hypergraphs_are_edge_critical():
    for build in (triangle, fano, seymour_toft):
        assert is_edge_critical(build()) == (True, None)


def test_redundant_edge_is_reported():
    h = make_hypergraph(3, [{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}])
    assert is_edge_critical(h) == (False, frozenset({0, 1, 2}))


def test_criticality_requires_uncolourable_input():
    with pytest.raises(ValueError):
        is_edge_critical(make_hypergraph(3, [{0, 1}]))


def expected_ordered_2_chains(h):
    """Pluhar's count: ordered pairs (e, f) meeting in one vertex x, last in e and first in f.

    Under a uniformly random vertex order such a pair is a chain with
    chance (|e|-1)!(|f|-1)!/(|e|+|f|-1)!, so the expectation is exact.
    """
    masks = h.edge_masks
    sizes = [m.bit_count() for m in masks]
    pairs = Counter()
    for e, a in zip(masks, sizes):
        for f, b in zip(masks, sizes):
            common = e & f  # an edge meets itself in at least 2 vertices
            if common and not common & common - 1:
                pairs[a, b] += 1
    return sum(
        Fraction(factorial(a - 1) * factorial(b - 1) * count, factorial(a + b - 1))
        for (a, b), count in pairs.items()
    )


def test_every_uncolourable_hypergraph_expects_an_ordered_2_chain():
    # an order with no ordered 2-chain 2-colours H (Pluhar 2009), so an
    # uncolourable H expects at least one under a random order
    pinned = {
        triangle: 1,
        fano: Fraction(7, 5),
        seymour_toft: Fraction(92, 35),
        paper_example: Fraction(232, 77),
    }
    for build, expected in pinned.items():
        assert expected_ordered_2_chains(build()) == expected
    for n in range(2, 7):
        for seed in (0, 1):
            assert expected_ordered_2_chains(run_alteration(n, seed)[0]) >= 1


def test_verification_all_green():
    report = verify_paper_example()
    assert report.passed
    assert len(report.checks) == 10
    assert [entry.name for entry in report.checks] == [
        "plane-shape",
        "proper-count",
        "balance",
        "opposite-pairs",
        "blocking-shape",
        "union-edges",
        "uncolourable",
        "weight",
        "weight-bracket",
        "blue-design",
    ]
    assert report.q_total == DyadicValue(95, 6)
    assert report == verify_paper_example()


def test_verification_catches_missing_blocking_edge():
    h8 = derive_h8(affine_plane_gf4())
    truncated = Hypergraph(16, h8.edge_masks[:-1])
    report = verify_paper_example(h8=truncated)
    assert not report.passed
    by_name = {entry.name: entry for entry in report.checks}
    assert not by_name["blocking-shape"].passed
    assert not by_name["union-edges"].passed
    assert by_name["union-edges"].actual == "79"
    # dropping a blocking edge frees exactly its pair of colourings
    assert not by_name["uncolourable"].passed
    assert "witness" in by_name["uncolourable"].actual
    assert not by_name["weight"].passed
    assert report.q_total == DyadicValue(379, 8)
    for name in ("plane-shape", "proper-count", "balance", "opposite-pairs", "blue-design"):
        assert by_name[name].passed


def test_verification_catches_missing_line():
    plane = affine_plane_gf4()
    clipped = Hypergraph(16, plane.edge_masks[:-1])
    report = verify_paper_example(h4=clipped, h8=derive_h8(plane))
    assert not report.passed
    by_name = {entry.name: entry for entry in report.checks}
    assert not by_name["plane-shape"].passed
    assert not by_name["proper-count"].passed
    assert by_name["proper-count"].actual == "768"


def test_verification_raises_before_its_checks_when_h4_cannot_be_listed_or_derived():
    # With h8 omitted, derive_h8 and the census of h4 run before the table.
    clipped = Hypergraph(16, affine_plane_gf4().edge_masks[:-1])
    with pytest.raises(ValueError, match="is not balanced"):
        verify_paper_example(h4=clipped)
    with pytest.raises(ValueError, match="33 vertices exceeds the exhaustive enumeration limit"):
        verify_paper_example(h4=make_hypergraph(33, [{0, 1}]))


PLANE_SHAPE = ("plane-shape", "16 vertices, 20 edges of size 4")
PROPER_COUNT = ("proper-count", "120")
BALANCE = ("balance", "every proper colouring 8 red / 8 blue")
OPPOSITE_PAIRS = ("opposite-pairs", "60")
BLOCKING_SHAPE = ("blocking-shape", "60 edges of size 8")
UNION_EDGES = ("union-edges", "80")
UNCOLOURABLE = ("uncolourable", "not 2-colourable")
WEIGHT = ("weight", "95/2^6")
WEIGHT_BRACKET = ("weight-bracket", "23/2^4 < q < 24/2^4")
BLUE_DESIGN = ("blue-design", "3-(16,8,12) design")


def paper_inputs(case):
    plane = affine_plane_gf4()
    h8 = derive_h8(plane)
    if case == "default":
        return {}
    if case == "h8-minus-last":
        return {"h8": Hypergraph(16, h8.edge_masks[:-1])}
    if case == "h4-minus-last":
        return {"h4": Hypergraph(16, plane.edge_masks[:-1]), "h8": h8}
    if case == "matching":
        # three disjoint 2-edges: their blue sets are no 3-design
        return {"h4": make_hypergraph(6, [{0, 1}, {2, 3}, {4, 5}])}
    assert case == "empty"
    return {"h4": Hypergraph(0, ()), "h8": Hypergraph(0, ())}


# (name, expected, actual, passed) of every check and q_total, recorded from
# the hand-written check sequence that the table replaced.
PINNED_CHECKS = {
    "default": (
        "95/2^6",
        [
            (*PLANE_SHAPE, "16 vertices, 20 edges of size [4]", True),
            (*PROPER_COUNT, "120", True),
            (*BALANCE, "all balanced", True),
            (*OPPOSITE_PAIRS, "60", True),
            (*BLOCKING_SHAPE, "60 edges of size [8]", True),
            (*UNION_EDGES, "80", True),
            (*UNCOLOURABLE, "not 2-colourable", True),
            (*WEIGHT, "95/2^6", True),
            (*WEIGHT_BRACKET, "q = 95/2^6", True),
            (*BLUE_DESIGN, "lambda = 12", True),
        ],
    ),
    "h8-minus-last": (
        "379/2^8",
        [
            (*PLANE_SHAPE, "16 vertices, 20 edges of size [4]", True),
            (*PROPER_COUNT, "120", True),
            (*BALANCE, "all balanced", True),
            (*OPPOSITE_PAIRS, "60", True),
            (*BLOCKING_SHAPE, "59 edges of size [8]", False),
            (*UNION_EDGES, "79", False),
            (*UNCOLOURABLE, "2-colourable (2 proper, witness red: 1 2 3 4 5 6 9 14)", False),
            (*WEIGHT, "379/2^8", False),
            (*WEIGHT_BRACKET, "q = 379/2^8", True),
            (*BLUE_DESIGN, "lambda = 12", True),
        ],
    ),
    "h4-minus-last": (
        "91/2^6",
        [
            (*PLANE_SHAPE, "16 vertices, 19 edges of size [4]", False),
            (*PROPER_COUNT, "768", False),
            (*BALANCE, "360 unbalanced", False),
            (*OPPOSITE_PAIRS, "384", False),
            (*BLOCKING_SHAPE, "60 edges of size [8]", True),
            (*UNION_EDGES, "79", False),
            (*UNCOLOURABLE, "2-colourable (608 proper, witness red: 3 7 10 12 13 14 15)", False),
            (*WEIGHT, "91/2^6", False),
            (*WEIGHT_BRACKET, "q = 91/2^6", False),
            (*BLUE_DESIGN, "error: mixed block sizes [6, 7, 8, 9, 10]", False),
        ],
    ),
    "empty": (
        "0/2^0",
        [
            (*PLANE_SHAPE, "0 vertices, 0 edges of size []", False),
            (*PROPER_COUNT, "1", False),
            (*BALANCE, "all balanced", True),
            (*OPPOSITE_PAIRS, "error: self-complementary colouring in input", False),
            (*BLOCKING_SHAPE, "0 edges of size []", False),
            (*UNION_EDGES, "0", False),
            (*UNCOLOURABLE, "2-colourable (1 proper, witness red: )", False),
            (*WEIGHT, "0/2^0", False),
            (*WEIGHT_BRACKET, "q = 0/2^0", False),
            (*BLUE_DESIGN, "error: t exceeds the block size", False),
        ],
    ),
    "matching": (
        "5/2^2",
        [
            (*PLANE_SHAPE, "6 vertices, 3 edges of size [2]", False),
            (*PROPER_COUNT, "8", False),
            (*BALANCE, "all balanced", True),
            (*OPPOSITE_PAIRS, "4", False),
            (*BLOCKING_SHAPE, "4 edges of size [3]", False),
            (*UNION_EDGES, "7", False),
            (*UNCOLOURABLE, "not 2-colourable", True),
            (*WEIGHT, "5/2^2", False),
            (*WEIGHT_BRACKET, "q = 5/2^2", False),
            (*BLUE_DESIGN, "not a design (counterexample [0, 2, 4])", False),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CHECKS))
def test_verification_checks_are_pinned(case):
    # the "error:" entries come from a check whose computation raised ValueError
    q_total, checks = PINNED_CHECKS[case]
    report = verify_paper_example(**paper_inputs(case))
    assert str(report.q_total) == q_total
    actual = [(e.name, e.expected, e.actual, e.passed) for e in report.checks]
    assert actual == checks
