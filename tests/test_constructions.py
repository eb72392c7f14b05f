"""Named hypergraphs and the GF(4) plane geometry behind the 16-vertex example."""

from itertools import combinations

import pytest

from propb import (
    affine_plane_gf4,
    derive_h8,
    enumerate_proper,
    fano,
    make_hypergraph,
    paper_example,
    q_value,
    serialize,
    seymour_toft,
    triangle,
    union,
)
from propb.constructions import _GF4_MUL


def test_gf4_is_a_field():
    # addition is xor, multiplication reads the table the plane is built from
    elems = range(4)
    for a in elems:
        assert a ^ 0 == a
        assert _GF4_MUL[a][1] == a
        assert _GF4_MUL[a][0] == 0
        assert a ^ a == 0  # characteristic 2
        for b in elems:
            assert _GF4_MUL[a][b] == _GF4_MUL[b][a]
            for c in elems:
                assert _GF4_MUL[a][_GF4_MUL[b][c]] == _GF4_MUL[_GF4_MUL[a][b]][c]
                assert _GF4_MUL[a][b ^ c] == _GF4_MUL[a][b] ^ _GF4_MUL[a][c]
    # nonzero elements form a cyclic group of order 3
    assert _GF4_MUL[2][2] == 3
    assert _GF4_MUL[2][3] == 1
    assert _GF4_MUL[3][3] == 2
    inverses = {a: next(b for b in range(1, 4) if _GF4_MUL[a][b] == 1) for a in range(1, 4)}
    assert inverses == {1: 1, 2: 3, 3: 2}


def test_triangle_shape():
    h = triangle()
    assert (h.v, h.edge_count) == (3, 3)
    assert all(len(e) == 2 for e in h.edges)


def test_fano_shape_and_incidence():
    h = fano()
    assert (h.v, h.edge_count) == (7, 7)
    assert all(len(e) == 3 for e in h.edges)
    for u in range(7):
        assert sum(1 for e in h.edges if u in e) == 3
    for pair in combinations(range(7), 2):
        assert sum(1 for e in h.edges if set(pair) <= e) == 1


def test_seymour_toft_shape():
    h = seymour_toft()
    assert (h.v, h.edge_count) == (11, 23)
    assert all(len(e) == 4 for e in h.edges)
    assert set().union(*h.edges) == set(range(11))
    assert enumerate_proper(h).total_proper == 0


def test_affine_plane_axioms():
    h = affine_plane_gf4()
    assert (h.v, h.edge_count) == (16, 20)
    assert all(len(e) == 4 for e in h.edges)
    # every point on 5 lines, every point pair on exactly one line
    for u in range(16):
        assert sum(1 for e in h.edges if u in e) == 5
    for pair in combinations(range(16), 2):
        assert sum(1 for e in h.edges if set(pair) <= e) == 1
    # two distinct lines meet in at most one point
    for e1, e2 in combinations(h.edges, 2):
        assert len(e1 & e2) <= 1


def test_blocking_family_shape():
    h8 = derive_h8(affine_plane_gf4())
    assert (h8.v, h8.edge_count) == (16, 60)
    assert all(len(e) == 8 for e in h8.edges)
    # each edge is the red set of a pair representative, which holds vertex 0
    assert all(0 in e for e in h8.edges)


def test_derive_rejects_unbalanced_colourings():
    # a single 3-edge on 3 vertices has proper colourings, none balanced
    with pytest.raises(ValueError, match="balanced"):
        derive_h8(make_hypergraph(3, [{0, 1, 2}]))


def test_sixteen_vertex_example():
    h = paper_example()
    assert (h.v, h.edge_count) == (16, 80)
    assert q_value(h).as_fraction().numerator == 95
    assert q_value(h).as_fraction().denominator == 64
    assert enumerate_proper(h).total_proper == 0
    h4 = affine_plane_gf4()
    assert h == union(h4, derive_h8(h4))


def test_constructions_serialize_identically_across_calls():
    for build in (triangle, fano, seymour_toft, affine_plane_gf4, paper_example):
        assert serialize(build()) == serialize(build())
    assert serialize(paper_example()).count("\n") == 81
