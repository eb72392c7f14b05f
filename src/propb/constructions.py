"""Named hypergraphs.

Small classics (triangle, Fano plane, the 23-edge Seymour-Toft example) plus
the 16-vertex family: the affine plane of order 4 as a 4-uniform hypergraph,
the 60 derived 8-edges that block every one of its proper colourings, and
their union, whose dyadic weight is 95/64.
"""

from __future__ import annotations

from propb.colouring import enumerate_proper, pair_opposites
from propb.core import Hypergraph, make_hypergraph, union

# GF(4) with elements 0, 1, w, w+1 encoded as 0, 1, 2, 3.  Addition is xor;
# _GF4_MUL[a][b] is the product a*b, which follows from w*w = w + 1.
_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def triangle() -> Hypergraph:
    """Smallest non-2-colourable graph: 3 vertices, 3 edges of size 2."""
    return make_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])


FANO_LINES = (
    {0, 1, 2},
    {0, 3, 4},
    {0, 5, 6},
    {1, 3, 5},
    {1, 4, 6},
    {2, 3, 6},
    {2, 4, 5},
)


def fano() -> Hypergraph:
    """Fano plane: 7 points, 7 lines of size 3; smallest non-2-colourable 3-graph."""
    return make_hypergraph(7, FANO_LINES)


# 11-vertex, 23-edge Seymour-Toft example (labels 1..11 here, shifted to
# 0-based below); the smallest edge count possible for 4-uniform hypergraphs
# without a proper 2-colouring.
_SEYMOUR_TOFT_1BASED = (
    (1, 2, 9, 10), (3, 4, 9, 10), (5, 6, 9, 10), (7, 8, 9, 10),
    (1, 2, 9, 11), (3, 4, 9, 11), (5, 6, 9, 11), (7, 8, 9, 11),
    (1, 2, 10, 11), (3, 4, 10, 11), (5, 6, 10, 11), (7, 8, 10, 11),
    (1, 3, 5, 8), (1, 3, 6, 7), (1, 4, 5, 7), (1, 4, 6, 7), (1, 4, 6, 8),
    (2, 3, 5, 7), (2, 3, 6, 7), (2, 3, 6, 8), (2, 4, 5, 7), (2, 4, 5, 8), (2, 4, 6, 8),
)


def seymour_toft() -> Hypergraph:
    """The 23-edge example on 11 vertices; its weight is 23/16."""
    return make_hypergraph(11, [{u - 1 for u in edge} for edge in _SEYMOUR_TOFT_1BASED])


def affine_plane_gf4() -> Hypergraph:
    """Affine plane of order 4: 16 points, 20 lines of size 4.

    Point (x, y) in GF(4)^2 gets vertex index 4x + y.  Lines are the graphs
    y = a*x + b for each (a, b), plus the four verticals x = c.  Every pair
    of points lies on exactly one line and every point on exactly 5.
    """
    lines = []
    for a in range(4):
        for b in range(4):
            lines.append({4 * x + (_GF4_MUL[a][x] ^ b) for x in range(4)})
    for c in range(4):
        lines.append({4 * c + y for y in range(4)})
    return make_hypergraph(16, lines)


def derive_h8(h: Hypergraph) -> Hypergraph:
    """One blocking edge per opposite pair of proper colourings of h.

    Requires every proper colouring of h to be balanced (half red, half
    blue); they then split into complement pairs, and the red set of each
    pair's representative (the member whose red set contains vertex 0)
    becomes an edge.  Each such edge is monochromatic under both members of
    its pair, so the union of h with the result has no proper colouring.
    """
    red_masks = enumerate_proper(h, materialize=True).red_masks
    assert red_masks is not None
    for m in red_masks:
        if 2 * m.bit_count() != h.v:
            raise ValueError(
                f"proper colouring with {m.bit_count()} red of {h.v} vertices is not balanced"
            )
    return Hypergraph(h.v, tuple(first for first, _ in pair_opposites(red_masks, h.v)))


def paper_example() -> Hypergraph:
    """The 16-vertex example: 20 affine-plane 4-edges plus 60 derived 8-edges.

    Not 2-colourable, with weight 95/64 -- between 23/16 and 24/16.
    """
    h4 = affine_plane_gf4()
    return union(h4, derive_h8(h4))
