"""Text document round trips and line-precise parse errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propb import (
    DocumentError,
    affine_plane_gf4,
    check_line,
    fano,
    make_hypergraph,
    paper_example,
    parse,
    serialize,
    seymour_toft,
    triangle,
)
from propb.formats import MAX_VERTICES


def test_triangle_document():
    assert serialize(triangle()) == "p 3 3\n0 1\n0 2\n1 2\n"


def test_example_document_shape():
    doc = serialize(paper_example())
    lines = doc.splitlines()
    assert len(lines) == 81
    assert lines[0] == "p 16 80"
    assert doc.endswith("\n")


def test_named_round_trips():
    for build in (triangle, fano, seymour_toft, affine_plane_gf4, paper_example):
        h = build()
        doc = serialize(h)
        assert parse(doc) == h
        assert serialize(parse(doc)) == doc


@st.composite
def hypergraphs(draw):
    v = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.lists(
            st.frozensets(st.integers(0, v - 1), min_size=2, max_size=v),
            max_size=10,
        )
    )
    return make_hypergraph(v, edges)


@given(hypergraphs())
@settings(max_examples=150)
def test_random_round_trips(h):
    assert parse(serialize(h)) == h


def test_comments_blanks_and_order_are_tolerated():
    doc = "\n# header comment\np 3 3\n\n1 2\n# between edges\n0 2\n0 1\n"
    assert parse(doc) == triangle()
    # edge lines may arrive in any order; members may be spaced loosely
    assert parse("p  3   2\n0 1 2\n0   1\n") == make_hypergraph(3, [{0, 1, 2}, {0, 1}])


def test_parse_errors():
    cases = [
        ("", "empty document"),
        ("# nothing here\n", "empty document"),
        ("q 3 3\n", "header must be"),
        ("p 3\n", "header must be"),
        ("p three 3\n", "non-numeric header"),
        ("p -1 0\n", "negative header"),
        (f"p {MAX_VERTICES + 1} 1\n0 1\n", "exceeds the cap of 4096"),
        ("p 1000000000000 1\n0 1\n", "exceeds the cap of 4096"),
        ("p 3 1\n0 x\n", "non-numeric vertex"),
        ("p 3 1\n0\n", "fewer than 2"),
        ("p 3 1\n1 0\n", "strictly increasing"),
        ("p 3 1\n1 1\n", "strictly increasing"),
        ("p 3 1\n0 3\n", "out of range"),
        ("p 3 1\n-1 2\n", "out of range"),
        ("p 3 2\n0 1\n0 1\n", "duplicate edge line"),
        ("p 3 2\n0 1\n", "promises 2 edges, found 1"),
    ]
    for doc, fragment in cases:
        with pytest.raises(DocumentError, match=fragment):
            parse(doc)
    assert parse(f"p {MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n").v == MAX_VERTICES


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DocumentError, match="line 3"):
        parse("# comment\np 3 1\n0\n")
    assert issubclass(DocumentError, ValueError)


def test_check_line_rendering():
    assert (
        check_line("weight", "95/2^6", "95/2^6", True)
        == "check: weight | expected: 95/2^6 | actual: 95/2^6 | pass: yes"
    )
    assert check_line("weight", "a", "b", False).endswith("| pass: no")
