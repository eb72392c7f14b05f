"""Text document round trips and line-precise parse errors."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propb import (
    DocumentError,
    Hypergraph,
    affine_plane_gf4,
    derive_h8,
    fano,
    make_hypergraph,
    paper_example,
    parse,
    run_alteration,
    serialize,
    seymour_toft,
    triangle,
)
from propb import formats
from propb._bits import bit_indices
from propb.formats import _CHUNK_LINES, MAX_VERTICES


def test_triangle_document():
    assert serialize(triangle()) == "p 3 3\n0 1\n0 2\n1 2\n"


def test_example_document_shape():
    doc = serialize(paper_example())
    lines = doc.splitlines()
    assert len(lines) == 81
    assert lines[0] == "p 16 80"
    assert doc.endswith("\n")


def reference_serialize(h):
    """Per-edge writer: one line of sorted member indices per edge."""
    lines = [f"p {h.v} {h.edge_count}"] + [" ".join(map(str, bit_indices(m))) for m in h.edge_masks]
    return "\n".join(lines) + "\n"


def test_named_round_trips():
    wide = [
        make_hypergraph(4096, [{0, 4095}, {8, 9, 4000}]),  # zero middle bytes
        make_hypergraph(4096, [{4094, 4095}, {17, 18, 20}]),  # each inside one byte
        Hypergraph(0, ()),
        Hypergraph(4096, ()),
    ]
    for h in [build() for build in (triangle, fano, seymour_toft, affine_plane_gf4, paper_example)] + wide:
        doc = serialize(h)
        assert doc == reference_serialize(h)
        assert parse(doc) == h
        assert serialize(parse(doc)) == doc
    assert serialize(Hypergraph(0, ())) == "p 0 0\n"


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
    assert serialize(h) == reference_serialize(h)
    assert parse(serialize(h)) == h


def high_byte_hypergraphs(rng, count):
    """Random edges inside one to three random bytes of a wide vertex range."""
    for _ in range(count):
        v = 8 * rng.randrange(1, MAX_VERTICES // 8 + 1)
        spots = rng.sample(range(v // 8), rng.randrange(1, min(v // 8, 3) + 1))
        pool = [u for i in spots for u in range(8 * i, 8 * i + 8)]
        edges = [rng.sample(pool, rng.randrange(2, 7)) for _ in range(rng.randrange(1, 12))]
        yield make_hypergraph(v, edges)


def test_serialize_names_only_the_nonzero_byte_columns():
    paper = tuple(m << 4080 for m in paper_example().edge_masks)
    h8 = tuple(m << 4080 for m in derive_h8(affine_plane_gf4()).edge_masks)
    ci_documents = [
        Hypergraph(MAX_VERTICES, paper),
        Hypergraph(MAX_VERTICES, (6,) + tuple(6 | 1 << u for u in range(3, 43)) + paper),
        Hypergraph(MAX_VERTICES, h8),
    ]
    cases = [*ci_documents, *high_byte_hypergraphs(random.Random(35), 60), Hypergraph(MAX_VERTICES, ())]
    for h in cases:
        formats._byte_names.cache_clear()
        assert serialize(h) == reference_serialize(h)
        nonzero = {u // 8 for m in h.edge_masks for u in bit_indices(m)}
        assert formats._byte_names.cache_info().currsize == len(nonzero)
    # the shifted paper example lies in the top two bytes of 512
    formats._byte_names.cache_clear()
    serialize(ci_documents[0])
    assert formats._byte_names.cache_info().currsize == 2


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
        # more than one fault on a line: the order check fires before the range check
        ("p 3 1\n0 0 5\n", "line 2: vertex indices must be strictly increasing"),
        ("p 3 1\n2 1 -1\n", "line 2: vertex indices must be strictly increasing"),
        ("p 3 1\n007 1\n", "line 2: vertex indices must be strictly increasing"),
        ("p 3 2\n0 1\n00 01\n", "line 3: duplicate edge line"),
        # a duplicate line that the promised count would hide once collapsed
        ("p 3 2\n0 1\n0 2\n0 1\n", "line 4: duplicate edge line"),
    ]
    for doc, fragment in cases:
        with pytest.raises(DocumentError, match=fragment):
            parse(doc)
    assert parse(f"p {MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n").v == MAX_VERTICES
    # tokens int() reads but a writer never emits are still accepted
    assert parse("p 3 1\n+0 2\n") == make_hypergraph(3, [{0, 2}])
    assert parse("p 3 1\n00 1\n") == make_hypergraph(3, [{0, 1}])


def reference_parse(text):
    """The line-by-line parser: int() per token, checks in message order."""
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise DocumentError("empty document")
    lineno, header = rows[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "p":
        raise DocumentError(f"line {lineno}: header must be 'p <vertices> <edges>'")
    try:
        v, m = int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise DocumentError(f"line {lineno}: non-numeric header field") from exc
    if v < 0 or m < 0:
        raise DocumentError(f"line {lineno}: negative header field")
    if v > MAX_VERTICES:
        raise DocumentError(f"line {lineno}: vertex count {v} exceeds the cap of {MAX_VERTICES}")
    edges = []
    seen = set()
    for lineno, line in rows[1:]:
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DocumentError(f"line {lineno}: non-numeric vertex index") from exc
        if len(members) < 2:
            raise DocumentError(f"line {lineno}: edge has fewer than 2 vertices")
        for a, b in zip(members, members[1:]):
            if a >= b:
                raise DocumentError(f"line {lineno}: vertex indices must be strictly increasing")
        if members[0] < 0 or members[-1] >= v:
            raise DocumentError(f"line {lineno}: vertex index out of range")
        key = tuple(members)
        if key in seen:
            raise DocumentError(f"line {lineno}: duplicate edge line")
        seen.add(key)
        edges.append(members)
    if len(edges) != m:
        raise DocumentError(f"header promises {m} edges, found {len(edges)}")
    return make_hypergraph(v, edges)


FAULTS = (
    None,
    "non-numeric",
    "single vertex",
    "repeat",
    "decrease",
    "out of range",
    "negative",
    "decrease and out of range",
    "duplicate",
    "count",
    "header",
)


def break_line(members, fault, v, rng):
    """The edge `members` (ints) with one of the FAULTS that act on a line."""
    e = list(members)
    if fault == "non-numeric":
        e[rng.randrange(len(e))] = rng.choice(["x", "1.5", "0x1", "--1"])
    elif fault == "single vertex":
        e = e[:1]
    elif fault == "repeat":
        j = rng.randrange(len(e))
        e.insert(j, e[j])
    elif fault == "decrease":
        e.reverse()
    elif fault == "out of range":
        e.append(rng.randint(v, v + 3))
    elif fault == "negative":
        e.insert(0, -rng.randint(1, 3))
    elif fault == "decrease and out of range":
        e = [rng.choice([-1, v])] + e[::-1]
    return e


@st.composite
def loose_documents(draw):
    """A document as a person might write it: edge lines shuffled, comments,
    blank lines, loose spacing, tab separators, CRLF endings, tokens such as
    ``007``, ``+3`` and ``1_2``, plus at most one injected fault.  One kind of fault
    puts two errors on one line: the first check to fire must win."""
    v = draw(st.integers(min_value=2, max_value=20))
    edges = draw(
        st.lists(
            st.frozensets(st.integers(0, v - 1), min_size=2, max_size=min(v, 8)),
            unique=True,
            max_size=12,
        )
    )
    fault = draw(st.sampled_from(FAULTS))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    lines = [sorted(e) for e in edges]
    rng.shuffle(lines)
    m = len(lines)
    if fault == "count":
        m += rng.choice([-1, 1]) if m else 1
    elif fault not in (None, "header"):
        if not lines:
            lines.append([0, 1])
            m += 1
        i = rng.randrange(len(lines))
        if fault == "duplicate":
            lines.insert(rng.randint(0, len(lines)), list(lines[i]))
            m += 1
        else:
            lines[i] = break_line(lines[i], fault, v, rng)

    def spell(u):
        if isinstance(u, str) or u < 0:
            return str(u)
        forms = [str(u)] * 4 + [f"0{u}", f"00{u}", f"+{u}"]
        if u >= 10:
            forms.append(f"{str(u)[0]}_{str(u)[1:]}")
        return rng.choice(forms)

    def gap():
        return rng.choice([" ", " ", " ", "  ", "\t", " \t "])

    def pad():
        return rng.choice(["", "", "", " ", "\t"])

    header = f"p{gap()}{v}{gap()}{m}"
    if fault == "header":
        header = rng.choice([f"p {v}", f"q {v} {m}", f"p {v} x", f"p -{v + 1} {m}"])
    out = []
    for row in [header] + lines:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# comment", "  # 1 2 3", "#"]))
        text = row if isinstance(row, str) else gap().join(spell(u) for u in row)
        out.append(pad() + text + pad())
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(out) + rng.choice(["", newline])


def outcome(read, text):
    try:
        return read(text)
    except DocumentError as exc:
        return str(exc)


@given(loose_documents())
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_parser(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@st.composite
def canonical_documents(draw):
    """`serialize` output with at most one injected fault: one of FAULTS, a
    line out of canonical order, the edge lines in descending size order, a
    fault on the first line of the columnar reader's second chunk, or a size
    change across that chunk boundary.  Some documents have 4096 vertices
    with every member inside a window; some are longer than one chunk."""
    shape = draw(st.sampled_from(["small", "wide", "long"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if shape == "small":
        v = rng.randint(2, 20)
        window, count = range(v), rng.randint(0, 12)
    elif shape == "wide":
        v, span = MAX_VERTICES, rng.randint(2, 24)
        start = rng.randrange(v - span + 1)
        window, count = range(start, start + span), rng.randint(1, 12)
    else:
        v = rng.randint(16, 20)
        window, count = range(v), rng.randint(_CHUNK_LINES + 1, _CHUNK_LINES + 200)
    sizes = range(2, min(len(window), 8) + 1)
    edges = [rng.sample(window, rng.choice(sizes)) for _ in range(count)]
    lines = serialize(make_hypergraph(v, edges)).split("\n")
    header, rows = lines[0], [list(map(int, line.split(" "))) for line in lines[1:-1]]
    m = len(rows)
    fault = draw(st.sampled_from(FAULTS + ("out of order", "descending sizes", "boundary size")))
    second = len(rows) > _CHUNK_LINES and draw(st.booleans())
    i = _CHUNK_LINES if second else rng.randrange(len(rows)) if rows else None
    if fault == "header":
        header = rng.choice([f"p {v}", f"q {v} {m}", f"p {v} x", f"p -{v + 1} {m}", f"p  {v} {m}"])
    elif fault == "count":
        header = f"p {v} {m + rng.choice([-1, 1]) if m else 1}"
    elif i is None:
        pass
    elif fault == "duplicate":
        rows.insert(i + 1, rows[i])
        header = f"p {v} {m + 1}"
    elif fault == "out of order":
        j = rng.randrange(len(rows))
        rows[i], rows[j] = rows[j], rows[i]
    elif fault == "descending sizes":
        rows.sort(key=len, reverse=True)
    elif fault == "boundary size":
        rows[i] = sorted(rng.sample(window, rng.choice(sizes)))
    elif fault is not None:
        rows[i] = break_line(rows[i], fault, v, rng)
    return "\n".join([header] + [" ".join(map(str, row)) for row in rows]) + "\n"


@given(canonical_documents())
@settings(max_examples=300, deadline=None)
def test_columnar_reader_matches_reference_parser(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@pytest.fixture
def walks(monkeypatch):
    """Count the texts that `parse` hands to the line walk."""
    seen = []
    walk = formats._walk_lines
    monkeypatch.setattr(formats, "_walk_lines", lambda text: seen.append(text) or walk(text))
    return seen


def test_canonical_documents_skip_the_line_walk(walks):
    wide = Hypergraph(MAX_VERTICES, tuple(m << 4080 for m in paper_example().edge_masks))
    for h in (paper_example(), run_alteration(6, 5)[0], wide):
        assert parse(serialize(h)) == h
    assert walks == []


def test_loose_documents_go_to_the_line_walk(walks):
    doc = serialize(triangle())
    loose = [
        "# comment\n" + doc,
        doc.replace("0 1", "0\t1"),
        doc.replace("\n", "\r\n"),
        doc.replace("\n0 2", "\n\n0 2"),
        doc.replace("0 1", "000 1"),
    ]
    for text in loose:
        assert parse(text) == triangle()
    assert walks == loose


def test_columnar_reader_peak_memory_is_below_the_line_walk():
    """The reader splits one chunk of lines into tokens at a time, so its
    peak stays below the line walk's on a long document."""
    rng = random.Random(20000)
    h = make_hypergraph(26, [rng.sample(range(26), rng.randint(6, 9)) for _ in range(20000)])
    text = serialize(h)
    peaks = []
    for read in (parse, formats._walk_lines):
        tracemalloc.start()
        try:
            assert read(text) == h
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DocumentError, match="line 3"):
        parse("# comment\np 3 1\n0\n")
    assert issubclass(DocumentError, ValueError)
