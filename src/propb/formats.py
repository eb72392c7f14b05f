"""Plain-text hypergraph documents.

Grammar: a header line ``p <vertex-count> <edge-count>`` followed by one
edge per line as strictly increasing 0-based vertex indices separated by
single spaces.  Lines starting with ``#`` are comments; writers never emit
them.  Files are canonical: newline-terminated lines, no trailing
whitespace, edges in canonical order, duplicate edge lines rejected rather
than collapsed.  The vertex count may not exceed ``MAX_VERTICES`` (4096):
each edge is held as a v-bit mask, so the cap bounds the memory one edge
line can claim.
"""

from __future__ import annotations

from propb._bits import mask_members
from propb.core import Hypergraph, make_hypergraph


MAX_VERTICES = 4096


class DocumentError(ValueError):
    """Malformed hypergraph document."""


def serialize(h: Hypergraph) -> str:
    """Canonical text form; parse(serialize(h)) == h."""
    names = [str(u) for u in range(h.v)]
    lines = [f"p {h.v} {h.edge_count}"]
    lines += [" ".join(map(names.__getitem__, mask_members(mask))) for mask in h.edge_masks]
    return "\n".join(lines) + "\n"


def parse(text: str) -> Hypergraph:
    """Read a document, validating shape line by line.

    Comment and blank lines are skipped.  Edge lines must be strictly
    increasing, in range, of size >= 2, unique, and as many as the header
    promises.
    """
    rows: list[tuple[int, str]] = []
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

    edges: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
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


def check_line(name: str, expected: str, actual: str, passed: bool) -> str:
    """One report line for a named check."""
    verdict = "yes" if passed else "no"
    return f"check: {name} | expected: {expected} | actual: {actual} | pass: {verdict}"
