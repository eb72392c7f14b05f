"""Plain-text hypergraph documents.

Grammar: a header line ``p <vertex-count> <edge-count>`` followed by one
edge per line as strictly increasing 0-based vertex indices separated by
single spaces.  Lines starting with ``#`` are comments; writers never emit
them.  Files are canonical: newline-terminated lines, no trailing
whitespace, edges in canonical order, duplicate edge lines rejected rather
than collapsed.  The vertex count may not exceed ``MAX_VERTICES`` (4096):
each edge is held as a v-bit mask, so the cap bounds the memory one edge
line can claim.

Readers accept edge lines in any order.  Reading and writing a canonical
document are linear in its length: `serialize` and `_read_columns` convert
whole columns by table, not vertex by vertex, and a canonical document's
masks arrive in canonical order, which `Hypergraph` keeps without sorting.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, repeat
from operator import lt

from propb._bits import mask_of
from propb.core import Hypergraph


MAX_VERTICES = 4096

# Edge lines per columnar pass: bounds the token lists of one pass, so a
# long document is never split into tokens all at once.
_CHUNK_LINES = 1024


class DocumentError(ValueError):
    """Malformed hypergraph document."""


@lru_cache(maxsize=None)
def _byte_names(i: int) -> tuple[str, ...]:
    """Entry b names the vertices 8i..8i+7 whose bits are set in byte b.

    Each name is preceded by a space (entry 0 is empty), so the entries of
    a mask's bytes join to its edge line with one leading space.
    """
    names = [""]
    for b in range(1, 256):
        top = b.bit_length() - 1
        names.append(f"{names[b ^ 1 << top]} {8 * i + top}")
    return tuple(names)


def serialize(h: Hypergraph) -> str:
    """Canonical text form; parse(serialize(h)) == h.

    Column i holds byte i of every mask; it is named through one table in
    a single pass, and row j of the columns joins to edge j's line.  A
    column of zero bytes names nothing, so it is skipped: edges on the top
    vertices of a wide document build and join only the tables they use.
    """
    masks = h.edge_masks
    width = (max(masks, default=0).bit_length() + 7) // 8
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    columns = [
        map(_byte_names(i).__getitem__, column)
        for i in range(width)
        if any(column := data[i::width])
    ]
    lines = [line[1:] for line in map("".join, zip(*columns))]
    return "\n".join([f"p {h.v} {h.edge_count}", *lines]) + "\n"


def parse(text: str) -> Hypergraph:
    """Read a document, validating its header and every edge line.

    Comment and blank lines are skipped.  Edge lines must be strictly
    increasing, in range, of size >= 2, unique, and as many as the header
    promises.  A document in canonical token layout is read by
    `_read_columns`; anything else, and every fault, goes to `_walk_lines`.
    """
    h = _read_columns(text)
    return h if h is not None else _walk_lines(text)


def _read_columns(text: str) -> Hypergraph | None:
    """The hypergraph of a faultless document in canonical token layout, else None.

    Canonical token layout is the header on line 1, then edge lines of
    canonical vertex names joined by single spaces, every line ending in a
    newline.  Each chunk of edge lines is joined and split into tokens in
    one go and mapped to vertex bits; a token the table lacks (an empty one
    too) is a miss.  In a run of lines of k tokens, column i is bits[i::k]
    of the run: each line increases strictly when each column is below the
    next, and then its mask is its row's sum.
    """
    lines = text.split("\n")
    if lines.pop() or not lines:  # no line, or the last one lacks its newline
        return None
    fields = lines[0].split(" ")
    if len(fields) != 3 or fields[0] != "p":
        return None
    try:
        v, m = int(fields[1]), int(fields[2])
    except ValueError:
        return None
    if v < 0 or v > MAX_VERTICES or m != len(lines) - 1:
        return None
    bit_of = {str(u): 1 << u for u in range(v)}
    masks: list[int] = []
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start : start + _CHUNK_LINES]
        try:
            bits = list(map(bit_of.__getitem__, " ".join(chunk).split(" ")))
        except KeyError:
            return None
        at = 0
        for spaces, run in groupby(map(str.count, chunk, repeat(" "))):
            k = spaces + 1
            if k < 2:
                return None
            end = at + len(list(run)) * k
            columns = [bits[i:end:k] for i in range(at, at + k)]
            for column, right in zip(columns, columns[1:]):
                if not all(map(lt, column, right)):
                    return None
            masks += map(sum, zip(*columns))  # distinct bits: the sum is the OR
            at = end
    h = Hypergraph(v, tuple(masks))
    # Hypergraph collapses duplicates, which the walk reports by line.
    return h if len(h.edge_masks) == m else None


def _walk_lines(text: str) -> Hypergraph:
    """Read any document line by line; a fault raises DocumentError naming its line.

    This walk alone reads loose input: comments, blank lines, tabs, CRLF and
    non-canonical vertex names.
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

    # Every token is read by `int` (so ``007`` and ``+1`` are vertices 7 and
    # 1), and the range is checked after the order check, as the messages
    # promise.
    masks: list[int] = []
    seen: set[int] = set()
    for lineno, line in rows[1:]:
        try:
            keys = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DocumentError(f"line {lineno}: non-numeric vertex index") from exc
        if len(keys) < 2:
            raise DocumentError(f"line {lineno}: edge has fewer than 2 vertices")
        prev = keys[0] - 1
        for key in keys:
            if key <= prev:
                raise DocumentError(f"line {lineno}: vertex indices must be strictly increasing")
            prev = key
        if keys[0] < 0 or keys[-1] >= v:
            raise DocumentError(f"line {lineno}: vertex index out of range")
        mask = mask_of(keys)
        if mask in seen:
            raise DocumentError(f"line {lineno}: duplicate edge line")
        seen.add(mask)
        masks.append(mask)
    if len(masks) != m:
        raise DocumentError(f"header promises {m} edges, found {len(masks)}")
    return Hypergraph(v, tuple(masks))

