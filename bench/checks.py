"""Checks applied to every op's output after its timed window.

Each check returns None when the output is right and a one-line reason when
it is not.  Expected values come from how the inputs were built (a count of
0, 2 or "positive"), from the census of the same document, or from the
paper's stated facts.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Callable

Check = Callable[[int, str], "str | None"]


def fields(stdout: str) -> dict[str, str]:
    """``key: value`` lines of a report, by key (last one wins)."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def lex_first(red_masks: list[int], v: int) -> int:
    """Red mask of the first colouring in vertex order, vertex 0 first, blue before red."""
    return min(red_masks, key=lambda m: format(m, f"0{v}b")[::-1])


def is_proper_mask(edge_masks: tuple[int, ...], red: int) -> bool:
    for mask in edge_masks:
        hit = mask & red
        if hit == 0 or hit == mask:
            return False
    return True


class Oracle:
    """Documents and their materialized census, read once per path.

    `propb` is the package under test; its parser, weight and census are the
    reference the ``alteration`` and ``check`` outputs are compared against.
    """

    def __init__(self, propb: Any) -> None:
        self.propb = propb
        self._census: dict[str, tuple[Any, tuple[int, ...]]] = {}

    def census(self, path: str) -> tuple[Any, tuple[int, ...]]:
        if path not in self._census:
            h = self.propb.parse(Path(path).read_text(encoding="utf-8"))
            report = self.propb.enumerate_proper(h, materialize=True)
            self._census[path] = (h, tuple(c.red_mask for c in report.colourings))
        return self._census[path]

    def alteration(self, doc: str) -> Check:
        def check(code: int, stdout: str) -> str | None:
            f = fields(stdout)
            if code != 0:
                return f"exit code {code}"
            if f.get("status") != "PASS" or f.get("verified-uncolourable") != "yes":
                return "alteration did not report a verified PASS"
            try:
                h = self.propb.parse(Path(doc).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return f"written document unreadable: {exc}"
            q = str(self.propb.q_value(h))
            if f.get("q-total", "").split(" = ")[0] != q:
                return f"q-total {f.get('q-total')!r} but the document has q = {q}"
            return None

        return check

    def check(self, doc: str) -> Check:
        def check(code: int, stdout: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            h, reds = self.census(doc)
            line = stdout.rstrip("\n")
            if line == "UNCOLOURABLE":
                return "UNCOLOURABLE but the census finds proper colourings" if reds else None
            head, sep, members = line.partition("COLOURABLE red:")
            if head or not sep:
                return f"unreadable verdict {line!r}"
            if not reds:
                return "COLOURABLE but the census finds no proper colouring"
            try:
                red = sum(1 << int(tok) for tok in set(members.split()))
            except ValueError:
                return f"unreadable witness {line!r}"
            if not is_proper_mask(h.edge_masks, red):
                return "witness is not a proper colouring"
            if red != lex_first(list(reds), h.v):
                return "witness is not the lex-first proper colouring"
            return None

        return check


def expect_count(expected: int | None) -> Check:
    """Check a count against `expected`, or against "positive" when None."""

    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            got = int(stdout)
        except ValueError:
            return f"unreadable count {stdout!r}"
        if expected is None:
            return None if got > 0 else f"count {got}, expected positive"
        return None if got == expected else f"count {got}, expected {expected}"

    return check


def expect_paper() -> Check:
    def check(code: int, stdout: str) -> str | None:
        f = fields(stdout)
        if code != 0:
            return f"exit code {code}"
        if f.get("checks-passed") != "10/10" or f.get("q-exact") != "95/2^6":
            return "verify-paper did not pass 10/10 with q = 95/2^6"
        return None

    return check


class Determinism:
    """sha256 of stdout per argv; repetitions of an argv must match byte for byte."""

    def __init__(self) -> None:
        self.digests: dict[tuple[str, ...], str] = {}

    def check(self, argv: tuple[str, ...], stdout: str) -> str | None:
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(argv, digest)
        return None if first == digest else "stdout differs from an earlier run of the same argv"
