"""Command-line workbench.

The subcommands are the keys of `COMMANDS`.  Exit code 0 when the operation
succeeds and every check passes, 1 when a check fails, 2 on usage or input
errors.

Stdout is deterministic for a given argv (and seed); wall-clock timing goes
to stderr so identical runs stay byte-identical on the comparison surface.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from propb.alteration import RetriesExhaustedError, run_alteration
from propb.analysis import design_check, verify_paper_example
from propb.colouring import enumerate_proper, is_two_colourable
from propb.constructions import (
    affine_plane_gf4,
    derive_h8,
    fano,
    paper_example,
    seymour_toft,
    triangle,
)
from propb.core import Hypergraph, q_value
from propb.formats import parse, serialize

CONSTRUCTIONS: dict[str, Callable[[], Hypergraph]] = {
    "triangle": triangle,
    "fano": fano,
    "seymour-toft": seymour_toft,
    "h4": affine_plane_gf4,
    "h8": lambda: derive_h8(affine_plane_gf4()),
    "paper-example": paper_example,
}


def _read(path: str) -> Hypergraph:
    return parse(Path(path).read_text(encoding="utf-8"))


def _emit(doc: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(doc)
    else:
        Path(output).write_text(doc, encoding="utf-8")


def _cmd_construct(args: argparse.Namespace) -> int:
    _emit(serialize(CONSTRUCTIONS[args.name]()), args.output)
    return 0


def _cmd_q(args: argparse.Namespace) -> int:
    value = q_value(_read(args.file))
    print(f"{value} = {value.decimal_str()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    colourable, witness = is_two_colourable(_read(args.file))
    if colourable:
        assert witness is not None
        reds = " ".join(str(u) for u in sorted(witness.red))
        print(f"COLOURABLE red: {reds}".rstrip())
    else:
        print("UNCOLOURABLE")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    print(enumerate_proper(_read(args.file)).total_proper)
    return 0


def _cmd_derive_h8(args: argparse.Namespace) -> int:
    _emit(serialize(derive_h8(_read(args.file))), args.output)
    return 0


def _cmd_alteration(args: argparse.Namespace) -> int:
    h, report = run_alteration(args.n, args.seed, args.max_retries, args.strict)
    # The document is written first, so a failed write prints no report.
    if args.output is not None:
        Path(args.output).write_text(serialize(h), encoding="utf-8")
    p = report.params
    print("command: alteration")
    print(f"n: {p.n}")
    print(f"seed: {p.seed}")
    print(f"strict: {'yes' if p.strict else 'no'}")
    print(f"max-retries: {p.max_retries}")
    print(f"vertices: {p.v}")
    print(f"sampled-edges: {p.m_prime}")
    print(f"blocking-edge-size: {p.big_edge_size}")
    print(f"survivor-threshold: {p.survivor_threshold}")
    print(f"retries-used: {report.retries_used}")
    print(f"survivor-count: {report.survivor_count}")
    print(f"distinct-sampled-edges: {report.h1.edge_count}")
    print(f"blocking-edges-added: {h.edge_count - report.h1.edge_count}")
    print(f"total-edges: {h.edge_count}")
    print(f"q-sampled: {report.q_h1} = {report.q_h1.decimal_str()}")
    print(f"q-blocking: {report.q_h2} = {report.q_h2.decimal_str()}")
    print(f"q-total: {report.q_total} = {report.q_total.decimal_str()}")
    print(f"verified-uncolourable: {'yes' if report.verified_uncolourable else 'no'}")
    print(f"status: {'PASS' if report.verified_uncolourable else 'FAIL'}")
    return 0 if report.verified_uncolourable else 1


def _cmd_design_check(args: argparse.Namespace) -> int:
    h = _read(args.file)
    result = design_check(h.edges, h.v, args.t)
    print("command: design-check")
    print(f"input: {args.file}")
    print(f"points: {result.point_count}")
    print(f"blocks: {result.block_count}")
    print(f"block-size: {result.block_size}")
    print(f"t: {result.t}")
    if result.lam is not None:
        print(f"lambda: {result.lam}")
        print("status: PASS")
        return 0
    bad = " ".join(str(u) for u in sorted(result.counterexample or frozenset()))
    print("lambda: -")
    print(f"counterexample: {bad}")
    print("status: FAIL")
    return 1


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = verify_paper_example()
    print("command: verify-paper")
    print("input: builtin")
    for name, expected, actual, passed in report.checks:
        verdict = "yes" if passed else "no"
        print(f"check: {name} | expected: {expected} | actual: {actual} | pass: {verdict}")
    print(f"q-exact: {report.q_total}")
    print(f"q-decimal: {report.q_total.decimal_str()}")
    good = sum(1 for entry in report.checks if entry.passed)
    print(f"checks-passed: {good}/{len(report.checks)}")
    print(f"status: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _add_file(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _add_construct(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=sorted(CONSTRUCTIONS))
    p.add_argument("-o", "--output", help="write to a file instead of stdout")


def _add_derive_h8(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")


def _add_alteration(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="smallest edge size")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--strict", action="store_true", help="retry until the survivor threshold holds")
    p.add_argument("--max-retries", type=int, default=50)
    p.add_argument("-o", "--output", help="write the final hypergraph to a file")


def _add_design_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)


# name -> (help, argument adder, handler), in the order `propb -h` lists them.
COMMANDS: dict[str, tuple[str, Callable[..., None], Callable[..., int]]] = {
    "construct": ("emit a named hypergraph as a document", _add_construct, _cmd_construct),
    "q": ("exact dyadic weight of a hypergraph file", _add_file, _cmd_q),
    "check": ("decide 2-colourability; print a witness if any", _add_file, _cmd_check),
    "count": ("exact number of proper 2-colourings", _add_file, _cmd_count),
    "derive-h8": ("blocking edges for a balanced-colouring input", _add_derive_h8, _cmd_derive_h8),
    "alteration": ("randomized non-2-colourable construction", _add_alteration, _cmd_alteration),
    "design-check": ("test the edges as blocks of a t-design", _add_design_check, _cmd_design_check),
    "verify-paper": ("verify the bundled 16-vertex example", lambda p: None, _cmd_verify_paper),
}


def build_parser() -> argparse.ArgumentParser:
    """The top parser with every command's subparser; see `cli` for when it runs."""
    parser = argparse.ArgumentParser(
        prog="propb",
        description="Exact 2-colourability workbench for non-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        _, add_arguments, handler = COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"propb {name}")
        add_arguments(parser)
        parser.set_defaults(command=name, func=handler)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def cli(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the exit code instead of exiting.

    A call that names a command first is parsed by that command's parser
    alone, built as `build_parser` builds its subparser.  `build_parser()`
    parses a call that names no command, or whose command leaves arguments
    over, so its usage line and errors name every command.  Either way the
    outcome is what `build_parser().parse_args(argv)` gives.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        return args.func(args)
    except RetriesExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed-seconds: {time.monotonic() - started:.3f}", file=sys.stderr)


def main() -> None:
    raise SystemExit(cli())
