"""End-to-end command tests: stdout contracts, exit codes, file round trips."""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from propb import (
    DyadicValue,
    Hypergraph,
    affine_plane_gf4,
    derive_h8,
    make_hypergraph,
    parse,
    run_alteration,
    serialize,
    triangle,
)
from propb.analysis import CheckEntry, VerificationReport
from propb.cli import COMMANDS, build_parser, cli


def run(argv, capsys):
    code = cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_construct_to_stdout(capsys):
    code, out, err = run(["construct", "triangle"], capsys)
    assert code == 0
    assert out == serialize(triangle())
    assert "elapsed-seconds" in err and "elapsed-seconds" not in out


def test_construct_to_file(tmp_path, capsys):
    target = tmp_path / "fano.txt"
    code, out, _ = run(["construct", "fano", "-o", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert parse(target.read_text(encoding="utf-8")).edge_count == 7


def test_q_of_example(tmp_path, capsys):
    path = write_doc(tmp_path, "h.txt", serialize(affine_plane_gf4()))
    code, out, _ = run(["q", path], capsys)
    assert code == 0
    assert out == "5/2^2 = 1.25\n"


def test_check_reports_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "edge.txt", "p 2 1\n0 1\n")
    code, out, _ = run(["check", path], capsys)
    assert (code, out) == (0, "COLOURABLE red: 1\n")


def test_check_reports_uncolourable(tmp_path, capsys):
    target = tmp_path / "pe.txt"
    run(["construct", "paper-example", "-o", str(target)], capsys)
    code, out, _ = run(["check", str(target)], capsys)
    assert (code, out) == (0, "UNCOLOURABLE\n")
    code, out, _ = run(["q", str(target)], capsys)
    assert (code, out) == (0, "95/2^6 = 1.484375\n")


def test_count(tmp_path, capsys):
    edgeless = write_doc(tmp_path, "free.txt", "p 3 0\n")
    assert run(["count", edgeless], capsys)[:2] == (0, "8\n")
    fano_path = tmp_path / "fano.txt"
    run(["construct", "fano", "-o", str(fano_path)], capsys)
    assert run(["count", str(fano_path)], capsys)[:2] == (0, "0\n")


def test_derive_h8_roundtrip(tmp_path, capsys):
    plane = tmp_path / "h4.txt"
    run(["construct", "h4", "-o", str(plane)], capsys)
    code, out, _ = run(["derive-h8", str(plane)], capsys)
    assert code == 0
    assert out == serialize(derive_h8(affine_plane_gf4()))
    target = tmp_path / "h8.txt"
    code, out, _ = run(["derive-h8", str(plane), "-o", str(target)], capsys)
    assert (code, out) == (0, "")
    assert parse(target.read_text(encoding="utf-8")) == derive_h8(affine_plane_gf4())


def test_derive_h8_rejects_unbalanced(tmp_path, capsys):
    path = write_doc(tmp_path, "h.txt", "p 3 1\n0 1 2\n")
    code, _, err = run(["derive-h8", path], capsys)
    assert code == 2
    assert "error:" in err


def test_alteration_report_and_file(tmp_path, capsys):
    target = tmp_path / "alt.txt"
    code, out, _ = run(
        ["alteration", "--n", "4", "--seed", "13", "--strict", "-o", str(target)], capsys
    )
    assert code == 0
    assert "retries-used: 2\n" in out
    assert "survivor-count: 12\n" in out
    assert "verified-uncolourable: yes\n" in out
    assert out.rstrip().endswith("status: PASS")
    h, _ = run_alteration(4, 13, strict=True)
    assert parse(target.read_text(encoding="utf-8")) == h


@pytest.mark.parametrize(
    ("n", "seed", "stdout_sha", "doc_sha"),
    [
        (
            5, 11,
            "e8dad7bf5ea614b36e44a030fff4195e62000e2cfe6e27f3558f1a4854f3afb1",
            "0bace0d9fcc28a9619223926f14616d7e0dfe88f86f27038ca25cb642411775f",
        ),
        (
            6, 3,
            "21878045e0565a57f1ff7f861a8c7750a3bcdff62936c96a1002e99d7ba81e40",
            "7e8884533be39d6683e2c6a55e91f5fe759e7e95a0e429b4062038d9661fba39",
        ),
        (
            7, 5,
            "bbb1f5415bf879358d91e686fde8b20c055b0f9567e4bb60b8f4c2a51f51c51e",
            "c96f9eccf8d4a91c0505c6b017b187f32324ed25908a8e13b1930e13315992c6",
        ),
    ],
)
def test_alteration_output_is_pinned(tmp_path, capsys, n, seed, stdout_sha, doc_sha):
    # any drift in edge order, weights or the verification verdict changes a digest
    target = tmp_path / "alt.txt"
    code, out, _ = run(["alteration", "--n", str(n), "--seed", str(seed), "-o", str(target)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(target.read_bytes()).hexdigest() == doc_sha


def test_verify_paper_output_is_pinned(capsys):
    code, out, _ = run(["verify-paper"], capsys)
    assert code == 0
    digest = "90bbf486b80b5bcac1c59c360745e6fcf74bc816ee9fbf7a0e4eb951598acc66"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_print_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    # The `$ propb` lines of the README's example block, each followed by
    # the output it shows; `| tail -N` keeps the last N lines.
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    block = text[text.index("$ propb construct paper-example") :]
    block = block[: block.index("```")]
    ran = []
    for chunk in block.split("$ propb ")[1:]:
        command, *shown = chunk.split("\n")
        command, _, tail = command.partition(" | tail -")
        code, out, _ = run(command.split(), capsys)
        assert code == 0
        lines = out.splitlines()[-int(tail) :] if tail else out.splitlines()
        assert lines == [line for line in shown if line]
        ran.append(command)
    assert ran == [
        "construct paper-example -o h.txt",
        "q h.txt",
        "alteration --n 4 --seed 13 --strict",
    ]


def readme_block(heading):
    """The lines of the first fenced block under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n") :]
    body = section[section.index("\n", section.index("```")) + 1 :]
    return body[: body.index("```")].splitlines()


def test_readme_names_every_command_and_module():
    commands = [line.split()[1] for line in readme_block("Command line")]
    assert commands == list(COMMANDS)
    modules = [line.split()[0] for line in readme_block("Layout") if line.startswith("  ")]
    package = Path(__file__).resolve().parents[1] / "src" / "propb"
    assert sorted(modules) == sorted(p.name for p in package.glob("*.py"))


def test_alteration_exhaustion_is_exit_1(capsys):
    code, _, err = run(
        ["alteration", "--n", "4", "--seed", "13", "--strict", "--max-retries", "0"], capsys
    )
    assert code == 1
    assert "error:" in err


def test_alteration_over_limit_is_exit_2(capsys):
    code, _, err = run(["alteration", "--n", "9", "--seed", "0"], capsys)
    assert code == 2
    assert "enumeration limit" in err


def test_design_check_pass(tmp_path, capsys):
    fano_path = tmp_path / "fano.txt"
    run(["construct", "fano", "-o", str(fano_path)], capsys)
    code, out, _ = run(["design-check", str(fano_path), "--t", "2"], capsys)
    assert code == 0
    assert "lambda: 1\n" in out
    assert out.rstrip().endswith("status: PASS")


def test_design_check_fail(tmp_path, capsys):
    blocking = tmp_path / "h8.txt"
    run(["construct", "h8", "-o", str(blocking)], capsys)
    # vertex 0 sits in every blocking edge, so already t=1 is uneven
    code, out, _ = run(["design-check", str(blocking), "--t", "1"], capsys)
    assert code == 1
    assert "counterexample:" in out
    assert out.rstrip().endswith("status: FAIL")


def test_design_check_on_blocks_above_4080_idle_points(tmp_path, capsys):
    # no block covers {0, 1}, so the answer is the lowest points of a block,
    # found without a scan over the C(4096, t) subsets before it
    h8 = derive_h8(affine_plane_gf4())
    shifted = Hypergraph(4096, tuple(m << 4080 for m in h8.edge_masks))
    path = write_doc(tmp_path, "shifted-h8.txt", serialize(shifted))
    for t, counterexample in ((2, "4080 4081"), (3, "4080 4081 4082")):
        code, out, _ = run(["design-check", path, "--t", str(t)], capsys)
        assert code == 1
        assert f"counterexample: {counterexample}\n" in out


def test_design_check_bad_t_is_exit_2(tmp_path, capsys):
    fano_path = tmp_path / "fano.txt"
    run(["construct", "fano", "-o", str(fano_path)], capsys)
    code, _, err = run(["design-check", str(fano_path), "--t", "4"], capsys)
    assert code == 2
    assert "error:" in err


def test_verify_paper(capsys):
    code, out, _ = run(["verify-paper"], capsys)
    assert code == 0
    check_lines = [line for line in out.splitlines() if line.startswith("check: ")]
    assert len(check_lines) == 10
    assert all(line.endswith("pass: yes") for line in check_lines)
    assert "q-exact: 95/2^6\n" in out
    assert "q-decimal: 1.484375\n" in out
    assert "checks-passed: 10/10\n" in out
    assert out.rstrip().endswith("status: PASS")


def test_verify_paper_prints_a_failed_check(capsys, monkeypatch):
    report = VerificationReport((CheckEntry("weight", "a", "b", False),), DyadicValue(95, 6))
    monkeypatch.setattr("propb.cli.verify_paper_example", lambda: report)
    code, out, _ = run(["verify-paper"], capsys)
    assert code == 1
    assert "check: weight | expected: a | actual: b | pass: no" in out.splitlines()
    assert out.rstrip().endswith("status: FAIL")


def test_stdout_is_deterministic(capsys):
    first = run(["verify-paper"], capsys)
    second = run(["verify-paper"], capsys)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    alt = ["alteration", "--n", "3", "--seed", "5"]
    assert run(alt, capsys)[1] == run(alt, capsys)[1]


def test_usage_and_io_errors(tmp_path, capsys):
    assert run(["no-such-command"], capsys)[0] == 2
    assert run(["construct", "no-such-name"], capsys)[0] == 2
    assert run(["q", str(tmp_path / "missing.txt")], capsys)[0] == 2
    bad = write_doc(tmp_path, "bad.txt", "p 3 2\n0 1\n")
    code, _, err = run(["count", bad], capsys)
    assert code == 2
    assert "error:" in err
    # An unwritable -o fails before the report, so no PASS reaches stdout.
    unwritable = str(tmp_path / "missing-dir" / "x.txt")
    code, out, err = run(["alteration", "--n", "3", "--seed", "1", "-o", unwritable], capsys)
    assert code == 2
    assert out == ""
    assert one_error_line(err)


@pytest.mark.parametrize("raw", ["6", "abc"])
def test_enumeration_limit_ignores_the_environment(tmp_path, capsys, monkeypatch, raw):
    """The limit is a constant: the variable that once overrode it is ignored."""
    monkeypatch.setenv("PROPB_ENUM_LIMIT", raw)
    fano_path = tmp_path / "fano.txt"
    run(["construct", "fano", "-o", str(fano_path)], capsys)
    assert run(["count", str(fano_path)], capsys)[:2] == (0, "0\n")
    at_limit = write_doc(tmp_path, "v32.txt", "p 32 1\n0 1\n")
    assert run(["count", at_limit], capsys)[:2] == (0, f"{1 << 31}\n")
    past_limit = write_doc(tmp_path, "v33.txt", "p 33 1\n0 1\n")
    code, out, err = run(["count", past_limit], capsys)
    assert (code, out) == (2, "")
    assert one_error_line(err) == (
        "error: 33 vertices exceeds the exhaustive enumeration limit (32); "
        "use is_two_colourable for a decision"
    )


def test_listing_past_its_limit_is_one_error_line(tmp_path, capsys):
    path = write_doc(tmp_path, "v28.txt", "p 28 1\n0 1\n")
    code, out, err = run(["derive-h8", path], capsys)
    assert (code, out) == (2, "")
    assert "count them instead" in one_error_line(err)


def one_error_line(err):
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


def test_past_limit_check_decides_and_count_refuses(tmp_path, capsys):
    cycle = make_hypergraph(40, [{i, (i + 1) % 40} for i in range(40)])
    path = write_doc(tmp_path, "cycle.txt", serialize(cycle))
    code, out, _ = run(["check", path], capsys)
    assert code == 0
    assert out == "COLOURABLE red: " + " ".join(str(u) for u in range(1, 40, 2)) + "\n"
    code, out, err = run(["count", path], capsys)
    assert (code, out) == (2, "")
    assert "exceeds the exhaustive enumeration limit" in one_error_line(err)


def test_hostile_vertex_count_is_one_error_line(tmp_path, capsys):
    path = write_doc(tmp_path, "huge.txt", "p 1000000000000 1\n0 1\n")
    code, out, err = run(["q", path], capsys)
    assert (code, out) == (2, "")
    assert one_error_line(err) == "error: line 1: vertex count 1000000000000 exceeds the cap of 4096"


def test_negative_seed_is_one_error_line(capsys):
    code, out, err = run(["alteration", "--n", "3", "--seed", "-5"], capsys)
    assert (code, out) == (2, "")
    assert one_error_line(err) == "error: seed must be nonnegative"


def test_hostile_edge_size_is_one_error_line(capsys):
    code, out, err = run(["alteration", "--n", "2000", "--seed", "0"], capsys)
    assert (code, out) == (2, "")
    assert one_error_line(err) == "error: edge size 2000 needs 2000000 vertices, above the vertex cap (4096)"


STDLIB_ONLY = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import propb, propb.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before} - {"propb"}
print(" ".join(sorted(loaded - sys.stdlib_module_names)))
print(" ".join(sorted(loaded & {"dataclasses", "inspect", "fractions", "decimal"})))
print(type(propb.mono_probability(4, 4, 2)).__name__, type(propb.DyadicValue(3, 2).as_fraction()).__name__,
      type(propb.expected_survivor_count(8, 4, 61)).__name__)
"""


def test_runtime_imports_are_stdlib_only():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-I", "-c", STDLIB_ONLY, str(src)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    non_stdlib, heavy, built = result.stdout.split("\n")[:3]
    assert non_stdlib == ""
    # Start-up loads neither `dataclasses` nor `fractions`; a Fraction is
    # still what the exact probabilities return, imported where it is built.
    assert (heavy, built) == ("", "Fraction Fraction Fraction")


# Per command: a valid call, -h, a missing argument, a bad int value, an extra
# positional and an unknown option, where the command has such an argument;
# then the `--` separator, `--opt=value`, prefix abbreviation and a negative int.
PARSE_CASES = {
    "construct": [["fano", "-o", "x.txt"], ["-h"], [], ["no-such-name"], ["fano", "extra"], ["fano", "--bogus"]],
    "q": [["h.txt"], ["-h"], [], ["h.txt", "extra"], ["h.txt", "--bogus"], ["h.txt", "--", "x"]],
    "check": [["h.txt"], ["-h"], [], ["h.txt", "extra"], ["h.txt", "--bogus"], ["--", "-h"], ["-x", "--", "y"]],
    "count": [["h.txt"], ["-h"], [], ["h.txt", "extra"], ["h.txt", "--bogus"]],
    "derive-h8": [
        ["h.txt", "-o", "x.txt"], ["-h"], [], ["h.txt", "-o"], ["h.txt", "extra"], ["h.txt", "--bogus"],
        ["h.txt", "--out=y.txt"],
    ],
    "alteration": [
        ["--n", "3", "--seed", "1", "--strict", "--max-retries", "4", "-o", "x.txt"],
        ["-h"],
        ["--n", "3"],
        ["--n", "three", "--seed", "1"],
        ["--n", "3", "--seed", "1", "--max-retries", "1.5"],
        ["--n", "3", "--seed", "1", "extra"],
        ["--n", "3", "--seed", "1", "--bogus"],
        ["--n=3", "--se", "2"],
        ["--n", "-3", "--seed", "1"],
    ],
    "design-check": [
        ["h.txt", "--t", "2"], ["-h"], ["h.txt"], ["h.txt", "--t", "two"],
        ["h.txt", "--t", "2", "extra"], ["h.txt", "--t", "2", "--bogus"],
    ],
    "verify-paper": [[], ["-h"], ["extra"], ["--bogus"], ["--"], ["-h", "x"]],
}
NAMED_ARGV = [[name, *rest] for name, cases in PARSE_CASES.items() for rest in cases]
# argv that name no command, so the full parser answers them.
UNNAMED_ARGV = [[], ["-h"], ["--help"], ["no-such-command"], ["--bogus", "check", "h.txt"], ["Check", "h.txt"]]


def parse_outcome(parser, argv, capsys):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_commands_table_covers_every_command():
    assert sorted(COMMANDS) == sorted(PARSE_CASES)


@pytest.mark.parametrize("argv", NAMED_ARGV, ids=" ".join)
def test_narrowed_parser_parses_like_the_full_one(argv, capsys, monkeypatch):
    """`cli` answers a named call as `build_parser().parse_args` does."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name, (text, add_arguments, _) in list(COMMANDS.items()):
        # One recorder per command, so `func` also says which command ran.
        def record(args):
            seen.append(vars(args))
            return 0

        monkeypatch.setitem(COMMANDS, name, (text, add_arguments, record))
    expected, out, err = parse_outcome(build_parser(), argv, capsys)
    code, cli_out, cli_err = run(argv, capsys)
    if isinstance(expected, dict):
        assert seen == [expected]
        assert (expected["command"], expected["func"]) == (argv[0], COMMANDS[argv[0]][2])
        assert (code, cli_out, out) == (0, "", "")
        assert err == "" and cli_err.startswith("elapsed-seconds: ") and cli_err.count("\n") == 1
    else:  # a usage error or help exits in the parser
        assert seen == []
        assert (code, cli_out, cli_err) == (expected, out, err)


@pytest.mark.parametrize("argv", UNNAMED_ARGV, ids=" ".join)
def test_cli_without_a_command_first_answers_as_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = parse_outcome(build_parser(), argv, capsys)
    assert run(argv, capsys) == (code, out, err)
    assert code in (0, 2)
    usage = out if code == 0 else err
    assert usage.startswith("usage: propb [-h]")
    assert "{construct,q,check,count,derive-h8,alteration,design-check,verify-paper}" in usage


def test_full_parser_errors_name_the_command_argument(capsys):
    assert run([], capsys)[2].endswith("propb: error: the following arguments are required: command\n")
    err = run(["no-such-command"], capsys)[2]
    assert "propb: error: argument command: invalid choice: 'no-such-command'" in err


def count_parsers(monkeypatch):
    """Record the `prog` of every `ArgumentParser` built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return built


FULL = ["propb", *(f"propb {name}" for name in COMMANDS)]


# A call its command's parser accepts builds that parser and no other; a call
# with no command first, or with arguments left over, builds the full parser.
@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["verify-paper"], ["propb verify-paper"]),
        (["check", "missing.txt"], ["propb check"]),
        (["alteration", "-h"], ["propb alteration"]),
        (["-h"], FULL),
        (["no-such-command"], FULL),
        ([], FULL),
        (["check", "missing.txt", "extra"], ["propb check", *FULL]),
        (["verify-paper", "--bogus"], ["propb verify-paper", *FULL]),
    ],
)
def test_cli_builds_only_the_named_subparser(argv, expected, capsys, monkeypatch):
    built = count_parsers(monkeypatch)
    run(argv, capsys)
    assert built == expected


def test_cli_reads_sys_argv_to_choose_the_command(capsys, monkeypatch):
    expected = run(["verify-paper"], capsys)[:2]
    built = count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["propb", "verify-paper"])
    assert run(None, capsys)[:2] == expected
    assert built == ["propb verify-paper"]
