"""Tests of the benchmark itself: python -m pytest bench -q"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Determinism, Oracle, expect_count, lex_first  # noqa: E402
from speed import REFERENCE_S, scale  # noqa: E402
from tracer import Tracer, layer_metrics, root_self_gap  # noqa: E402

propb = run.import_propb()
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result_of(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_p90_needs_100_samples():
    assert "p90_s" not in run.latency([0.1] * 99)
    short = run.latency([0.1] * 99 + [0.2])
    assert short["samples"] == 100 and "p90_s" in short


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"] for m in SPEC["per_layer"]} == {*layer_metrics(Tracer()), "trace_overhead"}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_paper_run_reports_every_metric(capsys):
    report, result = result_of(capsys, "--workload", "paper", "--seed", "3", "--seconds", "0.1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 163
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert report["commands"]["check"]["samples"] == 81
    _, traced = result_of(capsys, "--workload", "paper", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["analysis.design_check.subsets"]["value"] == 560


def fake(stdout, code=0):
    def engine(argv):
        print(stdout, end="")
        return code

    return engine


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "edge3.txt"
    path.write_text("p 3 1\n0 1 2\n", encoding="utf-8")
    return str(path)


def check_op(doc):
    return run.Op(("check", doc), Oracle(propb).check(doc))


def test_check_accepts_the_real_engine(doc):
    assert run.run_op(check_op(doc), propb.cli.cli, Determinism()).failure is None


@pytest.mark.parametrize(
    "stdout",
    [
        "COLOURABLE red: 1\n",  # proper, but not lex-first
        "COLOURABLE red: 0 1 2\n",  # not proper
        "UNCOLOURABLE\n",
        "COLOURABLE red: two\n",
        "",
    ],
)
def test_check_rejects_a_wrong_witness(doc, stdout):
    assert run.run_op(check_op(doc), fake(stdout), Determinism()).failure is not None


@pytest.mark.parametrize(
    "expected, wrong, right",
    [(6, "5\n", "6\n"), (6, "6 \n7\n", "6\n"), (None, "0\n", "6\n"), (0, "2\n", "0\n")],
)
def test_count_rejects_a_wrong_count(doc, expected, wrong, right):
    op = run.Op(("count", doc), expect_count(expected))
    assert run.run_op(op, fake(wrong), Determinism()).failure is not None
    assert run.run_op(op, fake(right), Determinism()).failure is None


def test_failed_exit_code_and_crash_count_as_failed(doc):
    op = run.Op(("count", doc), expect_count(6))
    assert run.run_op(op, fake("6\n", code=1), Determinism()).failure is not None

    def crash(argv):
        raise MemoryError

    assert run.run_op(op, crash, Determinism()).failure is not None


def test_repeated_argv_must_repeat_stdout(doc):
    op = run.Op(("count", doc), expect_count(None))
    det = Determinism()
    assert run.run_op(op, fake("6\n"), det).failure is None
    assert run.run_op(op, fake("7\n"), det).failure is not None


def test_lex_first_prefers_vertex_0_blue():
    # vertex order 0,1,2 with blue < red: {2} red comes before {1} red and {0} red
    assert lex_first([0b001, 0b010, 0b100, 0b110], 3) == 0b100


def test_alteration_seeds_are_in_range_and_repeatable():
    seeds = run.alteration_seeds("alteration-n6", 7, 50)
    assert seeds == run.alteration_seeds("alteration-n6", 7, 50)
    assert all(0 <= s < 1 << 63 for s in seeds)


def test_pair_deleted_output_has_exactly_two_colourings():
    h, report = propb.run_alteration(4, 11)
    reduced = run.pair_deleted(propb, h, report)
    assert reduced is not None
    assert propb.enumerate_proper(reduced).total_proper == 2


def test_tracer_restores_bindings_and_self_times_add_up(doc):
    originals = {m: dict(vars(sys.modules[m])) for m in sys.modules if m.split(".")[0] == "propb"}
    tracer = Tracer()
    tracer.install()
    assert propb.cli.cli is not originals["propb.cli"]["cli"]
    try:
        code, out = tracer.run_op(0, run.invoke, lambda a: propb.cli.cli(a), ("check", doc))
    finally:
        tracer.restore()
    assert (code, out) == (0, "COLOURABLE red: 2\n")
    for name, before in originals.items():
        assert dict(vars(sys.modules[name])) == before
    assert [s[0] for s in tracer.spans][:3] == ["op", "cli.cli", "formats.parse"]
    assert root_self_gap(tracer) < 1e-9
    metrics = layer_metrics(tracer)
    assert metrics["colouring.is_two_colourable.colourable"] == 1
    assert metrics["formats.parse.bytes"] == len("p 3 1\n0 1 2\n")


def test_scale_uses_the_reference_around_each_op():
    reference = [(t / 4, REFERENCE_S * (2 if t >= 40 else 1)) for t in range(80)]
    fast = run.Sample("count", 1.0, None, start=2.0)
    slow = run.Sample("count", 1.0, None, start=15.0)
    late = run.Sample("count", 1.0, None, start=100.0)  # no timing within the window
    scale([fast, slow, late], reference)
    assert fast.scaled == pytest.approx(1.0)
    assert slow.scaled == pytest.approx(0.5)
    assert late.scaled == pytest.approx(0.5)
