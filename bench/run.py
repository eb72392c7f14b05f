#!/usr/bin/env python3
"""propb benchmark: time to a verified answer from the ``propb`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each op is one in-process ``propb.cli.cli(argv)`` call with stdout captured,
sent by one client in a closed loop (the next op starts when the previous
one has been answered).  A workload's ops form a cycle that is repeated
whole until ``S`` seconds of op time have been measured.  Every op is
checked after its timed window; a wrong answer, a changed stdout for a
repeated argv or an exception counts as failed.  Op times are reported
scaled to a fixed machine speed (see ``speed.py``); raw times are in the
report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops untraced and then traced (see ``tracer.py``) and reports the per-layer
metrics.  The last stdout line is the result object; the line before it is
a report with the run's provenance and per-command latencies.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from checks import Check, Determinism, Oracle, expect_count, expect_paper, is_proper_mask
from speed import Speed, scale
from tracer import Tracer, layer_metrics, root_self_gap

SCHEMA = 1
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100

# Why each workload exists is in README.md.  Cycle sizes are chosen so that a
# cycle averages several instances and seed-to-seed spread stays small.
WORKLOADS = ("alteration-n6", "alteration-n7", "decide", "paper")
N6_CYCLE = 32
N7_CYCLE = 2
DECIDE_PAIRS = 12

Engine = Callable[[list[str]], int]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # argv[0] is the command
    check: Check


@dataclass
class Sample:
    command: str
    seconds: float
    failure: str | None
    start: float = 0.0  # time.monotonic() when the op began
    scaled: float = 0.0  # seconds at the reference speed; see speed.py


def import_propb() -> Any:
    sys.path.insert(0, str(ROOT / "src"))
    import propb
    import propb.cli

    if Path(propb.__file__).resolve().parent != ROOT / "src" / "propb":
        raise ImportError(f"propb was imported from {propb.__file__}, not from src/")
    return propb


def child_import_seconds() -> float:
    """Time to import propb.cli in a fresh interpreter, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); import propb.cli; "
        "print(time.perf_counter() - t)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def alteration_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Seeds in [0, 2**63): random.Random seeds on abs(int), so negatives would repeat."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


def alteration_ops(oracle: Oracle, work: Path, n: int, seeds: list[int]) -> list[Op]:
    ops = []
    for i, s in enumerate(seeds):
        doc = str(work / f"alteration-{i}.txt")
        argv = ("alteration", "--n", str(n), "--seed", str(s), "-o", doc)
        ops.append(Op(argv, oracle.alteration(doc)))
    return ops


def pair_deleted(propb: Any, h: Any, report: Any) -> Any | None:
    """h without the blocking edges of one survivor pair, or None if no pair qualifies.

    The pair's two colourings become proper.  A pair qualifies when no other
    survivor carved either edge and no other blocking edge is monochromatic
    under them, so the result has exactly 2 proper colourings.
    """
    full = (1 << h.v) - 1
    reds = [c.red_mask for c in report.survivors]
    kills = [sum(1 << u for u in e) for e in report.killing_edges]
    index = {r: i for i, r in enumerate(reds)}
    for i, red in enumerate(reds):
        j = index[full ^ red]
        drop = {kills[i], kills[j]}
        if sum(k in drop for k in kills) != 2:
            continue
        rest = tuple(m for m in h.edge_masks if m not in drop)
        if is_proper_mask(rest, red) and is_proper_mask(rest, full ^ red):
            return propb.Hypergraph(h.v, rest)
    return None


def decide_ops(propb: Any, oracle: Oracle, work: Path, seed: int) -> tuple[list[Op], list[int]]:
    docs: list[tuple[str, int]] = []
    used = []
    rng = random.Random(f"decide:{seed}")
    while len(docs) < 2 * DECIDE_PAIRS:
        s = rng.getrandbits(63)
        h, report = propb.run_alteration(6, s)
        reduced = pair_deleted(propb, h, report)
        if reduced is None:
            continue
        used.append(s)
        for name, g, expected in (("out", h, 0), ("pair-deleted", reduced, 2)):
            path = work / f"decide-{len(used)}-{name}.txt"
            path.write_text(propb.serialize(g), encoding="utf-8")
            docs.append((str(path), expected))
    ops = []
    for doc, expected in docs:
        ops.append(Op(("check", doc), oracle.check(doc)))
        ops.append(Op(("count", doc), expect_count(expected)))
    return ops, used


def paper_ops(propb: Any, oracle: Oracle, work: Path, seed: int) -> list[Op]:
    h = propb.paper_example()
    docs = [(work / "paper-example.txt", h, 0)]
    deletions = []
    for i in range(h.edge_count):
        rest = h.edge_masks[:i] + h.edge_masks[i + 1 :]
        deletions.append((work / f"paper-deletion-{i}.txt", propb.Hypergraph(h.v, rest), None))
    random.Random(f"paper:{seed}").shuffle(deletions)
    ops = [Op(("verify-paper",), expect_paper())]
    for path, g, expected in docs + deletions:
        path.write_text(propb.serialize(g), encoding="utf-8")
        ops.append(Op(("check", str(path)), oracle.check(str(path))))
        ops.append(Op(("count", str(path)), expect_count(expected)))
    return ops


def build_cycle(
    workload: str, propb: Any, oracle: Oracle, work: Path, seed: int
) -> tuple[list[Op], list[int]]:
    """One cycle of ops and the alteration seeds behind its inputs."""
    if workload in ("alteration-n6", "alteration-n7"):
        n, count = (6, N6_CYCLE) if workload == "alteration-n6" else (7, N7_CYCLE)
        seeds = alteration_seeds(workload, seed, count)
        return alteration_ops(oracle, work, n, seeds), seeds
    if workload == "decide":
        return decide_ops(propb, oracle, work, seed)
    return paper_ops(propb, oracle, work, seed), []


def invoke(engine: Engine, argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = engine(list(argv))
    return code, out.getvalue()


def run_op(
    op: Op, engine: Engine, determinism: Determinism, tracer: Tracer | None = None, op_id: int = 0
) -> Sample:
    """Time one op, then check its answer outside the timed window."""
    began = time.monotonic()
    start = time.perf_counter()
    try:
        if tracer is None:
            code, stdout = invoke(engine, op.argv)
        else:
            code, stdout = tracer.run_op(op_id, invoke, engine, op.argv)
    except Exception as exc:  # a crash is a failed op, not a crashed benchmark
        failure = f"{type(exc).__name__}: {exc}"
        return Sample(op.argv[0], time.perf_counter() - start, failure, began)
    elapsed = time.perf_counter() - start
    failure = op.check(code, stdout) or determinism.check(op.argv, stdout)
    return Sample(op.argv[0], elapsed, failure, began)


def run_cycles(
    cycle: list[Op], seconds: float, engine: Engine, determinism: Determinism
) -> list[Sample]:
    """Whole cycles, untraced, until `seconds` of op time are measured."""
    samples: list[Sample] = []
    while not samples or sum(s.seconds for s in samples) < seconds:
        samples.extend(run_op(op, engine, determinism) for op in cycle)
    return samples


def latency(values: list[float]) -> dict[str, float | int]:
    """Median, and p90 only when there are at least P90_MIN_SAMPLES values."""
    out: dict[str, float | int] = {"samples": len(values), "p50_s": statistics.median(values)}
    if len(values) >= P90_MIN_SAMPLES:
        out["p90_s"] = statistics.quantiles(values, n=10)[8]
    return out


def per_command(samples: list[Sample]) -> dict[str, dict[str, float | int]]:
    by: dict[str, list[float]] = {}
    for s in samples:
        by.setdefault(s.command, []).append(s.seconds)
    return {cmd: latency(values) for cmd, values in sorted(by.items())}


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    try:
        propb = import_propb()
    except ImportError as exc:
        print(f"error: cannot import propb from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, propb, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, propb: Any, work: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        start = time.perf_counter()
        oracle = Oracle(propb)
        cycle, seeds = build_cycle(args.workload, propb, oracle, work, args.seed)
        setups.append(imported + time.perf_counter() - start)

    cli_module = sys.modules["propb.cli"]

    def engine(argv: list[str]) -> int:
        return cli_module.cli(argv)  # looked up per call, so a traced binding is used

    determinism = Determinism()
    traced: list[Sample] = []
    with Speed() as speed:
        samples = run_cycles(cycle, args.seconds, engine, determinism)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                for i in range(len(samples)):
                    traced.append(run_op(cycle[i % len(cycle)], engine, determinism, tracer, i))
            finally:
                tracer.restore()
        reference = speed.samples()
    scale(samples + traced, reference)
    cycles = [samples[i : i + len(cycle)] for i in range(0, len(samples), len(cycle))]
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "alteration_seeds": seeds,
        "cycles": len(cycles),
        "commands": per_command(samples),
        "raw_cycle_p50_s": statistics.median(sum(s.seconds for s in c) for c in cycles),
        "raw_ops_per_s": len(samples) / sum(s.seconds for s in samples),
        "reference_s": statistics.median(c for _, c in reference),
    }

    if args.trace:
        metrics = {
            name: metric(value, unit_of(name)) for name, value in layer_metrics(tracer).items()
        }
        overhead = sum(s.scaled for s in traced) / sum(s.scaled for s in samples)
        metrics["trace_overhead"] = metric(overhead, "ratio")
        gap = root_self_gap(tracer)
        report["root_self_gap_s"] = gap
        report["spans"] = str(write_spans(args, tracer).relative_to(ROOT))
        consistent = gap < 1e-6
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "scaled_ops_per_s": metric(len(samples) / sum(s.scaled for s in samples), "1/s"),
            "scaled_cycle_p50_s": metric(
                statistics.median(sum(s.scaled for s in c) for c in cycles), "s"
            ),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        consistent = True

    samples += traced
    failures = [s.failure for s in samples if s.failure]
    report["failures"] = failures[:10]
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not failures and consistent,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    kind = name.rsplit(".", 1)[-1]
    if kind.endswith("_s"):
        return "s"
    if kind == "ns_per_colouring":
        return "ns"
    if kind == "bytes":
        return "B"
    if kind in ("decide_over_count", "trace_overhead"):
        return "ratio"
    return "count"


def write_spans(args: argparse.Namespace, tracer: Tracer) -> Path:
    """All spans of the traced run, times relative to its first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[n, a - t0, b - t0, p, op] for n, a, b, p, op in tracer.spans]
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}))
    return path


if __name__ == "__main__":
    sys.exit(main())
