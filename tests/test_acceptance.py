"""Acceptance suite: eight criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Each test times itself against the stated budget and checks results exactly;
a FAIL line always precedes the failing assert.
"""

import math
import random
import time
from fractions import Fraction

from propb import (
    DyadicValue,
    affine_plane_gf4,
    balanced_probability,
    derive_h8,
    enumerate_proper,
    expected_survivor_count,
    fano,
    is_edge_critical,
    is_proper,
    is_two_colourable,
    make_hypergraph,
    mono_probability,
    paper_example,
    parse,
    q_value,
    run_alteration,
    serialize,
    seymour_toft,
    triangle,
    verify_paper_example,
)
from propb.cli import cli


def verdict(number, name, passed, elapsed, budget):
    word = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{name}]: {word} ({elapsed:.2f}s, budget {budget:.0f}s)")


def random_hypergraph(rng, max_v):
    v = rng.randint(2, max_v)
    edges = []
    for _ in range(rng.randint(0, 2 * v)):
        size = rng.randint(2, v)
        edges.append(rng.sample(range(v), size))
    return make_hypergraph(v, edges)


def test_criterion_1_sixteen_vertex_example():
    budget = 2.0
    started = time.perf_counter()
    report = verify_paper_example()
    elapsed = time.perf_counter() - started
    ok = (
        report.passed
        and len(report.checks) == 10
        and report.q_total == DyadicValue(95, 6)
        and elapsed < budget
    )
    verdict(1, "verify-paper", ok, elapsed, budget)
    assert report.passed
    assert len(report.checks) == 10
    assert report.q_total == DyadicValue(95, 6)
    assert elapsed < budget


def test_criterion_2_named_constructions():
    budget = 1.0
    started = time.perf_counter()
    facts = []
    for build, v, m, q in (
        (triangle, 3, 3, DyadicValue(3, 2)),
        (fano, 7, 7, DyadicValue(7, 3)),
        (seymour_toft, 11, 23, DyadicValue(23, 4)),
    ):
        h = build()
        facts.append((h.v, h.edge_count) == (v, m))
        facts.append(q_value(h) == q)
        facts.append(enumerate_proper(h).total_proper == 0)
    facts.append(is_edge_critical(triangle()) == (True, None))
    facts.append(is_edge_critical(fano()) == (True, None))
    elapsed = time.perf_counter() - started
    ok = all(facts) and elapsed < budget
    verdict(2, "named-constructions", ok, elapsed, budget)
    assert all(facts)
    assert elapsed < budget


def test_criterion_3_decision_matches_enumeration():
    budget = 30.0
    started = time.perf_counter()
    rng = random.Random(20260401)
    mismatches = 0
    bad_witnesses = 0
    for _ in range(500):
        h = random_hypergraph(rng, 14)
        colourable, witness = is_two_colourable(h)
        if colourable != (enumerate_proper(h).total_proper > 0):
            mismatches += 1
        if colourable and not is_proper(h, witness):
            bad_witnesses += 1
        if witness is None and colourable:
            bad_witnesses += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and bad_witnesses == 0 and elapsed < budget
    verdict(3, "decision-vs-enumeration", ok, elapsed, budget)
    assert mismatches == 0
    assert bad_witnesses == 0
    assert elapsed < budget


def test_criterion_4_balanced_split_is_least_monochromatic():
    budget = 10.0
    started = time.perf_counter()
    violations = 0
    for v in range(2, 41, 2):
        for n in range(1, v + 1):
            q = balanced_probability(v, n)
            for v1 in range(v + 1):
                if mono_probability(v1, v - v1, n) < q:
                    violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < budget
    verdict(4, "convexity", ok, elapsed, budget)
    assert violations == 0
    assert elapsed < budget


def test_criterion_5_alteration_correctness():
    budget = 60.0
    started = time.perf_counter()
    facts = []
    for n in range(2, 7):
        for seed in range(20):
            h, report = run_alteration(n, seed)
            facts.append(enumerate_proper(h).total_proper == 0)
            facts.append(not is_two_colourable(h)[0])
            v = report.params.v
            for red, kill in zip(report.survivor_masks, report.killing_masks):
                facts.append(kill & red in (0, kill))
            facts.append(report.q_h1 == q_value(report.h1))
            facts.append(report.q_h2 == q_value(report.h2))
            facts.append(report.q_total == q_value(h))
    for seed in range(20):
        _, report = run_alteration(4, seed, max_retries=50, strict=True)
        facts.append(report.survivor_count <= 16)
        facts.append(report.retries_used <= 50)
    elapsed = time.perf_counter() - started
    ok = all(facts) and elapsed < budget
    verdict(5, "alteration", ok, elapsed, budget)
    assert all(facts)
    assert elapsed < budget


def test_criterion_6_exact_tracks_asymptotic():
    budget = 5.0
    started = time.perf_counter()
    deviations = {}
    for n in range(10, 41, 2):
        exact = balanced_probability(n * n // 2, n)
        scale = Fraction(2) ** n / 2
        deviations[n] = abs(float(exact * scale) * math.e - 1.0)
    elapsed = time.perf_counter() - started
    ok = all(d <= 0.2 for d in deviations.values()) and deviations[40] < deviations[10]
    ok = ok and elapsed < budget
    verdict(6, "exact-vs-asymptotic", ok, elapsed, budget)
    assert all(d <= 0.2 for d in deviations.values())
    assert deviations[40] < deviations[10]
    assert elapsed < budget


def test_criterion_7_exact_expectation_below_balanced_bound():
    budget = 1.0
    started = time.perf_counter()
    rng = random.Random(77)
    failures = 0
    for _ in range(200):
        v = 2 * rng.randint(2, 20)
        n = rng.randint(2, max(2, min(14, v // 2)))
        m = rng.randint(1, 500)
        expected = expected_survivor_count(v, n, m)
        if not expected < 2**v * (1 - balanced_probability(v, n)) ** m:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < budget
    verdict(7, "survivor-expectation", ok, elapsed, budget)
    assert failures == 0
    assert elapsed < budget


def test_criterion_8_determinism_and_round_trip(capsys):
    budget = 5.0
    started = time.perf_counter()
    h_a, rep_a = run_alteration(4, 7)
    h_b, rep_b = run_alteration(4, 7)
    same_runs = h_a == h_b and rep_a == rep_b and serialize(h_a) == serialize(h_b)

    assert cli(["construct", "paper-example"]) == 0
    out_a = capsys.readouterr().out
    assert cli(["construct", "paper-example"]) == 0
    out_b = capsys.readouterr().out
    same_cli = out_a == out_b

    round_trips = True
    for build in (triangle, fano, seymour_toft, affine_plane_gf4, paper_example):
        h = build()
        round_trips = round_trips and parse(serialize(h)) == h
    h8 = derive_h8(affine_plane_gf4())
    round_trips = round_trips and parse(serialize(h8)) == h8
    rng = random.Random(8)
    for _ in range(50):
        h = random_hypergraph(rng, 12)
        round_trips = round_trips and parse(serialize(h)) == h

    elapsed = time.perf_counter() - started
    ok = same_runs and same_cli and round_trips and elapsed < budget
    verdict(8, "determinism-round-trip", ok, elapsed, budget)
    assert same_runs
    assert same_cli
    assert round_trips
    assert elapsed < budget
