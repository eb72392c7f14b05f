"""Record and value types: construction, repr, hash, equality, immutability, copying.

The reprs and hashes were recorded when these types were frozen dataclasses;
they must not change.  Hash values of records holding strings or None vary
between processes, so those are checked against the field tuple instead.
"""

import copy
import pickle

import pytest

from propb import AlterationParams, Colouring, DyadicValue, Hypergraph
from propb.alteration import AlterationReport
from propb.analysis import CheckEntry, DesignCheckResult, VerificationReport
from propb.colouring import EnumerationReport

PARAMS = dict(
    n=2, v=4, m_prime=5, big_edge_size=2, survivor_threshold=4, seed=7, max_retries=50, strict=False
)
PARAMS_REPR = (
    "AlterationParams(n=2, v=4, m_prime=5, big_edge_size=2, survivor_threshold=4, "
    "seed=7, max_retries=50, strict=False)"
)
ENTRY = dict(name="weight", expected="95/2^6", actual="95/2^6", passed=True)
ENTRY_REPR = "CheckEntry(name='weight', expected='95/2^6', actual='95/2^6', passed=True)"
ALTERATION = dict(
    params=AlterationParams(**PARAMS),
    retries_used=0,
    survivor_count=2,
    q_h1=DyadicValue(3, 2),
    q_h2=DyadicValue(1, 1),
    q_total=DyadicValue(5, 2),
    verified_uncolourable=True,
    h1=Hypergraph(4, (3, 12)),
    h2=Hypergraph(4, (5, 10)),
    survivor_masks=(5, 10),
    killing_masks=(5, 10),
)
ALTERATION_REPR = (
    f"AlterationReport(params={PARAMS_REPR}, retries_used=0, survivor_count=2, "
    "q_h1=DyadicValue(numerator=3, exponent=2), q_h2=DyadicValue(numerator=1, exponent=1), "
    "q_total=DyadicValue(numerator=5, exponent=2), verified_uncolourable=True, "
    "h1=Hypergraph(v=4, edge_masks=(3, 12)), h2=Hypergraph(v=4, edge_masks=(5, 10)), "
    "survivor_masks=(5, 10), killing_masks=(5, 10))"
)

# (type, keyword arguments in field order, repr, hash or None when it varies by process)
CASES = [
    (DyadicValue, dict(numerator=15, exponent=6), "DyadicValue(numerator=15, exponent=6)", -3263356544052229901),
    (DyadicValue, dict(numerator=30, exponent=7), "DyadicValue(numerator=15, exponent=6)", -3263356544052229901),
    (Hypergraph, dict(v=3, edge_masks=(3, 5, 6)), "Hypergraph(v=3, edge_masks=(3, 5, 6))", -1457054945000286943),
    (Hypergraph, dict(v=3, edge_masks=[6, 5, 3]), "Hypergraph(v=3, edge_masks=(3, 5, 6))", -1457054945000286943),
    (Colouring, dict(v=3, red_mask=5), "Colouring(v=3, red_mask=5)", 7586885779985432798),
    (AlterationParams, PARAMS, PARAMS_REPR, -2608880352762832015),
    (
        EnumerationReport,
        dict(total_proper=6, red_masks=(1, 2, 3, 4, 5, 6)),
        "EnumerationReport(total_proper=6, red_masks=(1, 2, 3, 4, 5, 6))",
        -9200057324369892680,
    ),
    (AlterationReport, ALTERATION, ALTERATION_REPR, 4459031210497688194),
    (
        DesignCheckResult,
        dict(t=2, point_count=7, block_count=6, block_size=3, lam=None, counterexample=frozenset({0, 1})),
        "DesignCheckResult(t=2, point_count=7, block_count=6, block_size=3, lam=None, "
        "counterexample=frozenset({0, 1}))",
        None,
    ),
    (CheckEntry, ENTRY, ENTRY_REPR, None),
    (
        VerificationReport,
        dict(checks=(CheckEntry(**ENTRY),), q_total=DyadicValue(95, 6)),
        f"VerificationReport(checks=({ENTRY_REPR},), q_total=DyadicValue(numerator=95, exponent=6))",
        None,
    ),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(CASES)]
VALUE_TYPES = (DyadicValue, Hypergraph, Colouring)


@pytest.mark.parametrize(("cls", "fields", "text", "hashed"), CASES, ids=IDS)
def test_record_semantics(cls, fields, text, hashed):
    value = cls(*fields.values())
    assert value == cls(**fields)
    assert repr(value) == text
    values = tuple(getattr(value, field) for field in fields)
    assert hash(value) == (hash(values) if hashed is None else hashed)
    assert not value != cls(**fields)

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert tuple(getattr(value, field) for field in fields) == values

    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == text


@pytest.mark.parametrize("cls", VALUE_TYPES)
def test_value_types_are_not_tuples(cls):
    assert not issubclass(cls, tuple)
    value = next(cls(**fields) for c, fields, _, _ in CASES if c is cls)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_values_of_different_types_are_unequal():
    # Same field values, different classes.
    c, d = Colouring(3, 5), DyadicValue(3, 5)
    assert c.__eq__(d) is NotImplemented
    assert c != d and d != c
    assert c != (3, 5) and Hypergraph(2, (3,)) != (2, (3,))
    assert {c, d, Colouring(v=3, red_mask=5)} == {c, d}
    with pytest.raises(TypeError):
        Hypergraph(3, (3,)) + Hypergraph(3, (6,))


def test_records_keep_their_defaults_and_properties():
    assert EnumerationReport(0) == EnumerationReport(0, None)
    assert EnumerationReport(2, (1, 2)).colourings == (Colouring(2, 1), Colouring(2, 2))
    report = AlterationReport(**ALTERATION)
    assert report.survivors == (Colouring(4, 5), Colouring(4, 10))
    assert report.killing_edges == (frozenset({0, 2}), frozenset({1, 3}))
    assert VerificationReport((CheckEntry(**ENTRY),), DyadicValue(95, 6)).passed
    assert not VerificationReport((CheckEntry("x", "1", "2", False),), DyadicValue(0)).passed
