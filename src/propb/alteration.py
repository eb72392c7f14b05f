"""Randomized construction of non-2-colourable hypergraphs with small weight.

`run_alteration` is the construction, and its parameters and trace are
records.  The rest of the module is its exact arithmetic: the
monochromatic-edge probabilities and the expected survivor count are
rationals, the weights dyadic, and the classical edge count an integer
ceiling taken in fixed point.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple

from propb._bits import bit_indices
from propb.colouring import ENUM_LIMIT, Colouring, enumerate_proper
from propb.core import DyadicValue, Hypergraph, q_value, union

if TYPE_CHECKING:
    from fractions import Fraction

# floor((e*ln2/4) * 2**256), from 120-digit `decimal` values of e and ln 2.
# Rounding down loses less than n*n*2**n / 2**256 < 2**-150 for n <= 90, far
# under the smallest fractional part of (e*ln2/4) * n*n * 2**n there (0.011,
# at n = 15), so the integer ceiling below is the exact one.
_E_LN2_OVER_4 = 0x78963B3090BE0977B159F9A838444251E7469589C170BFB7277370A11D646D1A

# Retry r of a run reseeds with seed ^ (r * _RESEED_STEP) mod 2**64, so one
# integer seed determines the whole retry sequence.
_RESEED_STEP = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class RetriesExhaustedError(RuntimeError):
    """Strict mode ran out of retries before the survivor threshold was met."""


def derive_seed(seed: int, retry: int) -> int:
    """Seed used for retry number `retry` (retry 0 is the seed itself)."""
    return seed ^ ((_RESEED_STEP * retry) & _MASK64)


def mono_probability(v1: int, v2: int, n: int) -> Fraction:
    """Chance a uniform n-subset of v1+v2 vertices lands inside one class.

    Exact: (C(v1, n) + C(v2, n)) / C(v1+v2, n).
    """
    if n < 1:
        raise ValueError("edge size must be at least 1")
    if v1 < 0 or v2 < 0:
        raise ValueError("class sizes must be nonnegative")
    v = v1 + v2
    if v < n:
        raise ValueError("fewer vertices than the edge size")
    from fractions import Fraction

    return Fraction(math.comb(v1, n) + math.comb(v2, n), math.comb(v, n))


def balanced_probability(v: int, n: int) -> Fraction:
    """mono_probability at the balanced split: 2*C(v/2, n) / C(v, n)."""
    if v % 2:
        raise ValueError("vertex count must be even")
    return mono_probability(v // 2, v // 2, n)


def erdos_edge_count(n: int) -> int:
    """Classical first-moment edge count, ceil((e*ln2/4) * n*n * 2**n), for 2 <= n <= 90."""
    if not 2 <= n <= 90:
        raise ValueError(f"edge size {n} is outside 2..90, where the edge count is exact")
    return -(-_E_LN2_OVER_4 * (n * n << n) >> 256)


def halved_edge_count(n: int) -> int:
    """Half the classical count, rounded up; what the pipeline actually samples."""
    return (erdos_edge_count(n) + 1) // 2


def expected_survivor_count(v: int, n: int, m: int) -> Fraction:
    """Exact expected number of proper colourings of m uniform n-edges on v vertices.

    The expectation of `sample_uniform_edges(v, n, m, seed)`'s census over
    seeds.  A colouring with k red vertices survives one edge with chance
    (D - C(k, n) - C(v-k, n)) / D, D = C(v, n), so the sum over colourings
    is one integer over D**m.
    """
    if n < 2:
        raise ValueError("edge size must be at least 2")
    if v < n:
        raise ValueError("fewer vertices than the edge size")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    from fractions import Fraction

    d = math.comb(v, n)
    total = sum(
        math.comb(v, k) * (d - math.comb(k, n) - math.comb(v - k, n)) ** m for k in range(v + 1)
    )
    return Fraction(total, d**m)


def sample_uniform_edges(v: int, n: int, m: int, seed: int) -> Hypergraph:
    """m independent uniform n-subsets of {0..v-1}; duplicates collapse.

    Each draw is a partial Fisher-Yates shuffle of the vertex pool, so every
    n-subset is equally likely.  Position i swaps with i + r, where r is
    `getrandbits(k)` for the bit length k of the span v - i, redrawn while
    r >= v - i.  That is how `Random.randrange(i, v)` draws on CPython
    3.10-3.13, without its call overhead, so the hypergraph depends on the
    seed only through `random.Random(seed).getrandbits`.  Negative seeds are
    rejected: random.Random seeds on abs(seed), so -s would repeat s.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if n < 2:
        raise ValueError("edge size must be at least 2")
    if v < n:
        raise ValueError("fewer vertices than the edge size")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    getrandbits = random.Random(seed).getrandbits
    spans = [(i, v - i, (v - i).bit_length()) for i in range(n)]
    pool = [1 << u for u in range(v)]
    masks = []
    for _ in range(m):
        for i, span, k in spans:
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            j = i + r
            pool[i], pool[j] = pool[j], pool[i]
        masks.append(sum(pool[:n]))
    return Hypergraph(v, tuple(masks))


class AlterationParams(NamedTuple):
    """Derived parameters of one pipeline run; `for_edge_size` builds and checks them."""

    n: int
    v: int
    m_prime: int
    big_edge_size: int
    survivor_threshold: int
    seed: int
    max_retries: int
    strict: bool

    @classmethod
    def for_edge_size(
        cls, n: int, seed: int, max_retries: int = 50, strict: bool = False
    ) -> "AlterationParams":
        """Parameters for smallest edge size n.

        The blocking edge size is ceil(n*n/4) with a floor of 2 (the floor
        only binds at n = 2, where a 1-vertex edge would be degenerate), and
        v is twice that, so half the vertices always carry one colour and a
        blocking edge can be carved from the majority class.  Negative seeds
        are rejected: random.Random seeds on abs(seed), so -s would repeat s.
        An n outside 2..90 is refused by `halved_edge_count`.
        """
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        big = max(2, (n * n + 3) // 4)
        return cls(
            n=n,
            v=2 * big,
            m_prime=halved_edge_count(n),
            big_edge_size=big,
            survivor_threshold=1 << big,
            seed=seed,
            max_retries=max_retries,
            strict=strict,
        )


class AlterationReport(NamedTuple):
    """Full trace of one pipeline run.

    survivor_masks lists the red masks of h1's proper colourings (the census
    order), and killing_masks[i] is the blocking edge carved for
    survivor_masks[i]; the edges collapse into h2, and the returned
    hypergraph is union(h1, h2).
    """

    params: AlterationParams
    retries_used: int
    survivor_count: int
    q_h1: DyadicValue
    q_h2: DyadicValue
    q_total: DyadicValue
    verified_uncolourable: bool
    h1: Hypergraph
    h2: Hypergraph
    survivor_masks: tuple[int, ...]
    killing_masks: tuple[int, ...]

    @property
    def survivors(self) -> tuple[Colouring, ...]:
        """The survivors as `Colouring`s, in census order."""
        return tuple(Colouring(self.params.v, m) for m in self.survivor_masks)

    @property
    def killing_edges(self) -> tuple[frozenset[int], ...]:
        """The blocking edges as vertex sets, in survivor order."""
        return tuple(frozenset(bit_indices(m)) for m in self.killing_masks)


def _blocks_every_survivor(
    h: Hypergraph, h1: Hypergraph, survivor_masks: tuple[int, ...], killing_masks: list[int]
) -> bool:
    """True when h contains h1 and each survivor's own carved edge, monochromatic.

    `survivor_masks` must be the exact census of h1, as red masks.  Then h
    is uncolourable: a colouring that is not a survivor makes some h1 edge
    monochromatic, and a survivor its own blocking edge.  A False answer
    proves nothing.
    """
    edges = set(h.edge_masks)
    return edges.issuperset(h1.edge_masks) and all(
        kill in edges and kill & red in (0, kill)
        for red, kill in zip(survivor_masks, killing_masks, strict=True)
    )


def run_alteration(
    n: int, seed: int, max_retries: int = 50, strict: bool = False
) -> tuple[Hypergraph, AlterationReport]:
    """Build a non-2-colourable hypergraph with smallest edge size n.

    Samples m' = `halved_edge_count(n)` uniform n-edges, lists the proper
    colourings that survive with one census, and adds the lowest-indexed
    half of each survivor's majority colour class (red on ties) as a
    blocking edge, carved by clearing the class's surplus highest members.
    In strict mode the sample is redrawn (derived seeds) until at most
    2**(v/2) colourings survive.  `verified_uncolourable` is
    `_blocks_every_survivor`'s proof from that census; the output is not
    searched again.
    """
    params = AlterationParams.for_edge_size(n, seed, max_retries, strict)
    if params.v > ENUM_LIMIT:
        raise ValueError(
            f"edge size {n} needs {params.v} vertices, above the enumeration limit ({ENUM_LIMIT})"
        )

    for retries_used in range(params.max_retries + 1):
        h1 = sample_uniform_edges(params.v, n, params.m_prime, derive_seed(seed, retries_used))
        report = enumerate_proper(h1, materialize=True)
        if not strict or report.total_proper <= params.survivor_threshold:
            break
    else:
        raise RetriesExhaustedError(
            f"survivor count stayed above {params.survivor_threshold} "
            f"after {params.max_retries} retries (n={n}, seed={seed})"
        )
    survivors = report.red_masks

    v = params.v
    full = (1 << v) - 1
    killing_masks = []
    for red in survivors:
        mask = red if 2 * red.bit_count() >= v else full ^ red
        for _ in range(mask.bit_count() - params.big_edge_size):
            mask ^= 1 << (mask.bit_length() - 1)
        killing_masks.append(mask)

    h2 = Hypergraph(v, tuple(killing_masks))
    h = union(h1, h2)
    verified = _blocks_every_survivor(h, h1, survivors, killing_masks)
    # Each blocking edge is monochromatic under a proper colouring of h1, so
    # none is an h1 edge: h1 and h2 are disjoint and their weights add.
    q_h1, q_h2 = q_value(h1), q_value(h2)
    report = AlterationReport(
        params=params,
        retries_used=retries_used,
        survivor_count=len(survivors),
        q_h1=q_h1,
        q_h2=q_h2,
        q_total=q_h1 + q_h2,
        verified_uncolourable=verified,
        h1=h1,
        h2=h2,
        survivor_masks=survivors,
        killing_masks=tuple(killing_masks),
    )
    return h, report
