"""Exact rational probabilities against their asymptotic shorthand.

A uniform n-subset of v vertices is monochromatic under a fixed colouring
with probability (C(v1,n) + C(v2,n)) / C(v,n); the balanced split v1 = v2
minimizes this.  At v = n^2/2 the balanced value approaches 2/(e 2^n), and
with exact big-integer binomials we can watch the convergence.  The same
binomials give the exact expected number of colourings that survive m
sampled edges.
"""

import math

from propb import (
    AlterationParams,
    balanced_probability,
    expected_survivor_count,
    mono_probability,
)


def main():
    print("splits of 12 vertices, edge size 3 (balanced is smallest):")
    for v1 in range(0, 13, 2):
        p = mono_probability(v1, 12 - v1, 3)
        print(f"  {v1:2d}+{12 - v1:<2d}: {p} = {float(p):.6f}")
    print()

    print("balanced probability at v = n^2/2 against 2/(e 2^n):")
    for n in range(10, 41, 10):
        exact = float(balanced_probability(n * n // 2, n))
        approx = 2 / (math.e * 2**n)
        print(f"  n = {n:2d}: exact {exact:.3e}, asymptotic {approx:.3e}, "
              f"ratio {exact / approx:.4f}")
    print()

    print("expected survivors when sampling only half the edge budget:")
    for n in (4, 6, 8):
        params = AlterationParams.for_edge_size(n, seed=0)
        v, m = params.v, params.m_prime
        expected = expected_survivor_count(v, n, m)
        print(f"  n = {n}: v = {v}, m = {m}, expected survivors {float(expected):.6g}")


if __name__ == "__main__":
    main()
