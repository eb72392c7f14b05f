"""The 16-vertex example built step by step.

Start from the affine plane of order 4 (16 points, 20 lines of size 4).
Its 120 proper colourings are all balanced 8-8 and come in 60 opposite
pairs; one 8-edge per pair blocks both members.  The union of lines and
blocking edges is non-2-colourable with weight 95/64, which sits strictly
between the Seymour-Toft weight 23/16 and 24/16.
"""

from propb import (
    affine_plane_gf4,
    derive_h8,
    enumerate_proper,
    pair_opposites,
    q_value,
    union,
    verify_paper_example,
)


def main():
    h4 = affine_plane_gf4()
    census = enumerate_proper(h4, materialize=True)
    print(f"plane: {h4.v} points, {h4.edge_count} lines, q = {q_value(h4)}")
    balanced = sum(2 * red.bit_count() == h4.v for red in census.red_masks)
    print(f"proper colourings: {census.total_proper}, balanced: {balanced}")

    pairs = pair_opposites(census.red_masks, h4.v)
    print(f"opposite pairs: {len(pairs)}")
    first, second = ([u for u in range(h4.v) if red >> u & 1] for red in pairs[0])
    print(f"first pair, red sets: {first} / {second}")

    h8 = derive_h8(h4)
    sizes = {len(e) for e in h8.edges}
    print(f"blocking family: {h8.edge_count} edges of size {sorted(sizes)}, q = {q_value(h8)}")

    h = union(h4, h8)
    total = enumerate_proper(h).total_proper
    print(f"union: {h.edge_count} edges, proper colourings: {total}")
    print(f"weight: q = {q_value(h)} = {q_value(h).decimal_str()}")
    print()

    print("full fact sheet:")
    report = verify_paper_example()
    for entry in report.checks:
        mark = "ok " if entry.passed else "BAD"
        print(f"  {mark} {entry.name}: {entry.actual}")


if __name__ == "__main__":
    main()
