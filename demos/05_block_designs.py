"""Design structure hiding in the colouring census.

The blue sets of the 120 proper colourings of the order-4 affine plane
form a 3-(16,8,12) design: every triple of points lies in exactly 12 of
the 120 blocks.  The checker is exact, so a counterexample is returned
whenever the count is uneven, as happens for the 60 blocking edges
(vertex 0 lies in all of them).
"""

from propb import affine_plane_gf4, derive_h8, design_check, enumerate_proper, fano


def main():
    census = enumerate_proper(affine_plane_gf4(), materialize=True)
    # a census lists red masks; the blue set is every point outside one
    blues = [{u for u in range(16) if not red >> u & 1} for red in census.red_masks]
    print("blue sets of the plane's 120 proper colourings:")
    for t in range(4):
        result = design_check(blues, 16, t)
        print(f"  t = {t}: lambda = {result.lam}")
    print()

    print("fano lines as blocks:")
    for t in (1, 2):
        result = design_check(fano().edges, 7, t)
        print(f"  t = {t}: lambda = {result.lam}")
    print()

    print("blocking 8-edges as blocks (not a design):")
    h8 = derive_h8(affine_plane_gf4())
    result = design_check(h8.edges, 16, 1)
    print(f"  t = 1: lambda = {result.lam}, "
          f"counterexample {sorted(result.counterexample)}")


if __name__ == "__main__":
    main()
