"""The Ramsey-arrow decision engine and small-degree probing.

C -> (B)^A_{k,t} says: every k-coloring of the copies of A in C admits a
copy of B whose internal copies of A use at most t colors. The engine
searches for a "bad" coloring defeating every copy of B, with pruning
and color-symmetry breaking; no bad coloring means the arrow holds.
"""

from msetramsey import (ChainContext, MSetContext, holds_arrow, omega,
                        probe_small_degree, trivial_monoid, validate_mset)
from msetramsey.ramsey import SMALL_BUDGET


def main():
    ctx = ChainContext()
    print("== calibration against R(3,3) = 6 ==")
    v6 = holds_arrow(omega(2), omega(3), omega(6), 2, 1, ctx)
    print("6-chain -> (3-chain)^(2-chain) with 2 colors:", v6.status)
    v5 = holds_arrow(omega(2), omega(3), omega(5), 2, 1, ctx)
    print("5-chain version:", v5.status)
    print("a bad coloring of the ten pairs:", v5.bad_coloring.colors)

    print("\n== vacuous shapes are decided by convention ==")
    v = holds_arrow(omega(3), omega(2), omega(1), 2, 1, ctx)
    print("no copies of A in C:", v.status, f"({v.reason})")
    v = holds_arrow(omega(1), omega(3), omega(2), 2, 1, ctx)
    print("no copies of B in C:", v.status, f"({v.reason})")

    print("\n== probing a small Ramsey degree ==")
    m = trivial_monoid()
    two = validate_mset(m, (0, 1), [(0, 1)])
    probe = probe_small_degree(two, MSetContext(), budget=SMALL_BUDGET)
    print(f"2-element set with trivial action: degree in "
          f"[{probe.lower}, {probe.upper}]")
    print("defeats found on the way up:", probe.evidence["defeats"])
    print("(the relative order of the two points is an invariant no copy "
          "of B can erase, so t = 1 is defeated and t = 2 is exact)")


if __name__ == "__main__":
    main()
