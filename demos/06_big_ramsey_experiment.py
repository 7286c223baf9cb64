"""The truncated big-Ramsey experiment: at most 2^(s-1) colors survive.

Every embedding of an s-element ordered M-set A into the lex lift of a
chain reduces to a chain embedding of one of the 2^(s-1) subchains of A
containing its least element; which of them occur (the tie patterns A
realizes) depends on A alone. Iterated pigeonhole steps on the chain
side, one per realized pattern, then squeeze any coloring of the
embeddings down to at most one color per realized pattern. This script
runs the finite pipeline end to end and recounts the surviving colors
independently.
"""

from msetramsey import (big_ramsey_reduce, enumerate_embeddings, fibers,
                        hat_E, lift_hom_size, omega, pi_star,
                        random_coloring, subchains_containing_min,
                        trivial_monoid, unordered_degree_bound, validate_mset,
                        z2)
from msetramsey.expansion import forget_order


def main():
    a = validate_mset(trivial_monoid(), ("a1", "a2"), [[0, 1]],
                      order=("a1", "a2"))
    print("== the reduction f -> f* ==")
    subs = subchains_containing_min(a.carrier_chain())
    print("subchains of {a1 < a2} containing a1:",
          [c.labels for c in subs])
    lift = hat_E(omega(6), trivial_monoid())
    r = enumerate_embeddings(a, lift.lifted)
    rec = pi_star(r[0], lift)
    print(f"|R| = {len(r)}; the first embedding reduces to subchain "
          f"{rec.subchain.labels} at positions {rec.f_star.map}")

    print("\n== the experiment, trivial monoid ==")
    r_size = lift_hom_size(a, 20)
    chi = random_coloring(r_size, 4, seed=7)
    res = big_ramsey_reduce(a, chi, 4, 20)
    print(f"coloring the {r_size} increasing pairs with 4 colors")
    print(f"truncation tower, N then one step per realized pattern: "
          f"{res.tower}")
    print(f"u embeds a {len(res.u.map)}-chain at positions {res.u.map}")
    print(f"colors surviving on hat_E(u) . R: {res.colors_used} "
          f"(bound {res.bound} = 2^(s-1))")

    print("\n== the experiment, Z2 swap pair ==")
    swap = validate_mset(z2(), ("a1", "a2"), [[0, 1], [1, 0]],
                         order=("a1", "a2"))
    r_size = lift_hom_size(swap, 5)
    res = big_ramsey_reduce(swap, random_coloring(r_size, 3, seed=7), 3, 5)
    print(f"|R| = {r_size}; colors surviving: {res.colors_used} "
          f"(bound {res.bound})")

    print("\n== aggregating over orderings ==")
    base = forget_order(swap)
    per_order = {}
    for a_star in fibers(base):
        r_size = lift_hom_size(a_star, 5)
        worst = max(
            big_ramsey_reduce(a_star, random_coloring(r_size, 2, s),
                              2, 5).colors_used
            for s in range(3))
        per_order[a_star.order] = worst
    agg = unordered_degree_bound(base, per_order)
    print(f"sum over both orderings: {agg.aggregate} <= "
          f"{agg.formula} = 2! * 2^1")


if __name__ == "__main__":
    main()
