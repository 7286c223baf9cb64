"""Finite chains, their embeddings, and finite monoids.

A chain is a finite strict linear order; everything Ramsey-flavored in
this workbench happens inside hom-sets of such objects. This script
walks through the basic vocabulary: building chains, enumerating
embeddings, lexicographic combinations, and the monoids whose actions
the rest of the workbench studies.
"""

from msetramsey import (chain_semilattice, cyclic_group,
                        enumerate_chain_embeddings, left_zero_monoid,
                        lex_product, omega, ordinal_sum)


def main():
    print("== chains ==")
    three, five = omega(3), omega(5)
    embeddings = enumerate_chain_embeddings(three, five)
    print(f"embeddings of a 3-chain into a 5-chain: {len(embeddings)}")
    print("first three maps:", [e.map for e in embeddings[:3]])

    total = ordinal_sum([omega(2), omega(2)])
    print("ordinal sum of two 2-chains:", total.labels)
    prod = lex_product([omega(2), omega(2)])
    print("lex product of two 2-chains:", prod.labels)

    print("\n== monoids ==")
    z3 = cyclic_group(3)
    print("Z3 multiplication table:", z3.table)
    print("well-order (identity first):", z3.well_order)

    sl = chain_semilattice(3)
    print("3-element semilattice (max): every element idempotent:",
          all(sl.mul(i, i) == i for i in range(3)))

    lz = left_zero_monoid(2)
    print("left-zero monoid: 1*2 =", lz.mul(1, 2), " but 2*1 =", lz.mul(2, 1))


if __name__ == "__main__":
    main()
