"""Order expansions and witness transport through the lexicographic lift.

Ordered M-sets expand unordered ones: summing degrees over all
orderings bounds the unordered degree. The lex lift hat_E takes a chain
to an ordered M-set on its function space; a pre-adjunction between
chains and ordered M-sets transports chain Ramsey witnesses into
hat_E-images, which is how ordered M-sets inherit the Ramsey property.
"""

from msetramsey import (ChainEmbedding, check_PA, degree_sum_bound,
                        enumerate_embeddings, fibers, hat_E,
                        mset_as_weak_coalgebra, omega, restrict_along,
                        transport_witness, validate_mset, z2)


def main():
    m = z2()
    print("== expansions ==")
    swap = validate_mset(m, ("a1", "a2"), [[0, 1], [1, 0]])
    fib = fibers(swap)
    print(f"the 2-element swap orbit has {len(fib)} orderings")
    ordered = fib[0]
    pulled = restrict_along(ordered, (0, 1), swap)
    print("restricting the first ordering along the identity embedding "
          "returns it:", pulled.order == ordered.order)
    bound = degree_sum_bound(swap, {f.order: 1 for f in fib})
    print("degree sum over the fiber with each ordered degree 1:", bound)

    print("\n== the lex lift ==")
    lift = hat_E(omega(2), m)
    print("hat_E of a 2-chain over Z2 has carrier of size",
          lift.lifted.size)
    print("lex order:", [lift.functions[i] for i in lift.lifted.order])

    print("\n== pre-adjunction ==")
    swap_star = validate_mset(m, ("a1", "a2"), [[0, 1], [1, 0]],
                              order=("a1", "a2"))
    coalg = mset_as_weak_coalgebra(swap_star)
    u = ChainEmbedding(coalg.carrier_chain, omega(3), (0, 2))
    ok, v = check_PA(u, (0, 1), coalg, coalg)
    print("Phi_B(u) . f == Phi_A(u . f):", ok)

    print("\n== witness transport ==")
    u_star = validate_mset(m, ("u",), [[0], [0]], order=("u",))
    v_star = validate_mset(m, ("v0", "v1"), [[0, 1], [0, 1]],
                           order=("v0", "v1"))
    result = transport_witness(u_star, v_star, 2)
    print(f"chain witness: a {len(result.chain_witness)}-chain "
          f"(pigeonhole needs 3 points for 2 colors)")
    print(f"lifted target hat_E(W) has {result.lift.lifted.size} elements; "
          f"certification: {result.certified}")
    hom = enumerate_embeddings(u_star, result.lift.lifted)
    print(f"copies of U in the lift: {len(hom)} (the diagonal fixed points)")


if __name__ == "__main__":
    main()
