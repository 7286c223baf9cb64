"""M-sets, their embeddings, unary algebras and the cofree construction.

An M-set is a set acted on by a finite monoid; a unary algebra is the
special case where the monoid is (a truncation of) a free word monoid.
The cofree M-set on a set X lives on the function space X^M and is where
every M-set embeds once orders enter the picture.
"""

from msetramsey import (UnaryAlgebra, cofree_mset, enumerate_embeddings,
                        evaluate_word, generated_sub_mset, omega,
                        validate_mset, z2)


def main():
    m = z2()
    print("== two Z2-sets ==")
    swap = validate_mset(m, ("a1", "a2"), [[0, 1], [1, 0]])
    fixed = validate_mset(m, ("p", "q"), [[0, 1], [0, 1]])
    print("swap orbit: g exchanges a1 and a2")
    print("fixed pair: g fixes both p and q")
    print("embeddings swap -> swap:",
          [e.map for e in enumerate_embeddings(swap, swap)])
    print("embeddings swap -> fixed:",
          [e.map for e in enumerate_embeddings(swap, fixed)], "(none: a free "
          "orbit cannot land on fixed points)")

    print("\n== generated sub-M-set ==")
    sub, inclusion = generated_sub_mset(fixed, {1})
    print("the sub-M-set generated by q has carrier", sub.carrier)

    print("\n== unary algebra ==")
    alg = UnaryAlgebra(("f", "g"), ("x", "y", "z"),
                       {"f": (1, 2, 2), "g": (0, 0, 1)})
    print("evaluating the word fg at x (f acts first):",
          alg.carrier[evaluate_word(alg, ("f", "g"), 0)])
    print("evaluating the word gf at x:",
          alg.carrier[evaluate_word(alg, ("g", "f"), 0)])

    print("\n== cofree M-set ==")
    cof = cofree_mset(omega(2), m)
    print("cofree Z2-set on a 2-chain: carrier", cof.carrier)
    print("lex order:", [cof.carrier[i] for i in cof.order])


if __name__ == "__main__":
    main()
