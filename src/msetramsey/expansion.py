"""Order expansions: forgetting, fibers, restrictions and degree sums.

Only the ordered -> unordered expansion is modeled; every use in the
main results is of this form. Fibers are raw (isomorphic orderings are
not merged), matching the sum the degree bounds are stated over.
"""

from itertools import permutations

from .errors import IncompleteFiber, InputError, NotAnEmbedding
from .mset import MSet, validate_morphism, with_order


def forget_order(a_star):
    return MSet(a_star.monoid, a_star.carrier, a_star.action)


def fibers(a):
    """All |A|! orderings of an unordered M-set."""
    return [with_order(a, perm) for perm in permutations(range(a.size))]


def restrict_along(b_star, e_map, a):
    """The unique ordering of A making e an order-embedding into B*.

    `e_map` is an embedding of the unordered M-set A into forget(B*);
    since e is injective, pulling B*'s order back along it gives a total
    order on A that e preserves, and any other order of A breaks it.
    """
    if b_star.order is None:
        raise InputError("restricting needs an ordered B*")
    try:
        e = validate_morphism(a, forget_order(b_star), e_map, "embedding")
    except InputError as exc:
        raise NotAnEmbedding(f"e: A -> forget(B*): {exc}") from None
    tpos = b_star.positions
    return with_order(a, sorted(range(a.size), key=lambda x: tpos[e.map[x]]))


def degree_sum_bound(a, ordered_degrees):
    """Sum the fiber degrees; the keys must be exactly the fiber.

    `ordered_degrees` maps A*.order -> degree of that ordering, read in
    fibers' order without building the fiber.
    """
    for key in ordered_degrees:
        if sorted(key) != list(range(a.size)):
            raise IncompleteFiber(f"degree for {key}, not an ordering of A")
    total = 0
    for order in permutations(range(a.size)):
        if ordered_degrees.get(order) is None:
            raise IncompleteFiber(f"no degree for ordering {order}")
        total += ordered_degrees[order]
    return total
