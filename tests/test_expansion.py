"""Order expansions: fibers, restrictions, reasonableness, degree sums."""

import tracemalloc
from itertools import product
from math import factorial

import pytest

from msetramsey.errors import IncompleteFiber, InputError, NotAnEmbedding
from msetramsey.expansion import (degree_sum_bound, fibers, forget_order,
                                  restrict_along)
from msetramsey.monoid import trivial_monoid, z2
from msetramsey.mset import (check_equivariant, enumerate_embeddings,
                             order_violation, validate_mset, with_order)


def check_reasonable(instances):
    """For each (e, A*, B): is there a B* in the fiber of B admitting e?

    `instances` is an iterable of (e_map, a_star, b) triples where b is
    the unordered target. Returns (True, None) or (False, the first
    failing triple). Such a B* exists exactly when e is injective: the
    image ordered as e transports A*'s order, and the rest after it,
    admits e, and no order admits a map that identifies two points.
    """
    for e_map, a_star, b in instances:
        if len(set(e_map)) != len(e_map):
            return False, (e_map, a_star, b)
    return True, None


def _trivial_set(n, order=None):
    m = trivial_monoid()
    ms = validate_mset(m, tuple(range(n)), [tuple(range(n))])
    return with_order(ms, order) if order is not None else ms


def test_forget_order_drops_the_chain():
    a_star = _trivial_set(3, (2, 0, 1))
    assert forget_order(a_star) == _trivial_set(3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fibers_are_all_orderings(n):
    a = _trivial_set(n)
    fib = fibers(a)
    assert len(fib) == factorial(n)
    assert len({f.order for f in fib}) == len(fib)
    assert all(forget_order(f) == a for f in fib)


def test_restrict_along_identity():
    b_star = _trivial_set(3, (1, 2, 0))
    a_star = restrict_along(b_star, (0, 1, 2), forget_order(b_star))
    assert a_star.order == b_star.order


def test_restrict_along_subset_pullback():
    b_star = _trivial_set(3, (2, 0, 1))  # order 2 < 0 < 1
    a = _trivial_set(2)
    a_star = restrict_along(b_star, (0, 2), a)
    # target positions: element 0 -> rank 1, element 2 -> rank 0
    assert a_star.order == (1, 0)


def test_restrict_along_rejects_non_embeddings():
    b_star = _trivial_set(3, (0, 1, 2))
    with pytest.raises(NotAnEmbedding):
        restrict_along(b_star, (0, 0), _trivial_set(2))
    swap = validate_mset(z2(), (0, 1), [(0, 1), (1, 0)])
    fixed_star = with_order(validate_mset(z2(), (0, 1),
                                          [(0, 1), (0, 1)]), (0, 1))
    with pytest.raises(NotAnEmbedding):
        restrict_along(fixed_star, (0, 1), swap)


def test_restrict_along_rejects_malformed_inputs():
    """Each input that used to end in a traceback, or was accepted, is an
    InputError that names the problem."""
    a, b_star = _trivial_set(2), _trivial_set(3, (0, 1, 2))
    over_z2 = validate_mset(z2(), (0, 1), [(0, 1), (0, 1)])
    cases = [
        (b_star, (0,), a, "map has length 1, but the source has 2"),
        (b_star, (0, 5), a, r"map value 5 is not in range\(3\)"),
        (b_star, (0, 1, 2), a, "map has length 3, but the source has 2"),
        (forget_order(b_star), (0, 1), a, "needs an ordered B"),
        (b_star, (0, 1), over_z2, "different monoids"),
        (with_order(validate_mset(z2(), (0, 1, 2), [(0, 1, 2)] * 2)),
         (0, 1), a, "different monoids"),
        (b_star, (0, 1), _trivial_set(2, (0, 1)), "cannot mix ordered"),
    ]
    for b, e_map, source, message in cases:
        with pytest.raises(InputError, match=message):
            restrict_along(b, e_map, source)


@pytest.mark.parametrize("monoid", [trivial_monoid(), z2()])
def test_restriction_uniqueness_fiber_sweep(monoid, every_mset):
    """Exhaustive: each embedding admits exactly one ordering of its source."""
    objs = every_mset(monoid, 3)
    checked = 0
    for a in objs:
        if a.size > 2:
            continue
        for b in objs:
            for b_star in fibers(b):
                for e in enumerate_embeddings(a, b):
                    a_star = restrict_along(b_star, e.map, a)
                    assert forget_order(a_star) == a
                    admitting = [f for f in fibers(a) if
                                 order_violation(e.map, f, b_star) is None]
                    assert admitting == [a_star]
                    checked += 1
    assert checked > 0


def _reference_reasonable(instances):
    """check_reasonable's former construction: for each (e, A*, B), order
    B with the image first, ranked as e transports A*'s order, and the
    rest after it; then ask whether e is an order-embedding into it."""
    for e_map, a_star, b in instances:
        image = set(e_map)
        spos = a_star.positions
        rank = {}
        for x in range(a_star.size):
            rank[e_map[x]] = spos[x]
        nxt = a_star.size
        for y in range(b.size):
            if y not in image:
                rank[y] = nxt
                nxt += 1
        b_star = with_order(b, sorted(range(b.size), key=lambda y: rank[y]))
        if order_violation(e_map, a_star, b_star) is not None:
            return False, (e_map, a_star, b)
    return True, None


def test_check_reasonable_exhaustive_small(every_mset):
    """Every equivariant map e between M-sets of at most 3 elements, with
    every ordering A* of its source: check_reasonable agrees with the
    reference construction and with a sweep over the fiber of B, one
    instance at a time and on the whole list. The non-injective maps
    reach the (False, witness) answer."""
    refuted = 0
    for monoid in (trivial_monoid(), z2()):
        objs = every_mset(monoid, 3)
        instances = []
        for a in objs:
            if a.size > 2:
                continue
            for b in objs:
                for a_star in fibers(a):
                    for e in product(range(b.size), repeat=a.size):
                        if check_equivariant(e, a, b) is None:
                            instances.append((e, a_star, b))
        for inst in instances:
            e_map, a_star, b = inst
            admitted = any(order_violation(e_map, a_star, b_star) is None
                           for b_star in fibers(b))
            expected = (True, None) if admitted else (False, inst)
            assert check_reasonable([inst]) == expected
            assert _reference_reasonable([inst]) == expected
            refuted += not admitted
        first_bad = next(((False, inst) for inst in instances
                          if len(set(inst[0])) < len(inst[0])), (True, None))
        assert not first_bad[0]
        assert check_reasonable(instances) == first_bad
        assert _reference_reasonable(instances) == first_bad
    assert refuted > 0


def test_degree_sum_bound():
    a = _trivial_set(2)
    degrees = {f.order: 1 for f in fibers(a)}
    assert degree_sum_bound(a, degrees) == 2
    degrees[(0, 1)] = 3
    assert degree_sum_bound(a, degrees) == 4  # monotone in each entry
    with pytest.raises(IncompleteFiber):
        degree_sum_bound(a, {(0, 1): 1})


def test_degree_sum_bound_names_the_first_missing_ordering_lazily():
    """A one-ordering degrees file on a 9-element A fails at the fiber's
    second ordering without building the 362,880 orderings first."""
    a = _trivial_set(9)
    tracemalloc.start()
    try:
        with pytest.raises(IncompleteFiber) as exc:
            degree_sum_bound(a, {tuple(range(9)): 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == \
        "no degree for ordering (0, 1, 2, 3, 4, 5, 6, 8, 7)"
    assert peak < 10 ** 6
