"""M-sets, morphism enumeration, unary algebras and cofree actions."""

import gc
import random
from itertools import permutations, product

import pytest

from msetramsey.chains import omega
from msetramsey.errors import (CompositionFails, IdentityAxiomFails,
                               InputError, MonoidMismatch, UnknownSymbol)
from msetramsey.expansion import forget_order
from msetramsey.monoid import (left_zero_monoid, trivial_monoid,
                               truncated_powers, z2)
from msetramsey.mset import (MSet, UnaryAlgebra,
                             check_equivariant, cofree_mset, embedding_maps,
                             enumerate_embeddings, evaluate_word,
                             generated_sub_mset, order_positions,
                             validate_morphism, validate_mset, with_order)
from msetramsey.transport import hat_E


def swap_pair(ordered=True):
    """The free Z2 orbit on two points."""
    return validate_mset(z2(), ("a1", "a2"), [[0, 1], [1, 0]],
                         order=("a1", "a2") if ordered else None)


def test_validate_mset_rejects_identity_violation():
    with pytest.raises(IdentityAxiomFails) as exc:
        validate_mset(z2(), ("a", "b"), [[1, 0], [1, 0]])
    assert exc.value.witness == "a"


def test_validate_mset_rejects_composition_violation():
    # g.(g.a) must be a, but this table sends it to b
    bad = [[0, 1, 2], [1, 2, 0]]
    with pytest.raises(CompositionFails):
        validate_mset(z2(), ("a", "b", "c"), bad)


def test_validate_mset_rejects_malformed_tables():
    with pytest.raises(InputError):
        validate_mset(z2(), ("a",), [[0]])
    with pytest.raises(InputError):
        validate_mset(trivial_monoid(), ("a",), [[4]])


def test_ordered_mset_positions_and_chain():
    a = validate_mset(trivial_monoid(), ("x", "y", "z"), [[0, 1, 2]],
                      order=("z", "x", "y"))
    assert a.positions == (1, 2, 0)
    assert a.carrier_chain().labels == ("z", "x", "y")
    with pytest.raises(InputError):
        with_order(a, (0, 0, 1))


def test_order_is_a_field_that_forgetting_clears(every_mset):
    checked = 0
    for ms in every_mset(z2(), 3):
        for p in permutations(range(ms.size)):
            ordered = with_order(ms, p)
            assert forget_order(ordered) == ms
            assert hash(forget_order(ordered)) == hash(ms)
            assert ordered != ms and ordered.order == p
            assert all(ordered.positions[a] == rank
                       for rank, a in enumerate(p))
            assert ms.positions is None
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("order", [(0, 1, 1), (0, 1), (0, 1, 2, 3),
                                   (0, 1, 3), (-1, 0, 1)])
def test_with_order_rejects_non_permutations(order):
    ms = validate_mset(trivial_monoid(), ("x", "y", "z"), [[0, 1, 2]])
    with pytest.raises(InputError, match="not a permutation"):
        with_order(ms, order)


def test_validate_mset_orders_mixed_labels():
    a = validate_mset(trivial_monoid(), (1, "a"), [[0, 1]], order=("a", 1))
    assert a.order == (1, 0)
    for order in (("a", 2), ("a",), ("a", "a")):
        with pytest.raises(InputError):
            validate_mset(trivial_monoid(), (1, "a"), [[0, 1]], order=order)


def _reference_order_positions(carrier, order):
    """order_positions by list.index, or the first label it rejects."""
    keys = [(type(x), x) for x in carrier]
    for lab in order:
        if (type(lab), lab) not in keys:
            return InputError(f"order label {lab!r} is not in the carrier")
    return tuple(keys.index((type(lab), lab)) for lab in order)


def test_order_positions_agrees_with_list_index_on_mixed_labels():
    """1, True, 1.0 and "1" are four labels; (1,) and (True,) are equal
    tuples, so the first one listed is meant. [] and {} are in no
    carrier."""
    labels = [1, True, 1.0, "1", 0, False, None, (1,), (True,), ("1",),
              (1, "a")]
    rng = random.Random(4)
    found = missing = 0
    for _ in range(300):
        carrier = rng.sample(labels, rng.randrange(len(labels) + 1))
        order = rng.choices(labels + [[], {}, 2, "x"], k=rng.randrange(5))
        want = _reference_order_positions(carrier, order)
        if isinstance(want, InputError):
            with pytest.raises(InputError) as info:
                order_positions(carrier, order)
            assert str(info.value) == str(want)
            missing += 1
        else:
            assert order_positions(carrier, order) == want
            found += 1
    assert found and missing


def test_check_equivariant_finds_first_violation():
    a = swap_pair(ordered=False)
    fixed = validate_mset(z2(), ("p", "q"), [[0, 1], [0, 1]])
    assert check_equivariant((0, 1), a, a) is None
    # identity map from the swap orbit to two fixed points is not equivariant
    assert check_equivariant((0, 1), a, fixed) is not None


def test_validate_morphism_kinds():
    a = swap_pair()
    validate_morphism(a, a, (0, 1), "order-embedding")
    with pytest.raises(InputError):
        validate_morphism(a, a, (1, 0), "order-embedding")  # order-reversing
    with pytest.raises(InputError):
        validate_morphism(a, a, (0, 0), "embedding")  # not injective
    b = validate_mset(trivial_monoid(), ("a",), [[0]])
    with pytest.raises(MonoidMismatch):
        validate_morphism(a, b, (0, 0))


def _bruteforce_embeddings(a, b):
    """Oracle: filter all injections for equivariance (and order)."""
    ordered = a.order is not None
    out = []
    for m in permutations(range(b.size), a.size):
        if check_equivariant(m, a, b) is not None:
            continue
        if ordered:
            spos, tpos = a.positions, b.positions
            if any((spos[x] < spos[y]) != (tpos[m[x]] < tpos[m[y]])
                   for x in range(a.size) for y in range(a.size)):
                continue
        out.append(tuple(m))
    return sorted(out)


def _all_small_msets(monoid, max_size, ordered):
    out = []
    for n in range(1, max_size + 1):
        e = monoid.identity
        free = [m for m in range(monoid.size) if m != e]
        for rows in product(product(range(n), repeat=n), repeat=len(free)):
            action = [None] * monoid.size
            action[e] = tuple(range(n))
            for m, row in zip(free, rows):
                action[m] = row
            try:
                ms = validate_mset(monoid, tuple(range(n)), action)
            except InputError:
                continue
            if ordered:
                out.extend(with_order(ms, p)
                           for p in permutations(range(n)))
            else:
                out.append(ms)
    return out


@pytest.mark.parametrize("monoid,ordered", [
    (trivial_monoid(), False), (trivial_monoid(), True),
    (z2(), False), (z2(), True),
    (left_zero_monoid(2), False), (left_zero_monoid(2), True),
    (truncated_powers(2), False), (truncated_powers(2), True)])
def test_enumerate_embeddings_matches_bruteforce(monoid, ordered):
    objs = _all_small_msets(monoid, 3, ordered)
    # lex lifts are large enough that the ordered search narrows targets
    lifts = [hat_E(omega(n), monoid).lifted for n in (2, 3)] if ordered \
        else []
    checked = 0
    for a in objs:
        if a.size > 2:
            continue
        for b in objs + lifts:
            got = [e.map for e in enumerate_embeddings(a, b)]
            assert got == _bruteforce_embeddings(a, b)
            assert got == sorted(got)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("monoid,ordered", [
    (trivial_monoid(), False), (trivial_monoid(), True),
    (z2(), False), (z2(), True),
    (left_zero_monoid(2), False), (left_zero_monoid(2), True)])
def test_embedding_maps_are_the_maps_of_enumerate_embeddings(monoid,
                                                             ordered):
    objs = _all_small_msets(monoid, 3, ordered)
    empty = MSet(monoid, (), ((),) * monoid.size, () if ordered else None)
    lifts = [hat_E(omega(3), monoid).lifted] if ordered else []
    kind = "order-embedding" if ordered else "embedding"
    found = 0
    for a in [empty] + objs:
        for b in [empty] + objs + lifts:
            maps = embedding_maps(a, b)
            morphisms = enumerate_embeddings(a, b)
            assert maps == [f.map for f in morphisms]
            assert all((f.source, f.target, f.kind) == (a, b, kind)
                       for f in morphisms)
            found += bool(maps)
    assert found > 0


def _assert_no_reference_cycle(enumerate_maps, ordered):
    """Reference counting frees all that one call builds, so the cyclic
    collector finds nothing unreachable after it."""
    a = swap_pair(ordered)
    b = hat_E(omega(3), z2()).lifted if ordered else a
    gc.collect()
    gc.disable()
    try:
        embeddings = enumerate_maps(a, b)
        assert embeddings
        del embeddings
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("ordered", [False, True])
def test_enumerate_embeddings_leaves_no_reference_cycle(ordered):
    _assert_no_reference_cycle(enumerate_embeddings, ordered)


@pytest.mark.parametrize("ordered", [False, True])
def test_embedding_maps_leaves_no_reference_cycle(ordered):
    _assert_no_reference_cycle(embedding_maps, ordered)


def test_enumerate_embeddings_rejects_mixed_kinds():
    a = swap_pair(ordered=True)
    b = swap_pair(ordered=False)
    with pytest.raises(MonoidMismatch):
        enumerate_embeddings(a, b)


def test_unary_algebra_word_evaluation_leftmost_first():
    alg = UnaryAlgebra(("f", "g"), ("x", "y", "z"),
                       {"f": (1, 2, 2), "g": (0, 0, 1)})
    # word fg: apply f first, then g
    assert evaluate_word(alg, ("f", "g"), 0) == 0
    assert evaluate_word(alg, ("g", "f"), 0) == 1
    assert evaluate_word(alg, (), 2) == 2
    with pytest.raises(UnknownSymbol):
        evaluate_word(alg, ("h",), 0)


def test_unary_algebra_validates_generator_tables():
    with pytest.raises(InputError):
        UnaryAlgebra(("f",), ("x", "y"), {})
    with pytest.raises(InputError):
        UnaryAlgebra(("f",), ("x", "y"), {"f": (0, 7)})


def test_cofree_mset_satisfies_action_axioms():
    for m in (trivial_monoid(), z2(), left_zero_monoid(2)):
        ms = cofree_mset(omega(2), m)
        validate_mset(m, ms.carrier, ms.action)  # must not raise
        assert ms.size == 2 ** m.size


def test_cofree_mset_ordered_lex_by_well_order():
    ms = cofree_mset(omega(2), z2())
    ordered_labels = [ms.carrier[i] for i in ms.order]
    assert ordered_labels == sorted(ordered_labels)
    assert cofree_mset((0, 1), z2()).order is None


def test_generated_sub_mset_is_minimal_closure():
    a = swap_pair(ordered=False)
    sub, inc = generated_sub_mset(a, {0})
    assert sub.size == 2  # the orbit of a1 is everything
    fixed = validate_mset(z2(), ("p", "q"), [[0, 1], [0, 1]])
    sub2, inc2 = generated_sub_mset(fixed, {1})
    assert sub2.size == 1 and sub2.carrier == ("q",)
    assert inc2.map == (1,)


def test_generated_sub_mset_keeps_order():
    b = validate_mset(trivial_monoid(), ("x", "y", "z"), [[0, 1, 2]],
                      order=("z", "x", "y"))
    sub, inc = generated_sub_mset(b, {0, 2})
    assert sub.carrier_chain().labels == ("z", "x")
