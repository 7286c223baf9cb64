"""M-sets, morphism enumeration, unary algebras and cofree actions."""

import gc
import random
import sys
from itertools import combinations, permutations, product

import pytest

from helpers import truncated_powers
from msetramsey import mset
from msetramsey.chains import omega
from msetramsey.errors import (CapExceeded, CompositionFails,
                               IdentityAxiomFails, InputError,
                               MonoidMismatch, UnknownSymbol)
from msetramsey.expansion import forget_order
from msetramsey.forests import RootedForest
from msetramsey.monoid import left_zero_monoid, trivial_monoid, z2
from msetramsey.mset import (MSet, UnaryAlgebra,
                             check_equivariant, cofree_mset, embedding_maps,
                             enumerate_embeddings, evaluate_word,
                             generated_sub_mset, order_positions,
                             validate_morphism, validate_mset, with_order)
from msetramsey.ramsey import ForestContext
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
    # between ordered M-sets an embedding is an order-embedding
    with pytest.raises(InputError, match="not order-preserving"):
        validate_morphism(a, a, (1, 0), "embedding")
    assert validate_morphism(a, a, (0, 1), "embedding").kind == \
        "order-embedding"
    assert validate_morphism(a, a, (1, 0)).kind == "morphism"
    with pytest.raises(InputError, match="unknown morphism kind 'embeding'"):
        validate_morphism(a, a, (1, 0), "embeding")
    unordered = swap_pair(ordered=False)
    for kind in ("embedding", "order-embedding"):
        for s, t in ((a, unordered), (unordered, a)):
            with pytest.raises(MonoidMismatch,
                               match="cannot mix ordered and unordered"):
                validate_morphism(s, t, (0, 1), kind)
    with pytest.raises(InputError, match="needs an ordered source"):
        validate_morphism(unordered, unordered, (0, 1), "order-embedding")
    assert validate_morphism(unordered, unordered, (1, 0),
                             "embedding").kind == "embedding"
    for f_map in ((0, 1, 0), (0,), ()):
        with pytest.raises(InputError, match=f"map has length {len(f_map)},"):
            validate_morphism(unordered, unordered, f_map)
    for f_map in ((5, 0), (0, -1), (0, 1.0), (True, 0)):
        with pytest.raises(InputError, match="is not in range\\(2\\)"):
            validate_morphism(unordered, unordered, f_map)


def _reference_accepts(a, b, f, kind):
    """Whether f is a morphism a -> b of `kind`, from the definitions:
    equivariant; an embedding is also injective and, when ordered,
    increasing along a's order."""
    equivariant = all(f[a.action[m][x]] == b.action[m][f[x]]
                      for m in range(a.monoid.size) for x in range(a.size))
    if kind == "morphism":
        return equivariant
    injective = len(set(f)) == len(f)
    increasing = a.order is None or all(
        b.positions[f[x]] < b.positions[f[y]]
        for x, y in zip(a.order, a.order[1:]))
    return equivariant and injective and increasing


@pytest.mark.parametrize("monoid", [trivial_monoid(), z2()])
def test_validate_morphism_matches_reference(monoid, every_mset):
    """Every map between M-sets of at most 3 elements, ordered and
    unordered: each claim is accepted exactly when the reference
    accepts it, the result's kind is the strongest claim accepted, and
    the maps accepted as "embedding" are embedding_maps(a, b)."""
    unordered = every_mset(monoid, 3)
    objs = unordered + [with_order(x, p) for x in unordered
                        for p in permutations(range(x.size))]
    kinds = set()
    for a in objs:
        for b in objs:
            mixed = (a.order is None) != (b.order is None)
            embeddings = []
            for f in product(range(b.size), repeat=a.size):
                for kind in ("morphism", "embedding", "order-embedding"):
                    if kind != "morphism" and mixed:
                        with pytest.raises(MonoidMismatch):
                            validate_morphism(a, b, f, kind)
                        continue
                    if kind == "order-embedding" and a.order is None:
                        with pytest.raises(InputError):
                            validate_morphism(a, b, f, kind)
                        continue
                    if not _reference_accepts(a, b, f, kind):
                        with pytest.raises(InputError):
                            validate_morphism(a, b, f, kind)
                        continue
                    mor = validate_morphism(a, b, f, kind)
                    assert mor.map == f
                    best = "morphism"
                    if not mixed and _reference_accepts(a, b, f, "embedding"):
                        best = "embedding" if a.order is None \
                            else "order-embedding"
                    assert mor.kind == best
                    kinds.add(best)
                    if kind == "embedding":
                        embeddings.append(f)
            if not mixed:
                assert embeddings == embedding_maps(a, b)
    assert kinds == {"morphism", "embedding", "order-embedding"}


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


def _shuffled(ms, seed):
    """A copy of ordered `ms` whose carrier is listed in a seeded random
    order, so that its index order differs from its position order."""
    perm = list(range(ms.size))
    random.Random(seed).shuffle(perm)   # index i holds element perm[i]
    index = {old: i for i, old in enumerate(perm)}
    action = [[index[row[old]] for old in perm] for row in ms.action]
    return validate_mset(ms.monoid, [ms.carrier[a] for a in perm], action,
                         order=[ms.carrier[a] for a in ms.order])


def interleaved_pairs():
    """Two free Z2 orbits {a1, b1} and {a2, b2}, a1 < a2 < b1 < b2."""
    return validate_mset(z2(), ("a1", "b1", "a2", "b2"),
                         [[0, 1, 2, 3], [1, 0, 3, 2]],
                         order=("a1", "a2", "b1", "b2"))


SEVERAL_ORBITS = {
    "z2-interleaved-pairs": interleaved_pairs(),
    # the swap pair {a, b} with the fixed point c between them
    "z2-swap-pair+fixed": validate_mset(
        z2(), ("a", "b", "c"), [[0, 1, 2], [1, 0, 2]],
        order=("a", "c", "b")),
    # the orbit {x, y}, which both left zeros retract onto y, and the
    # fixed point z between x and y
    "left-zero-retraction+fixed": validate_mset(
        left_zero_monoid(2), ("x", "y", "z"),
        [[0, 1, 2], [1, 1, 2], [1, 1, 2]], order=("x", "z", "y")),
    # the tree c -> r1 and the root r2 between c and r1
    "tree+root": validate_mset(
        truncated_powers(2), ("c", "r1", "r2"),
        [[0, 1, 2], [1, 1, 2], [1, 1, 2]], order=("c", "r2", "r1")),
}


@pytest.mark.parametrize("name", sorted(SEVERAL_ORBITS))
def test_ordered_embeddings_of_several_orbits_match_bruteforce(name):
    """Placing one element forces images on non-identity rows between
    neighbours placed before, in lifts and in copies of the lifts whose
    index order is not their order."""
    a = SEVERAL_ORBITS[name]
    found = 0
    for n in (3, 4):
        lift = hat_E(omega(n), a.monoid).lifted
        for b in (lift, _shuffled(lift, n)):
            got = embedding_maps(a, b)
            assert got == _bruteforce_embeddings(a, b)
            found += len(got)
    assert found > 0


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


def _assert_no_reference_cycle(enumerate_maps, a, b):
    """Reference counting frees all that one call builds, so the cyclic
    collector finds nothing unreachable after it."""
    gc.collect()
    gc.disable()
    try:
        embeddings = enumerate_maps(a, b)
        assert embeddings
        del embeddings
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_cycle_case(ordered):
    a = swap_pair(ordered)
    return a, hat_E(omega(3), z2()).lifted if ordered else a


@pytest.mark.parametrize("ordered", [False, True])
def test_enumerate_embeddings_leaves_no_reference_cycle(ordered):
    _assert_no_reference_cycle(enumerate_embeddings,
                               *_reference_cycle_case(ordered))


@pytest.mark.parametrize("ordered", [False, True])
def test_embedding_maps_leaves_no_reference_cycle(ordered):
    _assert_no_reference_cycle(embedding_maps, *_reference_cycle_case(ordered))


@pytest.mark.parametrize("enumerate_maps", [enumerate_embeddings,
                                            embedding_maps])
def test_ordered_call_with_row_tables_leaves_no_reference_cycle(
        enumerate_maps):
    """The swap pair is placed whole at the first branch; interleaved
    pairs narrow their second orbit by the per-row tables."""
    _assert_no_reference_cycle(enumerate_maps, interleaved_pairs(),
                               hat_E(omega(4), z2()).lifted)


def _fixed_points(n):
    """n ordered fixed points of Z2, in index order."""
    return MSet(z2(), tuple(range(n)), (tuple(range(n)),) * 2,
                tuple(range(n)))


def _roots(n):
    """The ordered forest of n roots, in index order."""
    return RootedForest(tuple(range(n)), tuple(range(n)), tuple(range(n)))


def _place_calls(listing):
    """listing()'s result and the number of rows it placed, counted as
    calls of the backtracker's `place`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "place" and \
                code.co_filename == mset.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        result = listing()
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.mark.parametrize("k", range(17))
def test_fixed_points_into_two_more_are_the_combinations(k):
    """A chain's gaps count the room the unplaced elements need, so after
    the first branch every target tried completes to a map: the search
    places at most |C| rows at the first branch and one per map below."""
    for listing in (lambda: embedding_maps(_fixed_points(k),
                                           _fixed_points(k + 2)),
                    lambda: ForestContext().hom(_roots(k), _roots(k + 2))):
        maps, calls = _place_calls(listing)
        assert maps == list(combinations(range(k + 2), k))
        assert calls <= k + 2 + max(k - 1, 0) * len(maps)


def _plus_fixed_points(ms, extra, rng):
    """`ms` with `extra` more fixed points, put at random places in its
    order."""
    n = ms.size
    action = [list(row) + list(range(n, n + extra)) for row in ms.action]
    order = list(ms.order)
    for x in range(n, n + extra):
        order.insert(rng.randrange(len(order) + 1), x)
    return validate_mset(ms.monoid, range(n + extra), action, order)


def _random_ordered_mset(monoid, rng, pieces):
    """A disjoint union of random M-sets of at most two elements over
    `monoid`, in a random order that interleaves them."""
    action, n = [[] for _ in range(monoid.size)], 0
    for piece in rng.choices(_all_small_msets(monoid, 2, False), k=pieces):
        for row, part in zip(action, piece.action):
            row.extend(n + v for v in part)
        n += piece.size
    return validate_mset(monoid, range(n), action,
                         rng.sample(range(n), n))


@pytest.mark.parametrize("monoid", [trivial_monoid(), z2(),
                                    left_zero_monoid(2), truncated_powers(2)])
def test_tight_ordered_hom_sets_match_bruteforce(monoid):
    """Targets with little or no room beside the source's image: the
    source itself under another index order, and the source with one or
    two more fixed points. Roots into roots + 2 are in the test above."""
    rng = random.Random(39)
    found = 0
    for _ in range(10):
        a = _random_ordered_mset(monoid, rng, rng.randint(1, 3))
        for b in (_shuffled(a, rng.random()),
                  _plus_fixed_points(a, 1, rng),
                  _plus_fixed_points(a, 2, rng)):
            got = embedding_maps(a, b)
            assert got == _bruteforce_embeddings(a, b)
            found += len(got)
    assert found > 0


@pytest.mark.parametrize("listing, calls", [
    (lambda: embedding_maps(_fixed_points(16), _fixed_points(18)), 983),
    (lambda: ForestContext().hom(_roots(14), _roots(14)), 27),
], ids=["16-into-18-fixed-points", "14-roots-into-14-roots"])
def test_tight_ordered_hom_sets_place_few_rows(listing, calls):
    """Counting gaps keep these near |A| calls per map; a gap that left
    no room for the unplaced elements would walk 2^|A| dead branches."""
    assert _place_calls(listing)[1] == calls


def test_ordered_listing_deeper_than_the_recursion_limit_is_a_cap():
    n = sys.getrecursionlimit() + 100
    a = _fixed_points(n)
    with pytest.raises(CapExceeded, match=f"^an embedding search from {n} "
                       "source elements exceeds Python's recursion limit$"):
        embedding_maps(a, a)


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
