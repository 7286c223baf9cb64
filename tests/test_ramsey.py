"""The arrow decision engine and degree probes."""

import gc
import random
import sys
import tracemalloc
import weakref
from itertools import permutations, product

import pytest

from helpers import truncated_powers
from msetramsey.chains import omega
from msetramsey.errors import CapExceeded, InputError, _SearchCapReached
from msetramsey.mset import MSet, cofree_mset, validate_mset, with_order
from msetramsey.monoid import (chain_semilattice, cyclic_group,
                               left_zero_monoid, trivial_monoid,
                               validate_monoid, z2)
from msetramsey import ramsey
from msetramsey.ramsey import (ChainContext, Coloring, ForestContext,
                               MSetContext, ProbeBudget, SMALL_BUDGET,
                               TINY_BUDGET, _all_actions, _HomMemo,
                               _search_bad_coloring,
                               coloring_is_bad, composite_images,
                               find_witness, holds_arrow, probe_small_degree)


def _point(monoid, ordered=False):
    """The one-point M-set over `monoid`."""
    return MSet(monoid, (0,), ((0,),) * monoid.size, (0,) if ordered else None)


def test_coloring_validates_range():
    with pytest.raises(ValueError):
        Coloring((0, 2), 2)
    Coloring((0, 1, 1), 2)


def test_composite_images_small_chain_instance():
    ctx = ChainContext()
    hom_ac, hom_ab, hom_bc, images = composite_images(
        omega(1), omega(2), omega(3), ctx)
    assert len(hom_ac) == 3 and len(hom_ab) == 2 and len(hom_bc) == 3
    # w = {0,1}: its copies of the point are positions 0 and 1
    w_index = hom_bc.index((0, 1))
    assert images[w_index] == (0, 1)


def _small_objects(ctx_name):
    """A context and families of its small objects, |A| <= 3 among them;
    objects of one family share a monoid."""
    from msetramsey.forests import enumerate_forests, fig1_forest
    if ctx_name == "chains":
        return ChainContext(), [[omega(n) for n in range(7)]]
    if ctx_name.endswith("forests"):
        ordered = ctx_name == "ordered-forests"
        objs = [f for n in range(5)
                for f in enumerate_forests(n, ordered=ordered)]
        if ordered:
            objs.append(fig1_forest())
        return ForestContext(), [objs]
    ordered = ctx_name == "ordered-msets"
    rng = random.Random(ctx_name)
    families = []
    for monoid in (z2(), left_zero_monoid(2)):
        family = []
        for n in range(5):
            for action in _all_actions(monoid, n):
                order = list(range(n))
                rng.shuffle(order)
                family.append(MSet(monoid, tuple(range(n)), action,
                                   tuple(order) if ordered else None))
        families.append(family)
    return MSetContext(), families


def compose_map(w, f):
    """(w . f)[x] = w[f[x]] for positional map tables; the reference
    that composite_images is tested against."""
    return tuple(w[x] for x in f)


def test_compose_map_is_pointwise():
    assert compose_map((3, 4, 5), (0, 2)) == (3, 5)


@pytest.mark.parametrize("ctx_name", ["chains", "msets", "ordered-msets",
                                      "forests", "ordered-forests"])
def test_composite_images_match_compose_map_reference(ctx_name):
    """Random triples with |A| in {0, 1, 2, 3}: each image lists the
    indices of compose_map(w, f) over hom(A, B), in hom(A, B) order.
    Every other triple has A in B in C, so that most images are not
    empty."""
    ctx, families = _small_objects(ctx_name)
    rng = random.Random(ctx_name)
    nonempty = dict.fromkeys(range(4), 0)
    for trial in range(300):
        objs = rng.choice(families)
        size = rng.randrange(4)
        a = rng.choice([x for x in objs if x.size == size])
        b = rng.choice([x for x in objs if trial % 2 or ctx.hom(a, x)])
        c = rng.choice([x for x in objs if trial % 2 or ctx.hom(b, x)])
        hom_ac, hom_ab, hom_bc, images = composite_images(a, b, c, ctx)
        index = {f: i for i, f in enumerate(hom_ac)}
        assert images == [
            tuple(index[compose_map(w, f)] for f in hom_ab)
            for w in hom_bc]
        # every w is injective, so no two f share a composite
        assert all(len(set(image)) == len(hom_ab) for image in images)
        nonempty[size] += any(images)
    assert all(nonempty.values()), nonempty


def _empty_hom_ab_triples():
    """(ctx, A, B, C) with hom(A, B) empty and hom(B, C) not: a chain too
    long for B, and a Z2 swap pair beside two fixed points."""
    yield ChainContext(), omega(3), omega(2), omega(4)
    swap = MSet(z2(), (0, 1), ((0, 1), (1, 0)), (0, 1))
    fixed = MSet(z2(), (0, 1), ((0, 1), (0, 1)), (0, 1))
    both = MSet(z2(), (0, 1, 2, 3), ((0, 1, 2, 3), (1, 0, 2, 3)),
                (2, 0, 3, 1))
    yield MSetContext(), swap, fixed, both


@pytest.mark.parametrize("triple", _empty_hom_ab_triples(),
                         ids=["chains", "ordered-msets"])
def test_composite_images_with_empty_hom_ab(triple):
    """With no f in hom(A, B) there are no columns, yet every w in
    hom(B, C) still gets its image: the empty one."""
    ctx, a, b, c = triple
    hom_ac, hom_ab, hom_bc, images = composite_images(a, b, c, ctx)
    assert hom_ac and not hom_ab and hom_bc
    assert images == [()] * len(hom_bc)
    assert len(images) == len(hom_bc)


def _oracle_has_bad_coloring(n, k, t, images):
    return any(coloring_is_bad(colors, images, t)
               for colors in product(range(k), repeat=n))


@pytest.mark.parametrize("sizes,k,t", [
    ((1, 2, 3), 2, 1), ((1, 2, 4), 3, 1), ((2, 3, 4), 2, 1),
    ((2, 3, 5), 2, 1), ((1, 2, 3), 2, 2), ((2, 2, 4), 2, 1)])
def test_search_agrees_with_naive_oracle(sizes, k, t):
    sa, sb, sc = sizes
    ctx = ChainContext()
    _, _, _, images = composite_images(omega(sa), omega(sb), omega(sc), ctx)
    n = len(ctx.hom(omega(sa), omega(sc)))
    found = _search_bad_coloring(n, k, t, images)
    assert (found is not None) == _oracle_has_bad_coloring(n, k, t, images)
    if found is not None:
        assert coloring_is_bad(found, images, t)


def test_search_returns_least_canonical_bad_coloring():
    ctx = ChainContext()
    _, _, _, images = composite_images(omega(2), omega(3), omega(5), ctx)
    n = 10
    found = _search_bad_coloring(n, 2, 1, images)
    canonical = [c for c in product(range(2), repeat=n)
                 if coloring_is_bad(c, images, 1)]
    assert found == min(canonical)


def _recursive_search_bad_coloring(n, k, t, images):
    """Reference: the recursive search with viability pruning only."""
    if not images:
        return None
    pos_to_ws = [[] for _ in range(n)]
    for wi, image in enumerate(images):
        for p in image:
            pos_to_ws[p].append(wi)
    free = [len(image) for image in images]
    seen = [dict() for _ in images]   # color -> multiplicity
    colors = [0] * n

    def viable(wi):
        return len(seen[wi]) + min(free[wi], k - len(seen[wi])) > t

    def assign(p, c):
        for wi in pos_to_ws[p]:
            free[wi] -= 1
            seen[wi][c] = seen[wi].get(c, 0) + 1

    def unassign(p, c):
        for wi in pos_to_ws[p]:
            free[wi] += 1
            if seen[wi][c] == 1:
                del seen[wi][c]
            else:
                seen[wi][c] -= 1

    def extend(p, used):
        if p == n:
            return all(len(s) > t for s in seen)
        for c in range(min(used + 1, k)):
            colors[p] = c
            assign(p, c)
            if all(viable(wi) for wi in pos_to_ws[p]) and \
                    extend(p + 1, max(used, c + 1)):
                return True
            unassign(p, c)
        return False

    if extend(0, 0):
        return tuple(colors)
    return None


def _random_instance(rng, max_n, max_k):
    """n, k and images of random sizes; empty and short images included."""
    n, k = rng.randint(0, max_n), rng.randint(1, max_k)
    images = [tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 6)))))
              for _ in range(rng.randint(1, 6))]
    return n, k, images


def test_search_matches_recursive_reference():
    rng = random.Random(2021)
    found = 0
    for _ in range(1500):
        n, k, images = _random_instance(rng, 9, 4)
        for t in range(k):
            expected = _recursive_search_bad_coloring(n, k, t, images)
            assert _search_bad_coloring(n, k, t, images) == expected, \
                (n, k, t, images)
            found += expected is not None
    assert found > 300   # the instances are not all trivially refuted
    assert _search_bad_coloring(3, 2, 1, []) is None


def _is_canonical(colors):
    used = 0
    for c in colors:
        if c > used:
            return False
        used = max(used, c + 1)
    return True


def test_search_returns_first_canonical_bad_coloring():
    rng = random.Random(7)
    for _ in range(300):
        n, k, images = _random_instance(rng, 7, 3)
        for t in range(k):
            expected = next(
                (c for c in product(range(k), repeat=n)
                 if _is_canonical(c) and coloring_is_bad(c, images, t)),
                None)
            assert _search_bad_coloring(n, k, t, images) == expected, \
                (n, k, t, images)


@pytest.mark.parametrize("images", [[(0, 1, 2), ()], [(0, 1, 2), (1,)]])
def test_search_none_when_an_image_is_too_short(images):
    # w needs t + 1 = 2 colors on its composites, but has fewer than two
    assert _search_bad_coloring(3, 2, 1, images) is None


@pytest.mark.parametrize("n, k, t, images, expected", [
    (3, 3, 2, [(0, 1, 2)], (0, 1, 2)),
    (3, 2, 1, [(0, 1), (1, 2)], (0, 1, 0)),
    (3, 2, 1, [(0, 1), (1, 2), (0, 2)], None),   # an odd cycle
    (5, 3, 2, [(0, 1, 4), (2, 3, 4), (1, 3, 4)], (0, 1, 1, 0, 2)),
])
def test_search_restricts_tight_images_to_unseen_colors(n, k, t, images,
                                                        expected):
    assert _search_bad_coloring(n, k, t, images) == expected


def _search_with_branch_count(n, k, t, images):
    """The search's result and how often it branched on a color."""
    calls, previous = 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "assign":
            calls += 1

    sys.setprofile(profile)
    try:
        found = _search_bad_coloring(n, k, t, images)
    finally:
        sys.setprofile(previous)
    return found, calls


@pytest.mark.parametrize("ctx_name", ["chains", "msets", "ordered-msets"])
def test_search_is_blind_to_the_order_within_images(ctx_name):
    """Random arrows with A in B in C, |C| > 2 and t + 1 <= |hom(A, B)|,
    up to 9-element chains and M-sets: on each image listed sorted, in
    hom(A, B) order and shuffled, the search finds the same coloring
    with the same node count, which is the least cap that does not
    raise."""
    ctx, families = _small_objects(ctx_name)
    if ctx_name == "chains":
        families = [[omega(n) for n in range(9)]]
    else:   # the cofree M-set on three generators has 9 elements
        gens = omega(3) if ctx_name == "ordered-msets" else range(3)
        for family in families:
            family.append(cofree_mset(gens, family[0].monoid))
    rng = random.Random(ctx_name)
    outcomes = []
    while len(outcomes) < 40:
        objs = rng.choice(families)
        a = rng.choice([x for x in objs if 0 < x.size < 3])
        b = rng.choice([x for x in objs
                        if x.size > a.size and ctx.hom(a, x)])
        c = rng.choice([x for x in objs if x.size > 2 and ctx.hom(b, x)])
        hom_ac, hom_ab = ctx.hom(a, c), ctx.hom(a, b)
        k = rng.randint(2, 3)
        t = rng.randrange(1, k)
        if len(hom_ab) <= t:
            continue
        index = {f: i for i, f in enumerate(hom_ac)}
        in_hom_order = [tuple(index[compose_map(w, f)] for f in hom_ab)
                        for w in ctx.hom(b, c)]
        runs = set()
        for images in (in_hom_order,
                       [tuple(sorted(image)) for image in in_hom_order],
                       [tuple(rng.sample(image, len(image)))
                        for image in in_hom_order]):
            found, nodes = _search_with_branch_count(len(hom_ac), k, t,
                                                     images)
            runs.add((found, nodes))
            assert _search_bad_coloring(len(hom_ac), k, t, images,
                                        cap=nodes) == found
            with pytest.raises(_SearchCapReached):
                _search_bad_coloring(len(hom_ac), k, t, images,
                                     cap=nodes - 1)
        assert len(runs) == 1, (a, b, c, k, t)
        outcomes.append(runs.pop())
    # some arrows are refuted, and some searches branch more than once
    assert any(found for found, _ in outcomes)
    assert max(nodes for _, nodes in outcomes) > 5


def test_search_propagates_forced_colors_in_turn():
    # position 0 lies on an odd cycle of 2-color constraints through
    # positions 11..20; positions 1..10 are unconstrained. Only forcing
    # the cycle's colors one after another, before any of 1..10 is
    # branched on, refutes the only color position 0 may take at once.
    ring = [0, *range(11, 21), 0]
    images = [tuple(sorted(ring[i:i + 2])) for i in range(len(ring) - 1)]
    found, calls = _search_with_branch_count(21, 2, 1, images)
    assert found is None
    assert calls == 1


def test_pigeonhole_arrows_on_points():
    ctx = ChainContext()
    # a mono pair among c points with k colors exists iff c > k
    assert holds_arrow(omega(1), omega(2), omega(3), 2, 1, ctx).status == "holds"
    v = holds_arrow(omega(1), omega(2), omega(2), 2, 1, ctx)
    assert v.status == "refuted"
    assert coloring_is_bad(v.bad_coloring.colors,
                           composite_images(omega(1), omega(2), omega(2),
                                            ctx)[3], 1)


def test_arrow_beyond_recursion_depth_holds():
    # 1081 positions, more than the default recursion limit
    v = holds_arrow(omega(2), omega(3), omega(47), 2, 1, ChainContext(),
                    cap=5000)
    assert v.status == "holds"
    assert v.witness_stats["hom_AC"] == 1081


def test_arrow_refuted_by_forced_colors():
    # 8 -> (4)^3_2 fails since R(4,4;3) = 13; the first bad coloring
    # lies deep in the tree unless forced colors prune it
    ctx = ChainContext()
    v = holds_arrow(omega(3), omega(4), omega(8), 2, 1, ctx)
    assert v.status == "refuted"
    images = composite_images(omega(3), omega(4), omega(8), ctx)[3]
    assert coloring_is_bad(v.bad_coloring.colors, images, 1)


def test_vacuous_cases_and_priority():
    ctx = ChainContext()
    # hom(A, C) empty: holds, even though hom(B, C) is empty too
    v = holds_arrow(omega(3), omega(2), omega(1), 2, 1, ctx)
    assert v.status == "holds" and v.reason == "empty_hom_A_C"
    # hom(B, C) empty with hom(A, C) nonempty: refuted
    v = holds_arrow(omega(1), omega(3), omega(2), 2, 1, ctx)
    assert v.status == "refuted" and v.reason == "empty_hom_B_C"
    # t >= k is trivially satisfied
    v = holds_arrow(omega(1), omega(2), omega(2), 2, 2, ctx)
    assert v.status == "holds" and v.reason == "t_not_below_k"


def test_search_cap_zero_is_inconclusive():
    ctx = ChainContext()
    for c, hom_bc in ((omega(2), 1), (omega(3), 3)):
        v = holds_arrow(omega(1), omega(2), c, 2, 1, ctx, cap=0)
        assert v.status == "inconclusive" and v.bad_coloring is None
        assert v.reason == "search_nodes_exceed_cap_0"
        assert v.witness_stats == {"hom_AC": len(c), "hom_BC": hom_bc,
                                   "hom_AB": 2, "nodes": 0}


def test_search_cap_pins_nine_to_four():
    # 9 -> (4)^2_2 is refuted (R(4,4) = 18) after exactly 39 nodes
    ctx = ChainContext()
    v = holds_arrow(omega(2), omega(4), omega(9), 2, 1, ctx, cap=38)
    assert v.status == "inconclusive"
    assert v.reason == "search_nodes_exceed_cap_38"
    assert v.witness_stats["nodes"] == 38
    v = holds_arrow(omega(2), omega(4), omega(9), 2, 1, ctx, cap=39)
    assert v.status == "refuted" and v.reason == "bad_coloring_found"


@pytest.mark.parametrize("sizes,k", [
    ((2, 4, 9), 2), ((2, 3, 6), 2), ((2, 3, 5), 2), ((3, 4, 8), 2),
    ((1, 3, 7), 3)])
def test_search_cap_counts_branching_assignments(sizes, k):
    # a node is one call of `assign`; a search of exactly `cap` nodes
    # finishes, one node fewer runs out
    a, b, c = (omega(n) for n in sizes)
    ctx = ChainContext()
    hom_ac, _, _, images = composite_images(a, b, c, ctx)
    n = len(hom_ac)
    found, nodes = _search_with_branch_count(n, k, 1, images)
    assert _search_bad_coloring(n, k, 1, images, cap=nodes) == found
    v = holds_arrow(a, b, c, k, 1, ctx, cap=nodes)
    assert v.status == ("holds" if found is None else "refuted")
    v = holds_arrow(a, b, c, k, 1, ctx, cap=nodes - 1)
    assert v.status == "inconclusive"
    assert v.witness_stats["nodes"] == nodes - 1


# (sizes of A, B, C), k, nodes of the search with t = 1, and the bad
# coloring it finds (None: the arrow holds)
PINNED_SEARCHES = [
    ((3, 4, 8), 2, 158,
     "00000000011110010001111100001111110101010011000100000101"),
    ((2, 3, 11), 3, 8921,
     "0000011111112200111212110022111020100112022012020002220"),
    ((1, 7, 13), 2, 923, None),
    ((2, 4, 10), 2, 39175, "000000001000111101100110101010101001100010000"),
]


@pytest.mark.parametrize("sizes,k,nodes,coloring", PINNED_SEARCHES,
                         ids=["8-4-3-2", "11-3-2-3", "13-7-1-2", "10-4-2-2"])
def test_search_node_counts_and_colorings_are_pinned(sizes, k, nodes,
                                                     coloring):
    """Changes to the search's state must reach the same fixpoint: the
    same node count, checked at the least cap on both sides, and the
    same bad coloring."""
    a, b, c = (omega(n) for n in sizes)
    ctx = ChainContext()
    v = holds_arrow(a, b, c, k, 1, ctx, cap=nodes)
    if coloring is None:
        assert v.status == "holds"
    else:
        assert v.status == "refuted"
        assert "".join(map(str, v.bad_coloring.colors)) == coloring
    v = holds_arrow(a, b, c, k, 1, ctx, cap=nodes - 1)
    assert v.status == "inconclusive"
    assert v.witness_stats["nodes"] == nodes - 1


def _assert_no_reference_cycle(check):
    """Reference counting frees all that one check builds, so the cyclic
    collector finds nothing unreachable after it."""
    gc.collect()
    gc.disable()
    try:
        assert check()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _search_status(n, k, t, images, cap):
    try:
        found = _search_bad_coloring(n, k, t, images, cap)
    except _SearchCapReached:
        return "capped"
    return "holds" if found is None else "refuted"


@pytest.mark.parametrize("sizes,k,cap,status", [
    ((2, 4, 9), 2, None, "refuted"), ((1, 7, 13), 2, None, "holds"),
    ((2, 4, 9), 2, 38, "capped")], ids=["refuted", "holds", "capped"])
def test_search_leaves_no_reference_cycle(sizes, k, cap, status):
    a, b, c = (omega(n) for n in sizes)
    hom_ac, _, _, images = composite_images(a, b, c, ChainContext())
    _assert_no_reference_cycle(
        lambda: _search_status(len(hom_ac), k, 1, images, cap) == status)


def test_one_per_class_listing_leaves_no_reference_cycle():
    monoid = cyclic_group(3)
    _assert_no_reference_cycle(
        lambda: len(_all_actions(monoid, 3, one_per_class=True)) == 2)


def test_search_memory_does_not_grow_with_k():
    """No state of the search holds an entry per color or a k-bit mask:
    with 10**5 colors and 120 w the arrow is decided in a few MB."""
    tracemalloc.start()
    try:
        v = holds_arrow(omega(2), omega(3), omega(10), 10 ** 5, 1,
                        ChainContext(), cap=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.status == "refuted"
    assert peak < 5 * 10 ** 6


def test_find_witness_first_success():
    ctx = ChainContext()
    c = find_witness(omega(1), omega(2), 2, 1, ctx,
                     (omega(n) for n in range(1, 6)))
    assert len(c) == 3
    assert holds_arrow(omega(1), omega(2), c, 2, 1, ctx).status == "holds"
    assert find_witness(omega(1), omega(2), 5, 1, ctx,
                        (omega(n) for n in range(1, 4))) is None


def test_find_witness_raises_at_a_capped_arrow():
    """omega_6 -> (3)^2_2 holds (R(3,3) = 6), but 5 nodes decide no arrow
    past omega_3: the scan cannot tell that no C holds, so it fails
    loudly at omega_4 instead of giving None."""
    ctx = ChainContext()
    with pytest.raises(CapExceeded) as exc:
        find_witness(omega(2), omega(3), 2, 1, ctx,
                     (omega(n) for n in range(1, 10)), cap=5)
    assert str(exc.value) == ("the arrow at t=1, k=2, |B|=3, |C|=4 exceeds "
                              "the search cap 5")
    assert find_witness(omega(2), omega(3), 2, 1, ctx,
                        (omega(n) for n in range(1, 10))).size == 6


def test_mset_context_objects_counts():
    ctx = MSetContext()
    # one object per carrier size
    assert len(ctx.objects(_point(trivial_monoid()), 2)) == 2
    # carrier 1: identity action only; carrier 2: the two involutions
    sizes = [ms.size for ms in ctx.objects(_point(z2()), 2)]
    assert sizes.count(1) == 1 and sizes.count(2) == 2


def _brute_all_actions(monoid, n):
    """Reference: every table of n^(n(|M|-1)) checked in full, lex order."""
    e = monoid.identity
    free = [m for m in range(monoid.size) if m != e]
    out = []
    for choice in product(product(range(n), repeat=n), repeat=len(free)):
        table = [tuple(range(n))] * monoid.size
        for m, row in zip(free, choice):
            table[m] = row
        if all(table[m1][table[m2][a]] == table[monoid.mul(m2, m1)][a]
               for m1 in range(monoid.size) for m2 in range(monoid.size)
               for a in range(n)):
            out.append(tuple(table))
    return out


BRUTE_MONOIDS = [
    trivial_monoid, z2, lambda: cyclic_group(3), lambda: chain_semilattice(3),
    lambda: left_zero_monoid(2), lambda: truncated_powers(2),
    lambda: truncated_powers(3), lambda: left_zero_monoid(3),
    lambda: cyclic_group(4)]
BRUTE_IDS = ["trivial", "z2", "cyclic3", "chain3", "left_zero2", "powers2",
             "powers3", "left_zero3", "cyclic4"]


@pytest.mark.parametrize("make", BRUTE_MONOIDS, ids=BRUTE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_actions_matches_bruteforce(make, n):
    monoid = make()
    assert _all_actions(monoid, n) == _brute_all_actions(monoid, n)


def test_all_actions_on_every_three_element_monoid_table():
    """Both listings against the brute force, n <= 3, for each of the 33
    multiplication tables on {0, 1, 2} that make a monoid, whichever
    element is the identity."""
    monoids = []
    for e in range(3):
        for entries in product(range(3), repeat=9):
            try:
                monoids.append(validate_monoid(
                    3, [entries[i:i + 3] for i in (0, 3, 6)], e))
            except InputError:
                pass
    assert len(monoids) == 33
    for monoid in monoids:
        for n in range(4):
            tables = _brute_all_actions(monoid, n)
            assert _all_actions(monoid, n) == tables
            assert _all_actions(monoid, n, one_per_class=True) == sorted(
                {_canonical(t) for t in tables})


@pytest.mark.parametrize("k, n, count", [(3, 4, 9), (3, 5, 21), (4, 4, 16)])
def test_all_actions_of_cyclic_group_count_permutations(k, n, count):
    # a Z_k action is a permutation s of the carrier with s^k = id
    assert len(_all_actions(cyclic_group(k), n)) == count


def _relabel(table, p):
    """The table of the M-set on the carrier relabelled by p: p[x] goes
    to p[table[m][x]]."""
    out = []
    for row in table:
        new = [None] * len(row)
        for x, y in enumerate(row):
            new[p[x]] = p[y]
        out.append(tuple(new))
    return tuple(out)


def _canonical(table):
    """Reference: the lex-least relabelling of a table, over all n!."""
    n = len(table[0])
    return min(_relabel(table, p) for p in permutations(range(n)))


CLASS_MONOIDS = [trivial_monoid, z2, lambda: chain_semilattice(3),
                 lambda: cyclic_group(3), lambda: left_zero_monoid(2)]
CLASS_IDS = ["trivial", "z2", "chain3", "cyclic3", "left_zero2"]


def _check_one_per_class(monoid):
    """Against a brute-force canonical form: every table is isomorphic to
    exactly one listed M-set, and each listed table is its class's
    lex-least table. The classes come in the lex order of those tables,
    the order of their first tables in _all_actions. Returns the listing."""
    listed = MSetContext().objects(_point(monoid), 4)
    assert all(ms.carrier == tuple(range(ms.size)) for ms in listed)
    for n in range(1, 5):
        reps = [ms.action for ms in listed if ms.size == n]
        assert all(_canonical(t) == t for t in reps)
        assert reps == sorted(set(reps))
        assert {_canonical(t) for t in _all_actions(monoid, n)} == set(reps)
    return listed


@pytest.mark.parametrize("make", BRUTE_MONOIDS, ids=BRUTE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_per_class_lists_the_canonical_forms_of_the_bruteforce(make, n):
    monoid = make()
    canonical = {_canonical(t) for t in _brute_all_actions(monoid, n)}
    assert _all_actions(monoid, n, one_per_class=True) == sorted(canonical)


@pytest.mark.parametrize("make", CLASS_MONOIDS, ids=CLASS_IDS)
def test_mset_context_objects_lists_each_class_once(make):
    _check_one_per_class(make())


@pytest.mark.parametrize("make, classes", [
    (lambda: truncated_powers(3), 9), (lambda: cyclic_group(4), 4),
    (lambda: chain_semilattice(4), 43), (lambda: left_zero_monoid(3), 27)],
    ids=["powers3", "cyclic4", "chain4", "left_zero3"])
def test_lex_leader_listing_on_larger_monoids(make, classes):
    """The lex-leader cut inside _all_actions on larger monoids than
    CLASS_MONOIDS, which the probe sweep below uses; `classes` is the
    number of classes of size 4."""
    listed = _check_one_per_class(make())
    assert sum(ms.size == 4 for ms in listed) == classes


@pytest.mark.parametrize("make, n, classes", [
    (lambda: chain_semilattice(3), 4, 17),
    (lambda: chain_semilattice(3), 5, 37),
    (lambda: left_zero_monoid(2), 4, 10),
    (lambda: left_zero_monoid(2), 5, 24),
    (z2, 5, 3)],
    ids=["chain3-4", "chain3-5", "left_zero2-4", "left_zero2-5", "z2-5"])
def test_mset_context_objects_class_counts(make, n, classes):
    listed = MSetContext().objects(_point(make()), n)
    assert sum(ms.size == n for ms in listed) == classes


@pytest.mark.parametrize("make, classes", [
    (trivial_monoid, 4), (z2, 17), (lambda: chain_semilattice(2), 55),
    (lambda: chain_semilattice(3), 274), (lambda: cyclic_group(3), 14),
    (lambda: left_zero_monoid(2), 157)],
    ids=["trivial", "z2", "chain2", "chain3", "cyclic3", "left_zero2"])
def test_ordered_objects_list_each_class_once(make, classes):
    """Against a brute-force canonical form, each (table, order)
    relabelled by rank: the ordered listing holds every canonical form
    once, under the identity order. `classes` counts sizes 1..4."""
    monoid = make()
    listed = MSetContext().objects(_point(monoid, ordered=True), 4)
    assert all(ms.carrier == ms.order == tuple(range(ms.size))
               for ms in listed)
    canonical = set()
    for n in range(1, 5):
        for table in _brute_all_actions(monoid, n):
            for order in permutations(range(n)):
                rank = sorted(range(n), key=order.__getitem__)
                canonical.add(_relabel(table, rank))
    actions = [ms.action for ms in listed]
    assert len(set(actions)) == len(actions) == classes
    assert set(actions) == canonical


def _bracket(probe):
    return (probe.lower, probe.upper, probe.evidence["upper_source"],
            [(d["t"], d["k"], d["B_size"])
             for d in probe.evidence["defeats"]])


@pytest.mark.parametrize("budget", [TINY_BUDGET, SMALL_BUDGET],
                         ids=["tiny", "small"])
def test_probe_over_classes_matches_probe_over_every_table(budget,
                                                          every_mset):
    """One candidate per isomorphism class gives the same lower, upper and
    defeats (t, k, B_size) as every action table, for every A of at most
    2 elements."""
    checked = defeated = 0
    for make in CLASS_MONOIDS + [lambda: chain_semilattice(2)]:
        monoid = make()
        for a in every_mset(monoid, 2):
            ctx = MSetContext()
            by_class = probe_small_degree(a, ctx, budget=budget)
            ctx.objects = lambda a, max_size: every_mset(a.monoid, max_size)
            by_table = probe_small_degree(a, ctx, budget=budget)
            assert _bracket(by_class) == _bracket(by_table)
            checked += 1
            defeated += bool(by_table.evidence["defeats"])
    assert checked == 21 and defeated > 0


def test_mset_context_hom_and_arrow():
    m = trivial_monoid()
    one = with_order(validate_mset(m, (0,), [(0,)]))
    two = with_order(validate_mset(m, (0, 1), [(0, 1)]))
    three = with_order(validate_mset(m, (0, 1, 2), [(0, 1, 2)]))
    ctx = MSetContext()
    assert len(ctx.hom(one, three)) == 3
    assert holds_arrow(one, two, three, 2, 1, ctx).status == "holds"


def test_forest_context_hom():
    from msetramsey.forests import make_forest
    ctx = ForestContext()
    single = make_forest(("r",), (0,), (0,))
    path2 = make_forest(("r", "s"), (0, 0), (0, 1))
    homs = ctx.hom(single, path2)
    # a root must land on a root
    assert homs == [(0,)]


def test_ordered_forest_context_rejects_unordered_forest():
    from msetramsey.forests import enumerate_forests
    ordered, unordered = (enumerate_forests(2, ordered=o)[0]
                          for o in (True, False))
    for a, c in ((ordered, unordered), (unordered, ordered)):
        with pytest.raises(InputError, match="cannot mix"):
            ForestContext().hom(a, c)


def _brute_forest_homs(a, c, ordered):
    """Injective parent-preserving maps (order-preserving if asked)."""
    out = []
    for f in product(range(c.size), repeat=a.size):
        if len(set(f)) != a.size or any(
                f[a.parent[x]] != c.parent[f[x]] for x in range(a.size)):
            continue
        if ordered and any(
                c.order.index(f[x]) > c.order.index(f[y])
                for x in range(a.size) for y in range(a.size)
                if a.order.index(x) < a.order.index(y)):
            continue
        out.append(f)
    return out


@pytest.mark.parametrize("ordered", [True, False])
def test_forest_context_hom_matches_bruteforce(ordered):
    from msetramsey.forests import RootedForest, enumerate_forests, \
        fig1_forest
    ctx = ForestContext()
    targets = [c for n in range(5)
               for c in enumerate_forests(n, ordered=ordered)]
    fig1 = fig1_forest()
    targets.append(fig1 if ordered
                   else RootedForest(fig1.carrier, fig1.parent))
    for n in range(4):
        for a in enumerate_forests(n, ordered=ordered):
            for c in targets:
                assert ctx.hom(a, c) == _brute_forest_homs(a, c, ordered)
    if not ordered:
        return
    # orders other than the identity, so that order and position differ
    rng = random.Random(27)

    def shuffled(f):
        return RootedForest(f.carrier, f.parent,
                            tuple(rng.sample(range(f.size), f.size)))

    nonempty = 0
    for n in range(4):
        for a in enumerate_forests(n):
            for c in targets:
                a_star, c_star = shuffled(a), shuffled(c)
                homs = ctx.hom(a_star, c_star)
                assert homs == _brute_forest_homs(a_star, c_star, True)
                nonempty += bool(homs)
    assert nonempty > 500


def test_probe_small_degree_point_mset():
    m = trivial_monoid()
    one = validate_mset(m, (0,), [(0,)])
    probe = probe_small_degree(one, MSetContext(), budget=TINY_BUDGET)
    assert probe.lower == 1 and probe.upper == 1


def test_probe_small_degree_two_point_mset():
    m = trivial_monoid()
    two = validate_mset(m, (0, 1), [(0, 1)])
    probe = probe_small_degree(two, MSetContext(), budget=SMALL_BUDGET)
    assert probe.lower == 2 and probe.upper == 2
    assert probe.evidence["defeats"]


def test_probe_small_degree_lower_stops_at_max_k():
    m = trivial_monoid()
    three = validate_mset(m, (0, 1, 2), [(0, 1, 2)])
    probe = probe_small_degree(three, MSetContext(), budget=SMALL_BUDGET)
    assert (probe.lower, probe.upper) == (3, 6)
    assert probe.evidence["defeats"] == [
        {"t": 1, "k": 2, "B_size": 3, "candidates": 2},
        {"t": 2, "k": 3, "B_size": 3, "candidates": 2}]


def _never_listed(a, max_size):
    raise AssertionError("candidates listed although the bound is met")


@pytest.mark.parametrize("make, a", [
    (MSetContext, _point(chain_semilattice(3))),
    (MSetContext, _point(cyclic_group(3))),
    (MSetContext, _point(left_zero_monoid(2))),
    (MSetContext,
     with_order(validate_mset(trivial_monoid(), (0, 1), [(0, 1)]))),
    (MSetContext, with_order(validate_mset(z2(), (0, 1), [(0, 1)] * 2))),
    (ChainContext, omega(3)),
], ids=["semilattice3-point", "cyclic3-point", "left-zero2-point",
        "ordered-pair", "ordered-z2-fixed-pair", "chain3"])
def test_probe_lists_no_candidates_when_the_bound_is_met(make, a):
    ctx = make()
    ctx.objects = _never_listed
    probe = probe_small_degree(a, ctx, budget=SMALL_BUDGET)
    assert (probe.lower, probe.upper) == (1, 1)
    assert probe.evidence["defeats"] == []


def _counting_objects(ctx):
    calls = []
    listed = ctx.objects

    def objects(a, max_size):
        calls.append(max_size)
        return listed(a, max_size)
    ctx.objects = objects
    return calls


@pytest.mark.parametrize("make, candidates", [
    (lambda: chain_semilattice(3), 14), (lambda: cyclic_group(3), 3),
    (lambda: left_zero_monoid(2), 13), (z2, 4)],
    ids=["semilattice3", "cyclic3", "left-zero2", "z2"])
def test_probe_fixed_pair_evidence(make, candidates):
    """The degree 2 of a pair of fixed points, defeated by its own B."""
    m = make()
    ctx = MSetContext()
    calls = _counting_objects(ctx)
    pair = validate_mset(m, (0, 1), [(0, 1)] * m.size)
    probe = probe_small_degree(pair, ctx, budget=SMALL_BUDGET)
    assert (probe.lower, probe.upper) == (2, 2)
    assert probe.evidence == {
        "upper_source": "order_expansion_sum",
        "defeats": [{"t": 1, "k": 2, "B_size": 2,
                     "candidates": candidates}]}
    assert calls == [SMALL_BUDGET.max_c_size]


@pytest.mark.parametrize("make, candidates", [
    (lambda: chain_semilattice(3), 14), (lambda: cyclic_group(3), 3),
    (lambda: left_zero_monoid(2), 13)],
    ids=["semilattice3", "cyclic3", "left-zero2"])
def test_probe_lists_each_hom_set_once_and_keeps_none(monkeypatch, make,
                                                      candidates):
    """One MSetContext.hom call per (source, target) pair in a probe, with
    the evidence of test_probe_fixed_pair_evidence; once the probe
    returns, no candidate is kept alive."""
    calls = []
    hom = MSetContext.hom

    def counting_hom(self, a, c):
        calls.append((a, c))
        return hom(self, a, c)
    monkeypatch.setattr(MSetContext, "hom", counting_hom)
    ctx = MSetContext()
    refs = []

    def objects(a, max_size):
        listed = MSetContext.objects(ctx, a, max_size)
        refs.extend(map(weakref.ref, listed))
        return listed
    ctx.objects = objects
    m = make()
    pair = validate_mset(m, (0, 1), [(0, 1)] * m.size)
    probe = probe_small_degree(pair, ctx, budget=SMALL_BUDGET)
    assert probe.evidence == {
        "upper_source": "order_expansion_sum",
        "defeats": [{"t": 1, "k": 2, "B_size": 2,
                     "candidates": candidates}]}
    pairs = [(id(a), id(c)) for a, c in calls]
    assert len(pairs) == len(set(pairs)) > candidates
    calls.clear()
    assert refs and all(ref() is None for ref in refs)


FIXED_PAIR_MONOIDS = [lambda: chain_semilattice(3),
                      lambda: left_zero_monoid(2), lambda: cyclic_group(3),
                      z2]
FIXED_PAIR_IDS = ["semilattice3", "left-zero2", "cyclic3", "z2"]


def _fixed_pair(monoid):
    """The M-set of two fixed points over `monoid`."""
    return validate_mset(monoid, (0, 1), [(0, 1)] * monoid.size)


@pytest.mark.parametrize("make, homs, arrows", zip(
    FIXED_PAIR_MONOIDS, [28, 17, 6, 8], [10, 9, 1, 2]), ids=FIXED_PAIR_IDS)
def test_fixed_pair_probe_work_is_pinned(monkeypatch, make, homs, arrows):
    """The hom-sets a fixed-pair probe lists and the arrows it searches:
    one hom-set per pair of tables, and arrows only into the largest
    candidates, where a scan of every candidate took 49, 33, 11 and 15
    hom-sets and 14, 13, 3 and 4 arrows."""
    calls = {"hom": 0, "arrow": 0}
    hom = MSetContext.hom

    def counting_hom(self, a, c):
        calls["hom"] += 1
        return hom(self, a, c)

    def counting_arrow(*args, **kw):
        calls["arrow"] += 1
        return holds_arrow(*args, **kw)
    monkeypatch.setattr(MSetContext, "hom", counting_hom)
    monkeypatch.setattr(ramsey, "holds_arrow", counting_arrow)
    probe = probe_small_degree(_fixed_pair(make()), MSetContext(),
                               budget=SMALL_BUDGET)
    assert (probe.lower, probe.upper) == (2, 2)
    assert calls["hom"] <= homs and calls["arrow"] <= arrows


def test_hom_memo_shares_an_entry_between_equal_tables():
    """Two objects with equal tables and orders share one entry, whatever
    their carrier labels; another order is another entry. The memo keeps
    no object alive."""
    calls = []

    class Counting(MSetContext):
        def hom(self, a, c):
            calls.append((a.carrier, c.carrier))
            return super().hom(a, c)
    memo = _HomMemo(Counting())
    m = z2()
    a = validate_mset(m, ("x", "y"), [(0, 1)] * 2)
    b = validate_mset(m, (0, 1), [(0, 1)] * 2)
    c = validate_mset(m, (0, 1, 2, 3), [(0, 1, 2, 3), (0, 1, 3, 2)])
    homs = memo.hom(a, c)
    assert memo.hom(b, c) is homs and homs == [(0, 1), (1, 0)]
    assert calls == [(("x", "y"), (0, 1, 2, 3))]
    ordered = [with_order(x) for x in (a, b, c)]
    assert memo.hom(ordered[0], ordered[2]) == [(0, 1)]
    assert memo.hom(ordered[1], ordered[2]) == [(0, 1)]
    assert memo.hom(with_order(a, (1, 0)), ordered[2]) == [(1, 0)]
    assert len(calls) == 3
    refs = list(map(weakref.ref, [a, b, c, *ordered]))
    del a, b, c, ordered
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("make, pullbacks", zip(FIXED_PAIR_MONOIDS,
                                                 [91, 87, 36, 38]),
                         ids=FIXED_PAIR_IDS)
def test_refuted_largest_candidate_refutes_what_embeds_in_it(make,
                                                             pullbacks):
    """The lemma behind the scan of the largest candidates. For a fixed
    pair A = B, take the engine's bad coloring chi of hom(A, C) for each
    largest candidate C that contains B. Along each embedding e: C' -> C
    of a smaller candidate, f -> chi(e . f) is a bad coloring of
    hom(A, C'); `pullbacks` counts those with B in C'."""
    ctx = MSetContext()
    pair = _fixed_pair(make())
    candidates = ctx.objects(pair, SMALL_BUDGET.max_c_size)
    largest = [c for c in candidates if c.size == SMALL_BUDGET.max_c_size
               and ctx.hom(pair, c)]
    pulled = 0
    for c in largest:
        verdict = holds_arrow(pair, pair, c, 2, 1, ctx)
        assert verdict.status == "refuted"
        chi = verdict.bad_coloring.colors
        index = {f: i for i, f in enumerate(ctx.hom(pair, c))}
        for smaller in candidates:
            if smaller.size == c.size:
                continue
            hom_ac, _, _, images = composite_images(pair, pair, smaller, ctx)
            for e in ctx.hom(smaller, c):
                colors = [chi[index[compose_map(e, f)]] for f in hom_ac]
                assert coloring_is_bad(colors, images, 1)
                pulled += bool(images)
    assert pulled == pullbacks


def _scan_every_candidate(a, t, candidates, ctx, budget, cap):
    """The reference `_first_defeat`: `find_witness` scans every candidate
    C that contains B, and the hom(A, B) are listed up front."""
    bs = [(b, len(ctx.hom(a, b))) for b in candidates
          if b.size <= budget.max_b_size]
    for b, n_ab in bs:
        if n_ab <= t:
            continue
        cs = [c for c in candidates if ctx.hom(b, c)]
        for k in range(t + 1, budget.max_k + 1):
            if find_witness(a, b, k, t, ctx, cs, cap) is None:
                return dict(t=t, k=k, B_size=b.size, candidates=len(cs))
    return None


def _probe_outcome(a, budget, cap):
    try:
        probe = probe_small_degree(a, MSetContext(), budget=budget, cap=cap)
    except CapExceeded as exc:
        return str(exc)
    return probe.lower, probe.upper, probe.evidence


def test_probe_matches_the_scan_of_every_candidate(monkeypatch):
    """Every A of at most 3 elements, one per class, under three budgets
    and seven caps: the scan of the largest candidates gives the lower,
    upper and evidence of the scan of every candidate, or the same
    CapExceeded text."""
    grid = [(a, budget, cap)
            for make in CLASS_MONOIDS + [lambda: chain_semilattice(2)]
            for a in MSetContext().objects(_point(make()), 3)
            for budget in (TINY_BUDGET, SMALL_BUDGET, ProbeBudget(3, 5, 3))
            for cap in (None, 1, 2, 3, 5, 10, 30)]
    largest = [_probe_outcome(*case) for case in grid]
    monkeypatch.setattr(ramsey, "_first_defeat", _scan_every_candidate)
    assert largest == [_probe_outcome(*case) for case in grid]
    assert len(grid) == 756
    assert sum(isinstance(out, str) for out in largest) > 100
    assert sum(isinstance(out, tuple) and bool(out[2]["defeats"])
               for out in largest) > 100


def test_probe_raises_when_an_arrow_reaches_the_cap():
    """An inconclusive arrow leaves its (B, k) undecided, so the probe
    fails loudly instead of reporting a lower bound that is too low."""
    pair = validate_mset(z2(), (0, 1), [(0, 1)] * 2)
    with pytest.raises(CapExceeded) as exc:
        probe_small_degree(pair, MSetContext(), budget=SMALL_BUDGET, cap=3)
    assert str(exc.value) == ("degree probe: the arrow at t=1, k=2, "
                              "|B|=2, |C|=4 exceeds the search cap 3")


def test_probe_b_larger_than_every_candidate_c():
    """max_b_size 3 > max_c_size 2: a B of size 3 has no C to be
    refuted in, so a 3-chain keeps lower 1."""
    m = trivial_monoid()
    budget = ProbeBudget(3, 2, 3)
    pair = validate_mset(m, (0, 1), [(0, 1)])
    probe = probe_small_degree(pair, MSetContext(), budget=budget)
    assert (probe.lower, probe.upper) == (2, 2)
    assert probe.evidence["defeats"] == [
        {"t": 1, "k": 2, "B_size": 2, "candidates": 1}]
    three = validate_mset(m, (0, 1, 2), [(0, 1, 2)])
    probe = probe_small_degree(three, MSetContext(), budget=budget)
    assert (probe.lower, probe.upper) == (1, 6)
    assert probe.evidence["defeats"] == []
