"""The reduction f -> f* and the truncated big-Ramsey experiment."""

import json
import math
import random
from itertools import combinations, permutations

import pytest

from helpers import equivariance_of_pi, truncated_powers
from msetramsey import bigramsey
from msetramsey.bigramsey import (DEFAULT_NODE_CAP, ReductionResult,
                                  _combination_sums, _max_mono_subset,
                                  _pattern_keys, _reduction_key,
                                  _SearchCapReached,
                                  big_ramsey_reduce, lift_hom_size,
                                  pi_star, random_coloring,
                                  subchains_containing_min,
                                  unordered_degree_bound)
from msetramsey.chains import Chain, ChainEmbedding, omega
from msetramsey.cli import main
from msetramsey.errors import (CapExceeded, IncompleteFiber, InputError,
                               NotAnEmbedding, SizeOverflow,
                               TruncationTooSmall)
from msetramsey.expansion import fibers, forget_order
from msetramsey.monoid import (chain_semilattice, cyclic_group,
                               left_zero_monoid, trivial_monoid,
                               validate_monoid, z2)
from msetramsey.mset import (MSet, MSetMorphism, enumerate_embeddings,
                             validate_mset, with_order)
from msetramsey.ramsey import _all_actions
from msetramsey.transport import hat_E, hat_E_map


def _trivial_pair():
    return validate_mset(trivial_monoid(), ("a1", "a2"), [[0, 1]],
                         order=("a1", "a2"))


def _swap_pair():
    return validate_mset(z2(), ("a1", "a2"), [[0, 1], [1, 0]],
                         order=("a1", "a2"))


def test_subchains_containing_min_counts():
    assert [c.labels for c in subchains_containing_min(omega(1))] == [(0,)]
    assert [c.labels for c in subchains_containing_min(omega(2))] == \
        [(0,), (0, 1)]
    subs = subchains_containing_min(Chain(("a1", "a2", "a3")))
    assert [c.labels for c in subs] == [
        ("a1",), ("a1", "a2"), ("a1", "a3"), ("a1", "a2", "a3")]
    assert len(subchains_containing_min(omega(5))) == 2 ** 4
    with pytest.raises(InputError):
        subchains_containing_min(Chain(()))


def test_pi_star_trivial_monoid_is_identity_shadow():
    a = _trivial_pair()
    lift = hat_E(omega(5), trivial_monoid())
    for f in enumerate_embeddings(a, lift.lifted):
        rec = pi_star(f, lift)
        assert rec.rho_blocks == ((0,), (1,))
        assert rec.subchain.labels == ("a1", "a2")
        assert rec.ell == 1
        assert rec.f_star.map == tuple(lift.functions[x][0] for x in
                                       (f.map[0], f.map[1]))


def test_pi_star_collapsing_epsilon_values():
    """Equal epsilon-values merge into one rho block with one representative."""
    a = _swap_pair()
    lift = hat_E(omega(6), z2())
    h1 = lift.index[(3, 2)]
    h2 = lift.index[(3, 5)]
    f = MSetMorphism(a, lift.lifted, (h1, h2))
    rec = pi_star(f, lift)
    assert rec.rho_blocks == ((0, 1),)
    assert rec.subchain.labels == ("a1",)
    assert rec.ell == 0
    assert rec.f_star.map == (3,)


def test_pi_star_rejects_nonmonotone_and_noninjective():
    a = _swap_pair()
    lift = hat_E(omega(6), z2())
    f = MSetMorphism(a, lift.lifted,
                     (lift.index[(4, 0)], lift.index[(1, 2)]))
    with pytest.raises(NotAnEmbedding):
        pi_star(f, lift)
    g = MSetMorphism(a, lift.lifted,
                     (lift.index[(1, 2)], lift.index[(1, 2)]))
    with pytest.raises(NotAnEmbedding):
        pi_star(g, lift)


def _shadow(f, lift):
    """Oracle for the reduction: rho blocks grown one rank at a time."""
    a = f.source
    e = lift.lifted.monoid.identity
    eps = [lift.functions[f.map[x]][e] for x in a.order]
    blocks = []
    for i, v in enumerate(eps):
        if blocks and v == eps[blocks[-1][0]]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    ell = sum(1 << (b[0] - 1) for b in blocks[1:])
    return (tuple(tuple(b) for b in blocks), ell,
            tuple(eps[b[0]] for b in blocks))


def _small_ordered_msets(monoid, max_size):
    for n in range(1, max_size + 1):
        for action in _all_actions(monoid, n):
            ms = MSet(monoid, tuple(range(n)), tuple(map(tuple, action)))
            for order in permutations(range(n)):
                yield with_order(ms, order)


def test_reduction_key_matches_pi_star_on_small_lifts():
    checked = 0
    for m in (z2(), cyclic_group(3), chain_semilattice(2),
              left_zero_monoid(2), truncated_powers(2)):
        lifts = [hat_E(omega(n), m) for n in range(1, 5)]
        for a in _small_ordered_msets(m, 3):
            for lift in lifts:
                for f in enumerate_embeddings(a, lift.lifted):
                    key = _reduction_key(f.map, a.order, lift.functions,
                                         m.identity)
                    rec = pi_star(f, lift)
                    blocks, ell, image = _shadow(f, lift)
                    assert key == (rec.ell, rec.f_star.map) == (ell, image)
                    assert rec.rho_blocks == blocks
                    assert rec.subchain.labels == tuple(
                        a.carrier[a.order[b[0]]] for b in blocks)
                    checked += 1
    assert checked > 2000


def test_reduction_key_rejects_nonmonotone_and_noninjective():
    a = _swap_pair()
    lift = hat_E(omega(6), z2())
    args = (a.order, lift.functions, z2().identity)
    with pytest.raises(NotAnEmbedding, match="not monotone"):
        _reduction_key((lift.index[(4, 0)], lift.index[(1, 2)]), *args)
    with pytest.raises(NotAnEmbedding, match="not injective"):
        _reduction_key((lift.index[(1, 2)], lift.index[(1, 2)]), *args)


def _lift_monoids():
    """The monoids of the enumerator's differential grid; the last two are
    cyclic_group(3) and left_zero_monoid(2) under a non-default well-order."""
    c3, lz = cyclic_group(3), left_zero_monoid(2)
    return (trivial_monoid(), z2(), c3, chain_semilattice(2),
            chain_semilattice(3), lz, truncated_powers(2),
            *(validate_monoid(m.size, m.table, m.identity, (0, 2, 1))
              for m in (c3, lz)))


def test_pattern_keys_match_generic_engine():
    """The sorted keys are enumerate_embeddings' maps, in its order, read
    as base-N^|M| numbers; each pattern's keys, in combinations order of
    the images, carry that pattern and image as their _reduction_key; the
    closed-form size counts the same list."""
    checked = 0
    for m in _lift_monoids():
        lifts = [hat_E(omega(n), m) for n in range(1, 5)]
        for a in _small_ordered_msets(m, 3):
            for lift in lifts:
                n, q = len(lift.base), len(lift.functions)
                maps = {}
                for f in enumerate_embeddings(a, lift.lifted):
                    key = 0
                    for x in f.map:
                        key = key * q + x
                    maps[key] = f.map
                patterns = _pattern_keys(a, n, m.size)
                assert sorted(k for _, _, pk in patterns for k in pk) == \
                    list(maps)
                for ell, _, pk in patterns:
                    images = combinations(range(n), ell.bit_count() + 1)
                    for key, image in zip(pk, images, strict=True):
                        assert _reduction_key(maps[key], a.order,
                                              lift.functions,
                                              m.identity) == (ell, image)
                assert lift_hom_size(a, n) == len(maps)
                checked += len(maps)
    assert checked > 5000


def test_lift_hom_size_of_empty_source_is_one():
    a = validate_mset(trivial_monoid(), (), [[]], order=())
    lift = hat_E(omega(3), trivial_monoid())
    assert lift_hom_size(a, 3) == len(enumerate_embeddings(a, lift.lifted)) \
        == 1


def test_pi_star_epsilon_values_are_monotone_on_every_embedding():
    for a, m, n in ((_trivial_pair(), trivial_monoid(), 5),
                    (_swap_pair(), z2(), 4)):
        lift = hat_E(omega(n), m)
        e = m.identity
        for f in enumerate_embeddings(a, lift.lifted):
            eps = [lift.functions[f.map[x]][e] for x in a.order]
            assert eps == sorted(eps)
            pi_star(f, lift)  # must not raise


@pytest.mark.parametrize("a,monoid,big_n", [
    (_trivial_pair(), trivial_monoid(), 4),
    (_swap_pair(), z2(), 4)])
def test_pi_injective_exhaustively(a, monoid, big_n):
    for n in range(2, big_n + 1):
        lift = hat_E(omega(n), monoid)
        r = enumerate_embeddings(a, lift.lifted)
        keys = {(rec.ell, rec.f_star.map)
                for rec in (pi_star(f, lift) for f in r)}
        assert len(keys) == len(r)


def test_equivariance_of_pi_identity():
    a = _trivial_pair()
    lift = hat_E(omega(4), trivial_monoid())
    u = ChainEmbedding(omega(4), omega(4), (0, 1, 2, 3))
    assert equivariance_of_pi(u, a, lift, lift)


def test_equivariance_of_pi_trivial_shift():
    a = _trivial_pair()
    m = trivial_monoid()
    l4, l5 = hat_E(omega(4), m), hat_E(omega(5), m)
    u = ChainEmbedding(omega(4), omega(5), (1, 2, 3, 4))
    assert equivariance_of_pi(u, a, l4, l5)


def test_equivariance_of_pi_z2():
    a = _swap_pair()
    l3, l4 = hat_E(omega(3), z2()), hat_E(omega(4), z2())
    u = ChainEmbedding(omega(3), omega(4), (0, 2, 3))
    assert equivariance_of_pi(u, a, l3, l4)


def test_max_mono_subset_singletons():
    got = _max_mono_subset(range(5), 1, [0, 1, 1, 1, 0])
    assert got == [1, 2, 3]


def test_max_mono_subset_pairs_is_max_clique():
    # color pairs by parity of the sum: even-sum pairs form cliques on
    # the odds and on the evens of {0..5}
    got = _max_mono_subset(range(6), 2, [(x + y) % 2 for x, y in
                                         combinations(range(6), 2)])
    assert len(got) == 3
    assert all((x + y) % 2 == 0 for x in got for y in got if x < y)


def test_max_mono_subset_vacuous_below_arity():
    assert _max_mono_subset([3], 2, []) == [3]


def _recursive_max_mono_subset(points, arity, color_of):
    """The depth-first search the bitset search replaced, kept as a judge."""
    points = sorted(points)
    if len(points) < arity:
        return points
    if arity == 1:
        classes = {}
        for x in points:
            classes.setdefault(color_of((x,)), []).append(x)
        best_color = max(classes, key=lambda c: (len(classes[c]), -c))
        return classes[best_color]

    table = {sub: color_of(sub) for sub in combinations(points, arity)}
    colors = sorted(set(table.values()))
    best = []

    def grow(c, chosen, rest):
        nonlocal best
        if len(chosen) + len(rest) <= len(best):
            return
        if not rest:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        x, rest = rest[0], rest[1:]
        if len(chosen) < arity - 1 or all(
                table[sub + (x,)] == c
                for sub in combinations(chosen, arity - 1)):
            grow(c, chosen + (x,), rest)
        grow(c, chosen, rest)

    for c in colors:
        grow(c, (), tuple(points))
    return best


def _bruteforce_max_mono_subset(points, arity, color_of):
    """Oracle: the rule itself, applied to every subset of the points."""
    points = sorted(points)
    if len(points) < arity:
        return points
    keys = []
    for size in range(arity, len(points) + 1):
        for t in combinations(points, size):
            colors = {color_of(sub) for sub in combinations(t, arity)}
            if len(colors) == 1:
                keys.append((-size, colors.pop(), t))
    return list(min(keys)[2])


def _random_instances(seed, count, max_points):
    """Seeded (points, arity, table): dense colourings spread the colours
    evenly, sparse ones give colour 0 to about nine subsets in ten. The
    table lists the subsets of the sorted points in combinations order,
    so its values are the colour sequence _max_mono_subset takes."""
    rng = random.Random(seed)
    for _ in range(count):
        points = rng.sample(range(3 * max_points), rng.randint(0, max_points))
        arity, k = rng.randint(1, 4), rng.randint(1, 3)
        dense = rng.random() < 0.5
        table = {sub: rng.randrange(k) if dense or rng.random() < 0.1 else 0
                 for sub in combinations(sorted(points), arity)}
        yield points, arity, table


def test_max_mono_subset_matches_recursive_search():
    for points, arity, table in _random_instances(1, 1600, 14):
        assert _max_mono_subset(points, arity, list(table.values())) == \
            _recursive_max_mono_subset(points, arity, table.__getitem__)


def test_max_mono_subset_matches_bruteforce_rule():
    for points, arity, table in _random_instances(2, 400, 8):
        assert _max_mono_subset(points, arity, list(table.values())) == \
            _bruteforce_max_mono_subset(points, arity, table.__getitem__)


def test_max_mono_subset_beyond_recursion_depth():
    assert _max_mono_subset(range(1100), 2, [0] * math.comb(1100, 2)) == \
        list(range(1100))


def _stack_max_mono_subset(points, arity, colors):
    """The include/exclude bitset search that the two-phase search (arity
    2) and the loop-form search (arity >= 3) replaced, kept verbatim as a
    judge.

    `colors` lists the colors of the arity-subsets of the sorted points,
    in combinations order. The rule that picks among the candidates: the
    largest size first, then the least color, then the lex-least sorted
    set. Vacuous when there are fewer than `arity` points.

    For arity >= 2 this is a branch and bound over candidate bitsets, as
    in max-clique solvers (Carraghan & Pardalos 1990; San Segundo et al.
    2011), with only the size bound. Bit y of masks[P] is set when
    P + (y,) has color c, for each (arity-1)-subset P of point positions
    and y > P[-1]; those subsets are one contiguous run of `colors`. The
    search branches on the least candidate, including it before
    excluding it, so the first set of the largest size it meets is the
    lex-least; it tries the colors in increasing order and only strict
    size improvements replace the incumbent.
    """
    points = sorted(points)
    if len(points) < arity:
        return points
    if arity == 1:
        classes = {}
        for x, c in zip(points, colors):
            classes.setdefault(c, []).append(x)
        best_color = max(classes, key=lambda c: (len(classes[c]), -c))
        return classes[best_color]

    n = len(points)
    runs = []   # (prefix, least y, its run as a slice of reversed colors)
    end = len(colors)
    for prefix in combinations(range(n - 1), arity - 1):
        lo = prefix[-1] + 1
        runs.append((prefix, lo, end - (n - lo), end))
        end -= n - lo
    best = ()
    for c in sorted(set(colors)):
        # the colors read backwards as a binary numeral, 1 where c
        flags = "".join(["1" if x == c else "0" for x in reversed(colors)])
        mask_of = {prefix: int(flags[start:stop], 2) << lo
                   for prefix, lo, start, stop in runs}
        stack = [((), (1 << n) - 1)]
        while stack:
            chosen, cand = stack.pop()
            if len(chosen) + cand.bit_count() <= len(best):
                continue
            if not cand:
                best = chosen
                continue
            low = cand & -cand
            x = low.bit_length() - 1
            rest = cand ^ low
            stack.append((chosen, rest))
            for sub in combinations(chosen, arity - 2):
                rest &= mask_of.get(sub + (x,), 0)
                if not rest:
                    break
            stack.append((chosen + (x,), rest))
    return [points[i] for i in best]


def _pair_colors(seed, n, k, skewed):
    """Seeded colors of the pairs of n points: spread evenly, or, when
    skewed, color 0 on about three pairs in five and the other colors
    spread over the rest, so that their graphs are sparse for k = 3."""
    rng = random.Random(seed)
    return [0 if skewed and rng.random() < 0.6 else
            rng.randrange(skewed, k) for _ in range(math.comb(n, 2))]


@pytest.mark.parametrize("n,k,skewed", [
    (180, 2, False), (200, 3, False), (150, 2, True), (150, 3, True)])
def test_max_mono_subset_pairs_match_stack_search(n, k, skewed):
    colors = _pair_colors(n, n, k, skewed)
    assert _max_mono_subset(range(n), 2, colors) == \
        _stack_max_mono_subset(range(n), 2, colors)


def test_max_mono_subset_arity_5():
    rng = random.Random(5)
    for _ in range(60):
        n, k = rng.randint(0, 12), rng.randint(1, 3)
        points = rng.sample(range(40), n)
        dense = rng.random() < 0.5
        colors = [rng.randrange(k) if dense or rng.random() < 0.1 else 0
                  for _ in range(math.comb(n, 5))]
        got = _max_mono_subset(points, 5, colors)
        assert got == _stack_max_mono_subset(points, 5, colors)
        if n <= 9:
            table = dict(zip(combinations(sorted(points), 5), colors))
            assert got == _bruteforce_max_mono_subset(points, 5,
                                                      table.__getitem__)


@pytest.mark.parametrize("n,arity", [(24, 3), (16, 4), (13, 5), (12, 6)])
@pytest.mark.parametrize("k", [2, 3])
def test_max_mono_subset_hyperedges_match_stack_search(n, arity, k):
    """At the sizes of the benchmark's pigeonhole steps and beyond."""
    rng = random.Random(100 * n + 10 * arity + k)
    colors = [rng.randrange(k) for _ in range(math.comb(n, arity))]
    assert _max_mono_subset(range(n), arity, colors) == \
        _stack_max_mono_subset(range(n), arity, colors)


def _least_cap(points, arity, colors):
    """The fewest search nodes that _max_mono_subset finishes within."""
    low, high = 0, 1
    while True:
        try:
            _max_mono_subset(points, arity, colors, cap=high)
            break
        except _SearchCapReached:
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            _max_mono_subset(points, arity, colors, cap=mid)
            high = mid
        except _SearchCapReached:
            low = mid + 1
    return low


@pytest.mark.parametrize("n,arity", [(60, 2), (20, 3), (13, 4)])
def test_max_mono_subset_cap_counts_nodes(n, arity):
    """Below the nodes it needs the search raises, from there on it
    returns the uncapped answer."""
    rng = random.Random(n)
    colors = [rng.randrange(2) for _ in range(math.comb(n, arity))]
    want = _max_mono_subset(range(n), arity, colors)
    nodes = _least_cap(range(n), arity, colors)
    assert 0 < nodes < DEFAULT_NODE_CAP
    for cap in (nodes, nodes + 1, None):
        assert _max_mono_subset(range(n), arity, colors, cap=cap) == want
    with pytest.raises(_SearchCapReached):
        _max_mono_subset(range(n), arity, colors, cap=nodes - 1)


@pytest.mark.parametrize("n,arity,k,seed,nodes,size", [
    (60, 2, 2, 1, 177, 8), (80, 2, 2, 2, 232, 10), (24, 3, 2, 3, 1259, 6),
    (16, 4, 2, 4, 1345, 5), (40, 2, 3, 5, 69, 5), (16, 3, 3, 6, 458, 4),
    (13, 5, 2, 7, 875, 6)])
def test_max_mono_subset_node_counts_are_pinned(n, arity, k, seed, nodes,
                                               size):
    """The fewest nodes each seeded instance finishes within, recorded
    when every color's graph was built from its own flags: the second of
    two colors searches the complement of the first's graph, node for
    node, and a third color keeps its own."""
    rng = random.Random(seed)
    colors = [rng.randrange(k) for _ in range(math.comb(n, arity))]
    assert _least_cap(range(n), arity, colors) == nodes
    assert len(_max_mono_subset(range(n), arity, colors)) == size


def test_max_mono_subset_greedy_set_needs_no_nodes():
    assert _max_mono_subset(range(30), 2, [1] * math.comb(30, 2),
                            cap=0) == list(range(30))


def test_big_ramsey_reduce_cap_names_step(capsys, tmp_path):
    a = _trivial_pair()
    chi = random_coloring(lift_hom_size(a, 40), 2, 3)
    with pytest.raises(CapExceeded, match=r"^pigeonhole step 2 \(arity 2, "
                       r"40 points\) used 5 search nodes, its cap$"):
        big_ramsey_reduce(a, chi, 2, 40, cap=5)
    assert big_ramsey_reduce(a, chi, 2, 40, cap=10 ** 4) == \
        big_ramsey_reduce(a, chi, 2, 40)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({
        "monoid": {"size": 1, "identity": 0, "table": [[0]]},
        "carrier": [0, 1, 2], "action": [[0, 1, 2]], "order": [0, 1, 2]}))
    argv = ["bigramsey", "--A", str(path), "--N", "12", "--k", "2"]
    assert main(argv + ["--cap", "3"]) == 2
    assert capsys.readouterr().err == (
        "cap exceeded: pigeonhole step 4 (arity 3, 12 points) used 3 search "
        "nodes, its cap\n")
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert main(argv + ["--cap", str(10 ** 4)]) == 0
    assert capsys.readouterr().out == report
    assert main(argv + ["--cap", "-1"]) == 1


def test_big_ramsey_reduce_single_point():
    a = validate_mset(trivial_monoid(), ("a1",), [[0]], order=("a1",))
    lift = hat_E(omega(4), trivial_monoid())
    r = enumerate_embeddings(a, lift.lifted)
    res = big_ramsey_reduce(a, random_coloring(len(r), 3, 0), 3, 4)
    assert res.bound == 1 and res.colors_used <= 1


def test_big_ramsey_reduce_trivial_pairs():
    a = _trivial_pair()
    lift = hat_E(omega(12), trivial_monoid())
    r_size = len(enumerate_embeddings(a, lift.lifted))
    for seed in range(3):
        chi = random_coloring(r_size, 4, seed)
        res = big_ramsey_reduce(a, chi, 4, 12)
        assert res.colors_used <= res.bound == 2
        assert res.tower[0] == 12
        assert all(x >= y for x, y in zip(res.tower, res.tower[1:]))


def test_big_ramsey_reduce_z2_swap():
    a = _swap_pair()
    lift = hat_E(omega(5), z2())
    r_size = len(enumerate_embeddings(a, lift.lifted))
    assert r_size == 10
    for seed in range(3):
        res = big_ramsey_reduce(a, random_coloring(r_size, 3, seed), 3, 5)
        assert res.colors_used <= 2


def test_big_ramsey_reduce_validates_coloring():
    a = _trivial_pair()
    with pytest.raises(InputError):
        big_ramsey_reduce(a, (0, 1), 2, 4)  # wrong length
    lift = hat_E(omega(4), trivial_monoid())
    n = len(enumerate_embeddings(a, lift.lifted))
    for bad in (9, 2, -1):   # colors out of range for k = 2
        with pytest.raises(InputError, match="out of range"):
            big_ramsey_reduce(a, (bad,) * n, 2, 4)


def test_big_ramsey_reduce_rejects_empty_source():
    a = validate_mset(trivial_monoid(), (), [[]], order=())
    with pytest.raises(InputError, match="no least element"):
        big_ramsey_reduce(a, (0,), 2, 4)


def test_big_ramsey_reduce_r_cap():
    a = _trivial_pair()
    with pytest.raises(SizeOverflow):
        big_ramsey_reduce(a, (), 2, 20, r_cap=10)


def test_r_cap_checked_before_enumeration(monkeypatch, capsys, tmp_path):
    def no_enumeration(*args):
        raise AssertionError("R enumerated past the cap")

    monkeypatch.setattr(bigramsey, "enumerate_embeddings", no_enumeration)
    monkeypatch.setattr(bigramsey, "_pattern_keys", no_enumeration)
    a = validate_mset(trivial_monoid(), (0, 1, 2), [[0, 1, 2]],
                      order=(0, 1, 2))
    with pytest.raises(SizeOverflow, match="size 1313400, exceeding cap 10"):
        big_ramsey_reduce(a, (), 2, 200, r_cap=10)
    assert lift_hom_size(a, 200, r_cap=1313400) == 1313400
    with pytest.raises(SizeOverflow):
        lift_hom_size(a, 200, r_cap=1313399)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({
        "monoid": {"size": 1, "identity": 0, "table": [[0]]},
        "carrier": [0, 1, 2], "action": [[0, 1, 2]], "order": [0, 1, 2]}))
    assert main(["bigramsey", "--A", str(path), "--N", "200", "--k", "2",
                 "--r-cap", "10"]) == 2
    assert "size 1313400, exceeding cap 10" in capsys.readouterr().err


def test_recount_names_a_copy_missing_from_r(monkeypatch):
    monkeypatch.setattr(bigramsey, "_pattern_keys", lambda a, n, msize: [])
    with pytest.raises(InputError, match=r"pushed copy \(0, 1\) is not in"):
        big_ramsey_reduce(_trivial_pair(), (), 2, 3)


def test_big_ramsey_reduce_truncation_too_small():
    a = _trivial_pair()
    with pytest.raises(TruncationTooSmall):
        big_ramsey_reduce(a, (), 2, 1)


def _realized_patterns(a_star):
    """The ells of the embeddings of A into hat_E(omega_s), s = |A|: a
    pattern has at most s blocks, so every realized one shows up there."""
    m = a_star.monoid
    lift = hat_E(omega(a_star.size), m)
    return {_reduction_key(f.map, a_star.order, lift.functions,
                           m.identity)[0]
            for f in enumerate_embeddings(a_star, lift.lifted)}


def _reference_reduce(a_star, chi, k, big_n):
    """The reduction before integer keys, kept as a judge: R as map
    tuples with their (ell, image) keys, a gamma dict on those keys, one
    color_of closure per pigeonhole step and the recursive search. A
    step runs for each realized pattern and no other, top down."""
    m = a_star.monoid
    s = a_star.size
    realized = _realized_patterns(a_star)
    lift = hat_E(omega(big_n), m)
    r = [(f.map, _reduction_key(f.map, a_star.order, lift.functions,
                                m.identity))
         for f in enumerate_embeddings(a_star, lift.lifted)]
    colors = tuple(chi)
    if len(colors) != len(r):
        raise InputError("coloring has the wrong length")
    if any(not (0 <= c < k) for c in colors):
        raise InputError("coloring value out of range")
    gamma = {key: c for (_, key), c in zip(r, colors)}
    n = 1 << (s - 1)
    outer = list(range(big_n))
    tower = [big_n]
    step_colors = []
    for i in range(n - 1, -1, -1):
        if i not in realized:
            continue
        arity = i.bit_count() + 1

        def color_of(subset, i=i):
            return gamma[i, tuple(outer[x] for x in subset)]

        mono = _recursive_max_mono_subset(range(len(outer)), arity, color_of)
        if len(mono) < s:
            raise TruncationTooSmall(
                i + 1, f"monochromatic subset has size {len(mono)} < {s}")
        step_colors.append(color_of(tuple(mono[:arity])))
        outer = [outer[x] for x in mono]
        tower.append(len(mono))
    u = ChainEmbedding(omega(len(outer)), omega(big_n), tuple(outer))
    lift_small = hat_E(omega(len(outer)), m)
    r_small = enumerate_embeddings(a_star, lift_small.lifted)
    if not r_small:
        raise TruncationTooSmall(
            0, "the final truncation contains no copy of A")
    eu = hat_E_map(u, lift_small, lift)
    index = {f_map: i for i, (f_map, _) in enumerate(r)}
    seen = {colors[index[tuple(eu.map[x] for x in f.map)]] for f in r_small}
    return ReductionResult(u, len(seen), n, tuple(tower),
                           tuple(reversed(step_colors)), len(r))


def _outcome(reduce, *args):
    try:
        return reduce(*args).to_json()
    except TruncationTooSmall as exc:
        return str(exc)


def test_reduce_matches_reference_reduction():
    """Same result or the same TruncationTooSmall as the gamma/color_of
    reduction, for two seeded kinds of coloring: random_coloring, and a
    color drawn from each map table in R's order."""
    rng = random.Random(9)
    sources = [a for m in (trivial_monoid(), z2(), cyclic_group(3),
                           chain_semilattice(2), left_zero_monoid(2))
               for a in _small_ordered_msets(m, 3)]
    sources += [validate_mset(trivial_monoid(), (0, 1, 2, 3),
                              [[0, 1, 2, 3]], order=(0, 1, 2, 3))] * 4
    outcomes = set()
    for i, a in enumerate(sources):
        big_n, k = rng.randrange(11), rng.randint(1, 3)
        seed = rng.randrange(99)
        if i % 2:
            chi = random_coloring(lift_hom_size(a, big_n), k, seed)
        else:
            lift = hat_E(omega(big_n), a.monoid)
            chi = [random.Random(f"{seed}{f.map}").randrange(k)
                   for f in enumerate_embeddings(a, lift.lifted)]
        got = _outcome(big_ramsey_reduce, a, chi, k, big_n)
        assert got == _outcome(_reference_reduce, a, chi, k, big_n)
        outcomes.add((i % 2, isinstance(got, str)))
    assert len(outcomes) == 4


def test_swap_pair_plus_fixed_point_runs_two_steps():
    """a <-> b swapped, c fixed, a < b < c: the pattern ell = 1 (blocks
    {a}, {b, c}) and the all-distinct ell = 3 are realized, ell = 0 and
    ell = 2 are not, so the tower has two steps."""
    a = validate_mset(z2(), ("a", "b", "c"), [[0, 1, 2], [1, 0, 2]],
                      order=("a", "b", "c"))
    assert _realized_patterns(a) == {1, 3}
    chi = random_coloring(lift_hom_size(a, 9), 2, 4)
    res = big_ramsey_reduce(a, chi, 2, 9)
    assert len(res.tower) == 3 and len(res.step_colors) == 2
    assert res.bound == 4 and res.colors_used <= 2


def test_one_step_per_realized_pattern():
    """Over every ordering of every M-set of size at most 3 over six
    monoids, N = 0..7: one tower step and one step color per realized
    pattern, at most that many colors, and the bound 2^(s-1)."""
    runs, step_counts = 0, set()
    for m in (trivial_monoid(), z2(), cyclic_group(3), chain_semilattice(2),
              chain_semilattice(3), left_zero_monoid(2)):
        for a in _small_ordered_msets(m, 3):
            realized = len(_realized_patterns(a))
            for big_n in range(8):
                chi = random_coloring(lift_hom_size(a, big_n), 2, big_n)
                try:
                    res = big_ramsey_reduce(a, chi, 2, big_n)
                except TruncationTooSmall:
                    continue
                assert len(res.tower) - 1 == len(res.step_colors) == realized
                assert res.colors_used <= realized
                assert res.bound == 2 ** (a.size - 1)
                runs += 1
                step_counts.add(realized)
    assert runs > 1000 and step_counts == {1, 2, 3}


def test_combination_sums_match_brute_force():
    """Random increasing point lists, from none to as many blocks as
    points, and the full range(n) that lists R's keys."""
    rng = random.Random(38)
    cases = [([], 1), ([], 3), ([4], 1), ([2, 5], 2), ([0, 3, 7], 3)]
    for _ in range(200):
        points = sorted(rng.sample(range(40), rng.randrange(1, 10)))
        cases.append((points, rng.randrange(1, len(points) + 2)))
    cases += [(range(n), b) for n in range(8) for b in range(1, n + 2)]
    for points, b in cases:
        weights = [rng.randrange(-50, 10 ** 6) for _ in range(b)]
        assert _combination_sums(weights, points) == [
            sum(w * x for w, x in zip(weights, c))
            for c in combinations(points, b)]


def test_bigramsey_colors_beyond_a_byte(capsys, tmp_path):
    """--k 300 with colors 256-299; the verdicts were recorded before
    integer keys replaced the gamma dict, less the idle steps' entries."""
    cases = {
        "trivial-3-chain": ([[0]], [[0, 1, 2]], 12, {
            "R_size": 220, "bound": 4, "colors_used": 1, "seed": None,
            "step_colors": [256], "tower": [12, 4],
            "u": [0, 2, 5, 10]}),
        "z2-swap-pair": ([[0, 1], [1, 0]], [[0, 1], [1, 0]], 20, {
            "R_size": 190, "bound": 2, "colors_used": 1, "seed": None,
            "step_colors": [280], "tower": [20, 5],
            "u": [0, 2, 8, 14, 15]}),
    }
    for name, (table, action, big_n, trial) in cases.items():
        s = len(action[0])
        a_path, c_path = tmp_path / f"{name}.json", tmp_path / "col.json"
        a_path.write_text(json.dumps({
            "monoid": {"size": len(table), "identity": 0, "table": table},
            "carrier": list(range(s)), "action": action,
            "order": list(range(s))}))
        rng = random.Random(300)
        c_path.write_text(json.dumps(
            [rng.choice((256, 280, 299))
             for _ in range(trial["R_size"])]))
        assert main(["bigramsey", "--A", str(a_path), "--N", str(big_n),
                     "--k", "300", "--coloring", str(c_path)]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts == {"all_within_bound": True, "bound": trial["bound"],
                            "max_colors_used": 1, "trials": [trial]}


def test_unordered_degree_bound():
    a = forget_order(_trivial_pair())
    degrees = {f.order: 2 for f in fibers(a)}
    agg = unordered_degree_bound(a, degrees)
    assert agg.aggregate == 4 == agg.formula
    assert agg.within_formula
    with pytest.raises(IncompleteFiber):
        unordered_degree_bound(a, {(0, 1): 2})
    one = validate_mset(trivial_monoid(), ("a",), [[0]])
    agg1 = unordered_degree_bound(one, {(0,): 1})
    assert agg1.aggregate == 1 == agg1.formula


def test_random_coloring_is_the_randrange_stream():
    for k in (1, 2, 3, 7, 8, 255, 256, 257, 300):
        for size in (0, 1, 7, 3000):
            for seed in (0, 1, 11, 2 ** 31 - 1):
                rng = random.Random(seed)
                assert random_coloring(size, k, seed) == tuple(
                    rng.randrange(k) for _ in range(size))


# The six configurations of the benchmark's bigramsey workload at smaller
# N: (monoid table, action, order, N). Each runs `bigramsey --k 2
# --trials 3 --seed 11` on its carrier as given and reversed.
GOLDEN_CONFIGS = {
    "trivial-2-chain": ([[0]], [[0, 1]], [0, 1], 20),
    "trivial-3-chain": ([[0]], [[0, 1, 2]], [0, 1, 2], 14),
    "trivial-4-chain": ([[0]], [[0, 1, 2, 3]], [0, 1, 2, 3], 11),
    "z2-swap-pair": ([[0, 1], [1, 0]], [[0, 1], [1, 0]], [0, 1], 16),
    "z2-swap-pair+fixed": ([[0, 1], [1, 0]], [[0, 1, 2], [1, 0, 2]],
                           [0, 2, 1], 11),
    "semilattice2-pair": ([[0, 1], [1, 1]], [[0, 1], [1, 1]], [0, 1], 20),
}
# Recorded before the bitset search, the reduction key and the target
# intervals replaced the old code: per listing, per trial,
# [u, tower, step_colors, colors_used, R_size]. Each configuration
# realizes only its all-distinct pattern, so the idle steps the old code
# ran for the other patterns (keeping every point, color 0) are left out.
GOLDEN_TRIALS = {
    "trivial-2-chain": [
        [[[0, 4, 5, 13, 16, 19], [20, 6], [0], 1, 190],
         [[1, 6, 8, 10, 13, 17], [20, 6], [0], 1, 190],
         [[1, 2, 8, 12, 15, 19], [20, 6], [1], 1, 190]],
        [[[2, 5, 9, 12, 16, 17], [20, 6], [0], 1, 190],
         [[2, 3, 6, 7, 11, 14], [20, 6], [0], 1, 190],
         [[0, 3, 7, 13, 19], [20, 5], [0], 1, 190]]],
    "trivial-3-chain": [
        [[[0, 2, 3, 7, 8], [14, 5], [0], 1, 364],
         [[3, 8, 9, 11, 13], [14, 5], [1], 1, 364],
         [[0, 1, 7, 10, 13], [14, 5], [0], 1, 364]],
        [[[0, 3, 4, 7, 13], [14, 5], [0], 1, 364],
         [[0, 1, 2, 12, 13], [14, 5], [1], 1, 364],
         [[1, 5, 8, 10, 13], [14, 5], [0], 1, 364]]],
    "trivial-4-chain": [
        [[[0, 1, 3, 6, 7], [11, 5], [0], 1, 330],
         [[0, 1, 4, 5, 9], [11, 5], [0], 1, 330],
         [[0, 1, 2, 5, 9], [11, 5], [0], 1, 330]],
        [[[0, 1, 2, 7, 8], [11, 5], [0], 1, 330],
         [[0, 1, 2, 5, 6], [11, 5], [0], 1, 330],
         [[0, 1, 3, 4, 8], [11, 5], [0], 1, 330]]],
    "z2-swap-pair": [
        [[[0, 5, 7, 8, 12], [16, 5], [0], 1, 120],
         [[2, 8, 9, 10, 11], [16, 5], [0], 1, 120],
         [[0, 7, 8, 10, 14], [16, 5], [0], 1, 120]],
        [[[3, 11, 12, 13, 14], [16, 5], [0], 1, 120],
         [[2, 3, 6, 7, 11, 14], [16, 6], [0], 1, 120],
         [[0, 5, 8, 9, 14], [16, 5], [1], 1, 120]]],
    "z2-swap-pair+fixed": [
        [[[0, 2, 6, 7, 8], [11, 5], [0], 1, 165],
         [[0, 1, 4, 7], [11, 4], [0], 1, 165],
         [[1, 2, 5, 6, 10], [11, 5], [0], 1, 165]],
        [[[1, 3, 7, 8, 9], [11, 5], [0], 1, 165],
         [[1, 2, 3, 4, 10], [11, 5], [0], 1, 165],
         [[0, 1, 4, 6], [11, 4], [0], 1, 165]]],
    "semilattice2-pair": [
        [[[0, 4, 5, 13, 16, 19], [20, 6], [0], 1, 190],
         [[1, 6, 8, 10, 13, 17], [20, 6], [0], 1, 190],
         [[1, 2, 8, 12, 15, 19], [20, 6], [1], 1, 190]],
        [[[2, 5, 9, 12, 16, 17], [20, 6], [0], 1, 190],
         [[2, 3, 6, 7, 11, 14], [20, 6], [0], 1, 190],
         [[0, 3, 7, 13, 19], [20, 5], [0], 1, 190]]],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_bigramsey_golden_reports(capsys, tmp_path, name):
    table, action, order, big_n = GOLDEN_CONFIGS[name]
    n = len(order)
    got = []
    for new in (list(range(n)), list(range(n))[::-1]):
        labels = [f"x{i}" for i in range(n)]
        moved = [[0] * n for _ in action]
        for m, row in enumerate(action):
            for i, x in enumerate(row):
                moved[m][new[i]] = new[x]
        path = tmp_path / "a.json"
        path.write_text(json.dumps({
            "monoid": {"size": len(table), "identity": 0, "table": table},
            "carrier": labels, "action": moved,
            "order": [labels[new[i]] for i in order]}))
        assert main(["bigramsey", "--A", str(path), "--N", str(big_n),
                     "--k", "2", "--trials", "3", "--seed", "11"]) == 0
        trials = json.loads(capsys.readouterr().out)["verdicts"]["trials"]
        got.append([[t["u"], t["tower"], t["step_colors"], t["colors_used"],
                     t["R_size"]] for t in trials])
    assert got == GOLDEN_TRIALS[name]


# Z2 swapping a and b and fixing c, with a < b < c: it realizes patterns
# 1 and 3, so each run takes a second tower step, whose colors are read
# over the points the first step kept. Recorded before those colors were
# read by key: per seed, [u, tower, step_colors, colors_used, R_size].
TWO_PATTERN_TRIALS = [
    [[4, 5, 6], [9, 5, 3], [0, 0], 1, 120],
    [[0, 5, 6], [9, 4, 3], [1, 0], 2, 120],
    [[1, 5, 7], [9, 5, 3], [0, 1], 2, 120],
    [[2, 3, 7], [9, 4, 3], [1, 0], 2, 120],
    [[0, 1, 6], [9, 4, 3], [0, 0], 1, 120],
    [[0, 3, 6], [9, 4, 3], [0, 0], 1, 120],
]


def test_bigramsey_two_pattern_golden_reports(capsys, tmp_path):
    a = validate_mset(z2(), ("a", "b", "c"), [[0, 1, 2], [1, 0, 2]],
                      order=("a", "b", "c"))
    assert _realized_patterns(a) == {1, 3}
    path = tmp_path / "a.json"
    path.write_text(json.dumps({
        "monoid": {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
        "carrier": ["a", "b", "c"], "action": [[0, 1, 2], [1, 0, 2]],
        "order": ["a", "b", "c"]}))
    for seed, expected in enumerate(TWO_PATTERN_TRIALS):
        assert main(["bigramsey", "--A", str(path), "--N", "9", "--k", "2",
                     "--seed", str(seed)]) == 0
        (t,) = json.loads(capsys.readouterr().out)["verdicts"]["trials"]
        assert [t["u"], t["tower"], t["step_colors"], t["colors_used"],
                t["R_size"]] == expected
