"""Rooted forests and their root-path coalgebras."""

import random

import pytest

from msetramsey.comonad import (Coalgebra, DistinctListFunctor,
                                classify_coalgebra, validate_coalgebra_hom)
from msetramsey.errors import InputError, NotAForest, NotPathShaped
from msetramsey.forests import (decode_coalgebra, encode_forest,
                                enumerate_forests, fig1_forest,
                                is_rooted_forest, make_forest, root_path)

# root paths of the ten-vertex reference forest, keyed by vertex
REFERENCE_PATHS = {
    "a": ("a", "d"), "b": ("b", "h", "d"), "c": ("c", "b", "h", "d"),
    "d": ("d",), "e": ("e", "g"), "f": ("f", "b", "h", "d"),
    "g": ("g",), "h": ("h", "d"), "i": ("i", "g"), "j": ("j", "g"),
}


def test_is_rooted_forest_accepts_and_rejects():
    ok, cycle = is_rooted_forest(("x", "y"), (0, 0))
    assert ok and cycle is None
    ok, cycle = is_rooted_forest(("x", "y", "z"), (1, 2, 0))
    assert not ok
    assert set(cycle) == {"x", "y", "z"}


class _CountingParent(tuple):
    """A parent map that counts its lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("up", [-1, 1], ids=["root-first", "root-last"])
def test_is_rooted_forest_walks_each_vertex_once(up):
    """A 20,000-vertex path, rooted at either end, takes at most two
    parent lookups per vertex, where a walk from each vertex up to the
    root would take about n^2 / 2."""
    n = 20_000
    root = 0 if up < 0 else n - 1
    parent = _CountingParent(i if i == root else i + up for i in range(n))
    assert is_rooted_forest(tuple(range(n)), parent) == (True, None)
    assert 0 < parent.lookups <= 2 * n


def _walk_every_start(carrier, parent):
    """is_rooted_forest without marks: each start walks up to a root."""
    for start in range(len(carrier)):
        seen = {}
        a = start
        while a not in seen:
            seen[a] = len(seen)
            if parent[a] == a:
                break
            a = parent[a]
        else:
            cycle = [x for x, rank in seen.items() if rank >= seen[a]]
            return False, tuple(carrier[x] for x in cycle)
    return True, None


def test_is_rooted_forest_matches_a_walk_from_every_start():
    """The same (ok, cycle), first cycle included, on seeded random parent
    maps with and without roots."""
    rng = random.Random(35)
    cycles = 0
    for _ in range(20_000):
        n = rng.randint(1, 9)
        roots = rng.random()
        parent = tuple(i if rng.random() < roots else rng.randrange(n)
                       for i in range(n))
        carrier = tuple(f"v{i}" for i in range(n))
        expected = _walk_every_start(carrier, parent)
        assert is_rooted_forest(carrier, parent) == expected
        cycles += not expected[0]
    assert 1000 < cycles < 19_000


def test_make_forest_raises_with_cycle_witness():
    with pytest.raises(NotAForest) as exc:
        make_forest(("x", "y"), (1, 0))
    assert set(exc.value.cycle) == {"x", "y"}
    with pytest.raises(InputError):
        make_forest(("x",), (0,), order=(0, 0))


def test_reference_forest_paths():
    forest = fig1_forest()
    roots = {i for i in range(forest.size) if forest.parent[i] == i}
    assert roots == {forest.carrier.index("d"), forest.carrier.index("g")}
    for i, label in enumerate(forest.carrier):
        path = tuple(forest.carrier[j] for j in root_path(forest, i))
        assert path == REFERENCE_PATHS[label]


def test_encode_forest_reproduces_reference_table():
    coalg = encode_forest(fig1_forest())
    for label in coalg.carrier:
        assert coalg.structure_of(label) == REFERENCE_PATHS[label]


def test_encode_requires_order():
    forest = make_forest(("x", "y"), (0, 0))
    with pytest.raises(InputError):
        encode_forest(forest)


def test_encoded_forest_is_a_distinct_list_coalgebra():
    coalg = encode_forest(fig1_forest())
    assert isinstance(coalg.functor, DistinctListFunctor)
    # the comultiplication square holds: suffixes of a root path are the
    # root paths of its elements
    status, _ = classify_coalgebra(coalg)
    assert status == "EM"


def test_decode_encode_roundtrip_all_small_forests():
    total = 0
    for n in range(1, 6):
        forests = enumerate_forests(n)
        assert len(forests) == (n + 1) ** (n - 1)
        for forest in forests:
            back = decode_coalgebra(encode_forest(forest), forest.order)
            assert back == forest
            total += 1
    assert total == sum((n + 1) ** (n - 1) for n in range(1, 6))


def test_decode_rejects_non_path_structures():
    functor = DistinctListFunctor()
    with pytest.raises(NotPathShaped):
        decode_coalgebra(Coalgebra(functor, ("x",), (("y",),)))
    with pytest.raises(NotPathShaped):
        decode_coalgebra(Coalgebra(functor, ("x",), ((),)))
    # suffix incoherence: y claims parent x, but x's path ignores y's tail
    with pytest.raises(NotPathShaped):
        decode_coalgebra(Coalgebra(functor, ("x", "y"),
                                   (("x",), ("y", "x", "x"))))


def test_encode_lex_order_embedding():
    # every ordered forest's root-path map must be increasing in the
    # prefix-first lex order on position sequences
    for forest in enumerate_forests(4):
        coalg = encode_forest(forest)
        keyed = [tuple(forest.carrier.index(x) for x in coalg.structure[i])
                 for i in range(forest.size)]
        assert keyed == sorted(keyed)


def test_decode_and_hom_check_find_structures_by_label(monkeypatch):
    """`structure_of` scans the carrier, so a decode or a hom check that
    called it once per element would take time quadratic in the size."""
    forest = fig1_forest()
    coalg = encode_forest(forest)

    def scan(self, label):
        raise AssertionError("structure_of scans the carrier")
    monkeypatch.setattr(Coalgebra, "structure_of", scan)
    assert decode_coalgebra(coalg, forest.order) == forest
    validate_coalgebra_hom(coalg, coalg, {x: x for x in coalg.carrier})
