"""Rooted forests as monounary algebras and their root-path coalgebras.

An ordered rooted forest encodes as a coalgebra for the duplicate-free
list functor: each vertex maps to its path to the root. Sequences are
compared lexicographically over the vertex chain, with a proper prefix
preceding its extensions (the unique choice making the suffix list
order-coherent).
"""

from itertools import product

from ._record import Record, _set
from .comonad import Coalgebra, DistinctListFunctor
from .errors import InputError, NotAForest, NotPathShaped
from .mset import _ranks


class RootedForest(Record, frozen=True, hidden=("positions",)):
    """A rooted forest; like MSet, it checks its order and keeps its ranks."""

    __slots__ = ("carrier",
                 "parent",  # parent[i] = position of the parent; roots fixed
                 "order",   # positions in increasing order (ordered variant)
                 "positions")  # positions[i] = rank of i in the order

    def __init__(self, carrier, parent, order=None):
        _set(self, "carrier", carrier)
        _set(self, "parent", parent)
        _set(self, "order", order)
        _set(self, "positions", _ranks(order, len(carrier)))

    @property
    def size(self):
        return len(self.carrier)

    def to_json(self):
        d = {"carrier": list(self.carrier),
             "parent": {str(self.carrier[i]): self.carrier[self.parent[i]]
                        for i in range(self.size)}}
        if self.order is not None:
            d["order"] = [self.carrier[i] for i in self.order]
        return d


def is_rooted_forest(carrier, parent):
    """(True, None) if every element reaches a fixed point, else the first
    cycle met by walking up from each element in turn.

    Each element on a walk that reaches a root is marked, and a later walk
    stops at a marked element, so each element is walked once. A walk
    that ends in a cycle meets no marked element, so it finds the cycle
    that a walk all the way up would.
    """
    rooted = [False] * len(carrier)
    for start in range(len(carrier)):
        walk = {}                       # element -> its step on this walk
        a = start
        while not rooted[a] and a not in walk:
            walk[a] = len(walk)
            up = parent[a]
            if up == a:
                break
            a = up
        else:
            if not rooted[a]:           # walked back onto this walk
                return False, tuple(carrier[x] for x in list(walk)[walk[a]:])
        for x in walk:
            rooted[x] = True
    return True, None


def make_forest(carrier, parent, order=None):
    ok, cycle = is_rooted_forest(carrier, parent)
    if not ok:
        raise NotAForest(cycle)
    order = None if order is None else tuple(order)
    return RootedForest(tuple(carrier), tuple(parent), order)


def root_path(forest, i):
    path = [i]
    while forest.parent[path[-1]] != path[-1]:
        path.append(forest.parent[path[-1]])
    return tuple(path)


def encode_forest(forest):
    """The root-path coalgebra of an ordered rooted forest.

    The structure map is an order-embedding into (A-dagger, lex) built
    from the forest's vertex order; both facts are asserted here.
    """
    if forest.order is None:
        raise InputError("encoding requires an ordered forest")
    labels, order = forest.carrier, forest.order
    paths = [root_path(forest, i) for i in range(forest.size)]
    structure = tuple(tuple(map(labels.__getitem__, p)) for p in paths)
    coalg = Coalgebra(DistinctListFunctor(), labels, structure)

    keyed = [tuple(map(forest.positions.__getitem__, p)) for p in paths]
    for i, j in zip(order, order[1:]):
        if not keyed[i] < keyed[j]:
            raise InputError(
                f"root-path map is not an order-embedding at {labels[i]!r}")
    return coalg


def decode_coalgebra(coalg, order=None):
    """Inverse of encode_forest; checks root-path shape and suffix coherence."""
    labels = coalg.carrier
    index = {x: i for i, x in enumerate(labels)}
    parent = []
    for x, path in zip(labels, coalg.structure):
        if not path or path[0] != x or \
                (len(path) > 1 and path[1] not in index):
            raise NotPathShaped(x)
        parent.append(index[path[1]] if len(path) > 1 else index[x])
    for x, path in zip(labels, coalg.structure):
        if len(path) > 1 and path[1:] != coalg.structure[index[path[1]]]:
            raise NotPathShaped(x)
    return make_forest(labels, parent, order)


def enumerate_forests(n, ordered=True):
    """All labeled rooted forests on carrier 0..n-1 (identity order)."""
    out = []
    for parent in product(range(n), repeat=n):
        ok, _ = is_rooted_forest(tuple(range(n)), parent)
        if ok:
            out.append(RootedForest(tuple(range(n)), parent,
                                    tuple(range(n)) if ordered else None))
    return out


def fig1_forest():
    """The ten-vertex two-root example forest used throughout the tests."""
    labels = tuple("abcdefghij")
    parent_of = {"a": "d", "b": "h", "c": "b", "d": "d", "e": "g",
                 "f": "b", "g": "g", "h": "d", "i": "g", "j": "g"}
    parent = tuple(labels.index(parent_of[x]) for x in labels)
    return make_forest(labels, parent, tuple(range(10)))
