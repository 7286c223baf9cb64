"""Finite chains and their embeddings.

A chain is stored as a tuple of distinct labels; tuple position *is* the
strict order. All operations below work with positions (0..n-1) where
possible and keep labels as a presentation layer only.
"""

from itertools import combinations, product

from ._record import Record, _set
from .errors import InputError


class Chain(Record, frozen=True):
    __slots__ = ("labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        _set(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise InputError(f"chain labels are not distinct: {labels}")

    def __len__(self):
        return len(self.labels)

    size = property(__len__)

    def __iter__(self):
        return iter(self.labels)

    def position(self, label):
        return self.labels.index(label)

    def to_json(self):
        return list(self.labels)


def omega(n):
    """The finite prefix {0 < 1 < ... < n-1} of the natural numbers."""
    return Chain(tuple(range(n)))


class ChainEmbedding(Record, frozen=True):
    """A strictly increasing map between chains, stored positionally."""

    __slots__ = ("source", "target",
                 "map")  # map[i] = target position of the i-th source element

    def __init__(self, source, target, map):
        map = tuple(map)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)
        if len(map) != len(source):
            raise InputError("embedding map is not total on the source chain")
        for i in range(len(map) - 1):
            if not map[i] < map[i + 1]:
                raise InputError(
                    f"embedding is not strictly increasing at positions {i},{i+1}"
                )
        if map and not (0 <= map[0] and map[-1] < len(target)):
            raise InputError("embedding map leaves the target chain")

    def __call__(self, pos):
        return self.map[pos]

    def compose(self, inner):
        """self . inner, where inner ends where self starts."""
        if inner.target is not self.source and inner.target != self.source:
            raise InputError("embeddings do not compose: chain mismatch")
        return ChainEmbedding(inner.source, self.target,
                              tuple(self.map[p] for p in inner.map))


def ordinal_sum(family):
    """Concatenate chains; elements become (index, label) pairs."""
    labels = []
    for i, chain in enumerate(family):
        labels.extend((i, lab) for lab in chain.labels)
    return Chain(tuple(labels))


def lex_product(family):
    """Cartesian product ordered by first position of disagreement."""
    if not family:
        return Chain(((),))
    return Chain(tuple(product(*(c.labels for c in family))))


def enumerate_chain_embeddings(a_chain, c_chain):
    """All strictly increasing injections, in canonical (lex) order."""
    n, m = len(a_chain), len(c_chain)
    return [ChainEmbedding(a_chain, c_chain, comb)
            for comb in combinations(range(m), n)]
