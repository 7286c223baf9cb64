"""Finite M-sets, ordered M-sets, unary algebras and their embeddings.

Carriers are indexed 0..n-1 with user labels kept in a side table. The
action table is indexed action[m][a]. An ordered M-set is an MSet whose
`order` is set: a permutation of the carrier listing it in increasing
order. Forgetting the order clears the field; the unordered code path
is the same engine with the order checks disabled.
"""

from dataclasses import dataclass, field, replace
from itertools import product
from operator import itemgetter

from .chains import Chain
from .errors import (CompositionFails, IdentityAxiomFails, InputError,
                     MonoidMismatch, UnknownSymbol)
from .monoid import FiniteMonoid


@dataclass(frozen=True)
class MSet:
    monoid: FiniteMonoid
    carrier: tuple   # labels
    action: tuple    # action[m][a] = alpha(m, a), positional
    order: tuple = None  # carrier indices in increasing order (ordered M-set)
    # positions[a] = rank of carrier element a in the order
    positions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = None
        if self.order is not None:
            if sorted(self.order) != list(range(self.size)):
                raise InputError("order is not a permutation of the carrier")
            positions = tuple(sorted(range(self.size),
                                     key=self.order.__getitem__))
        object.__setattr__(self, "positions", positions)

    @property
    def size(self):
        return len(self.carrier)

    def act(self, m, a):
        return self.action[m][a]

    def carrier_chain(self):
        """The carrier as a chain, listed in increasing order."""
        return Chain(tuple(self.carrier[a] for a in self.order))

    def to_json(self):
        d = {"monoid": self.monoid.to_json(),
             "carrier": list(self.carrier),
             "action": [list(row) for row in self.action]}
        if self.order is not None:
            d["order"] = [self.carrier[a] for a in self.order]
        return d


def validate_mset(monoid, carrier, action, order=None):
    """Check the two action axioms; optionally attach a total order.

    `order` is given as carrier labels in increasing order.
    """
    carrier = tuple(carrier)
    action = tuple(tuple(row) for row in action)
    n = len(carrier)
    if len(action) != monoid.size or any(len(row) != n for row in action):
        raise InputError("action table dimensions do not match monoid/carrier")
    for row in action:
        for x in row:
            if not (0 <= x < n):
                raise InputError(f"action value {x} out of carrier range")
    e = monoid.identity
    for a in range(n):
        if action[e][a] != a:
            raise IdentityAxiomFails(carrier[a])
    for m1, m2 in product(range(monoid.size), repeat=2):
        row1, row2 = action[m1], action[m2]
        composite = action[monoid.mul(m2, m1)]
        if tuple(map(row1.__getitem__, row2)) != composite:
            a = next(a for a in range(n) if row1[row2[a]] != composite[a])
            raise CompositionFails(m1, m2, carrier[a])
    if order is not None:
        order = order_positions(carrier, order)
    return MSet(monoid, carrier, action, order)


def order_positions(carrier, order):
    """Carrier positions of the labels that `order` lists.

    Labels match on type and value, so true does not stand for 1, nor
    1.0 for 1.
    """
    if not isinstance(order, (list, tuple)):
        raise InputError("order is an array of carrier labels")
    first = {}
    for i, x in enumerate(carrier):
        first.setdefault((type(x), x), i)
    positions = []
    for lab in order:
        try:
            positions.append(first[type(lab), lab])
        except (KeyError, TypeError):   # TypeError: an unhashable label
            raise InputError(f"order label {lab!r} is not in the carrier") \
                from None
    return tuple(positions)


def with_order(ms, order_indices=None):
    """The M-set under a total order (default: carrier index order)."""
    if order_indices is None:
        order_indices = range(ms.size)
    return replace(ms, order=tuple(order_indices))


@dataclass(frozen=True)
class MSetMorphism:
    source: MSet
    target: MSet
    map: tuple       # target index per source index
    kind: str        # "morphism" | "embedding" | "order-embedding"


def check_equivariant(f_map, a, b):
    """First (m, x) where f(alpha(m,x)) != beta(m, f(x)), or None."""
    for m in range(a.monoid.size):
        for x in range(a.size):
            if f_map[a.act(m, x)] != b.act(m, f_map[x]):
                return (m, x)
    return None


def order_violation(f_map, source, target):
    """First adjacent (x, y) in source order with f(x) not below f(y), or None.

    None exactly when f is strictly increasing, i.e. an order-embedding
    of the carriers.
    """
    tpos = target.positions
    for x, y in zip(source.order, source.order[1:]):
        if tpos[f_map[x]] >= tpos[f_map[y]]:
            return (x, y)
    return None


def validate_morphism(source, target, f_map, kind="morphism"):
    if source.monoid != target.monoid:
        raise MonoidMismatch("source and target live over different monoids")
    bad = check_equivariant(f_map, source, target)
    if bad is not None:
        raise InputError(f"map is not equivariant at (m, a) = {bad}")
    if kind in ("embedding", "order-embedding"):
        if len(set(f_map)) != len(f_map):
            raise InputError("map is not injective")
    if kind == "order-embedding":
        bad = order_violation(f_map, source, target)
        if bad is not None:
            raise InputError(f"map is not order-preserving at pair {bad}")
    return MSetMorphism(source, target, tuple(f_map), kind)


def enumerate_embeddings(a, b):
    """All embeddings a -> b (order-embeddings when both are ordered),
    as morphisms in the order of `embedding_maps`."""
    kind = "order-embedding" if a.order is not None else "embedding"
    return [MSetMorphism(a, b, f, kind) for f in embedding_maps(a, b)]


def embedding_maps(a, b):
    """The maps (target index per source index) of all embeddings a -> b,
    order-embeddings when both are ordered.

    Sending x to y forces exactly m.x -> m.y for m in M, since the orbit
    of m.x lies inside the orbit of x; one pass over M places it. The
    least unmapped element is branched on with ascending targets, so the
    maps come out in lexicographic order. When ordered, only the targets
    between the images of its nearest assigned neighbours are tried.
    """
    ordered = a.order is not None
    if ordered != (b.order is not None):
        raise MonoidMismatch("cannot mix ordered and unordered M-sets")
    if a.monoid != b.monoid:
        raise MonoidMismatch("source and target live over different monoids")
    n, msize = a.size, a.monoid.size
    if ordered:
        spos, tpos = a.positions, b.positions
    results = []
    assign = [-1] * n
    used = [False] * b.size

    def place(x, y, trail):
        """Send m.x to m.y for every m in M; False on a clash."""
        for m in range(msize):
            xm, ym = a.action[m][x], b.action[m][y]
            if assign[xm] == ym:
                continue
            if assign[xm] != -1 or used[ym]:
                return False
            if ordered:
                for z in range(n):
                    if assign[z] == -1:
                        continue
                    if (spos[z] < spos[xm]) != (tpos[assign[z]] < tpos[ym]):
                        return False
            assign[xm] = ym
            used[ym] = True
            trail.append(xm)
        return True

    def extend(x):
        while x < n and assign[x] != -1:
            x += 1
        if x == n:
            results.append(tuple(assign))
            return
        targets = range(b.size)
        if ordered:
            # x's image lies strictly between those of its nearest
            # assigned neighbours in source order
            lo, hi = -1, b.size
            for z in range(n):
                if assign[z] != -1:
                    t = tpos[assign[z]]
                    if spos[z] < spos[x]:
                        lo = max(lo, t)
                    else:
                        hi = min(hi, t)
            if hi - lo - 1 < b.size:
                targets = sorted(b.order[lo + 1:hi])
        for y in targets:
            trail = []
            if place(x, y, trail):
                extend(x + 1)
            for z in trail:
                used[assign[z]] = False
                assign[z] = -1

    extend(0)
    del extend   # the closure refers to itself through its cell
    return results


@dataclass(frozen=True)
class UnaryAlgebra:
    """A unary algebra stored by its generator self-maps.

    Word actions are computed by composition on demand; no free monoid
    is ever materialized.
    """

    alphabet: tuple
    carrier: tuple
    actions: dict    # symbol -> tuple (self-map on carrier positions)

    @property
    def size(self):
        return len(self.carrier)

    def __post_init__(self):
        for s in self.alphabet:
            if s not in self.actions:
                raise InputError(f"no generator action for symbol {s!r}")
            row = self.actions[s]
            if len(row) != len(self.carrier) or \
                    any(not (0 <= x < len(self.carrier)) for x in row):
                raise InputError(f"generator action for {s!r} is malformed")
        for s in self.actions:
            if s not in self.alphabet:
                raise InputError(f"generator action for symbol {s!r}, which "
                                 "is not in the alphabet")


def evaluate_word(algebra, word, a):
    """Apply a word with the leftmost symbol acting first."""
    for s in word:
        if s not in algebra.actions:
            raise UnknownSymbol(s)
        a = algebra.actions[s][a]
    return a


def _getter(positions):
    """itemgetter over `positions` that returns a tuple even for none or
    one: itemgetter() rejects no index and itemgetter(i) gives a scalar."""
    if not positions:
        return lambda h: ()
    if len(positions) == 1:
        p, = positions
        return lambda h: (h[p],)
    return itemgetter(*positions)


def cofree_tables(x, m):
    """cofree_mset(x, m) with its function table and its inverse.

    functions[i] is carrier element i as the tuple of value positions
    (h[m'] for m' in M), in product order; index[h] = i.
    """
    labels = tuple(x.labels) if isinstance(x, Chain) else tuple(x)
    nm = m.size
    functions = tuple(product(range(len(labels)), repeat=nm))
    index = {h: i for i, h in enumerate(functions)}
    action = tuple(
        tuple(map(index.__getitem__,
                  map(_getter([m.mul(g, mp) for mp in range(nm)]),
                      functions)))
        for g in range(nm))
    order = None
    if isinstance(x, Chain):
        lex = list(map(_getter(m.well_order), functions))
        order = tuple(sorted(range(len(functions)), key=lex.__getitem__))
    ms = MSet(m, tuple(product(labels, repeat=nm)), action, order)
    return ms, functions, index


def cofree_mset(x, m):
    """The cofree M-set on generators x: carrier x^M, gamma(m,h)(m') = h(m m').

    `x` is a Chain, whose order gives the carrier the lex order by the
    monoid's well-order, or any sized collection (an unordered M-set).
    """
    return cofree_tables(x, m)[0]


def generated_sub_mset(b, seed):
    """Smallest action-closed superset of `seed`, with inclusion morphism."""
    closed = set(seed)
    frontier = list(seed)
    while frontier:
        a = frontier.pop()
        for m in range(b.monoid.size):
            y = b.act(m, a)
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    keep = sorted(closed)
    back = {a: i for i, a in enumerate(keep)}
    action = tuple(tuple(back[b.act(m, a)] for a in keep)
                   for m in range(b.monoid.size))
    order, kind = None, "embedding"
    if b.order is not None:
        pos = b.positions
        order = tuple(sorted(range(len(keep)), key=lambda i: pos[keep[i]]))
        kind = "order-embedding"
    sub = MSet(b.monoid, tuple(b.carrier[a] for a in keep), action, order)
    return sub, MSetMorphism(sub, b, tuple(keep), kind)
