"""Finite M-sets, ordered M-sets, unary algebras and their embeddings.

Carriers are indexed 0..n-1 with user labels kept in a side table. The
action table is indexed action[m][a]. An ordered M-set is an MSet whose
`order` is set: a permutation of the carrier listing it in increasing
order. Forgetting the order clears the field; the unordered code path
is the same engine with the order checks disabled.
"""

from itertools import accumulate, product
from operator import itemgetter, or_

from ._record import Record, _set
from .chains import Chain
from .errors import (CapExceeded, CompositionFails, IdentityAxiomFails,
                     InputError, MonoidMismatch, UnknownSymbol)


class MSet(Record, frozen=True, hidden=("positions",)):
    __slots__ = ("monoid",     # a FiniteMonoid
                 "carrier",    # labels
                 "action",     # action[m][a] = alpha(m, a), positional
                 "order",      # carrier indices in increasing order, or None
                 "positions")  # positions[a] = rank of carrier element a

    def __init__(self, monoid, carrier, action, order=None):
        if order is not None and \
                sorted(order) != list(range(len(carrier))):
            raise InputError("order is not a permutation of the carrier")
        _set(self, "monoid", monoid)
        _set(self, "carrier", carrier)
        _set(self, "action", action)
        _set(self, "order", order)
        _set(self, "positions", _ranks(order))

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


def _ranks(order):
    """ranks[x] = the place of x in `order`; None without an order."""
    return None if order is None else \
        tuple(sorted(range(len(order)), key=order.__getitem__))


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
    if action[e] != tuple(range(n)):
        a = next(a for a in range(n) if action[e][a] != a)
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
    return MSet(ms.monoid, ms.carrier, ms.action, tuple(order_indices))


class MSetMorphism(Record, frozen=True):
    """A map of carriers. Its kind is read off the map and the objects:
    between ordered M-sets only an increasing injective map is an
    (order-)embedding, and a map between an ordered and an unordered
    M-set is only a morphism."""

    __slots__ = ("source", "target",
                 "map")  # target index per source index

    def __init__(self, source, target, map):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)

    @property
    def kind(self):
        f, a, b = self.map, self.source, self.target
        if len(set(f)) != len(f) or (a.order is None) != (b.order is None):
            return "morphism"
        if a.order is None:
            return "embedding"
        return "morphism" if order_violation(f, a, b) else "order-embedding"


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
    """The morphism source -> target with table `f_map`, checked against
    the objects as the claimed `kind`: equivariant, and for an embedding
    also injective and, between ordered M-sets, increasing. An
    "order-embedding" also claims that the source is ordered."""
    if kind not in ("morphism", "embedding", "order-embedding"):
        raise InputError(f"unknown morphism kind {kind!r}")
    if source.monoid != target.monoid:
        raise MonoidMismatch("source and target live over different monoids")
    ordered = source.order is not None
    if kind != "morphism" and ordered != (target.order is not None):
        raise MonoidMismatch("cannot mix ordered and unordered M-sets")
    if kind == "order-embedding" and not ordered:
        raise InputError("an order-embedding needs an ordered source")
    f_map = tuple(f_map)
    if len(f_map) != source.size:
        raise InputError(f"map has length {len(f_map)}, but the source has "
                         f"{source.size} elements")
    for y in f_map:
        if type(y) is not int or not 0 <= y < target.size:
            raise InputError(f"map value {y!r} is not in range({target.size})")
    bad = check_equivariant(f_map, source, target)
    if bad is not None:
        raise InputError(f"map is not equivariant at (m, a) = {bad}")
    if kind != "morphism":
        if len(set(f_map)) != len(f_map):
            raise InputError("map is not injective")
        bad = ordered and order_violation(f_map, source, target)
        if bad:
            raise InputError(f"map is not order-preserving at pair {bad}")
    return MSetMorphism(source, target, f_map)


def enumerate_embeddings(a, b):
    """All embeddings a -> b (order-embeddings when both are ordered),
    as morphisms in the order of `embedding_maps`."""
    return [MSetMorphism(a, b, f) for f in embedding_maps(a, b)]


def embedding_maps(a, b):
    """The maps (target index per source index) of all embeddings a -> b,
    order-embeddings when both are ordered: `_embeddings_along` the
    action rows, which hold the identity and are closed under composition."""
    if a.monoid != b.monoid:
        raise MonoidMismatch("source and target live over different monoids")
    return _embeddings_along(tuple(zip(a.action, b.action)), a.positions,
                             b.positions, b.order)


def _embeddings_along(rows, spos, tpos, b_order):
    """The injective maps f with f(r(x)) = s(f(x)) for every row pair
    (r, s); when the `_ranks` `spos` and `tpos` of both sides are given,
    the increasing ones (`b_order` lists the target in increasing order).

    Each side's rows must hold its identity and be closed under
    composition: then sending x to y forces exactly r(x) -> s(y) for
    each pair, and one pass over the rows places them. The least
    unmapped element is branched on with ascending targets, so the maps
    come out in lexicographic order.

    When ordered, the targets tried for x come from bitset candidate
    domains (McCreesh, Prosser & Trimble 2020). A row pair (r, s) whose
    r(x) is unplaced keeps the y whose s(y) leaves room for the unplaced
    elements on each side: if r(x) has source rank q and its nearest
    placed neighbours p < q < p' (else -1 and n, with image ranks -1 and
    |target|), s(y) ranks from p's image + (q - p) to below p''s image -
    (p' - q - 1), read off the row's table below[t] (the y whose s(y)
    sits below rank t), built on the row's first use; these domains
    intersect. `place` alone checks a row whose r(x) is placed, and
    orders a y's images only among themselves. The unordered search
    tries every target. Recursion past Python's limit is CapExceeded.
    """
    ordered = spos is not None
    if ordered != (tpos is not None):
        raise MonoidMismatch("cannot mix ordered and unordered M-sets")
    n, bsize = len(rows[0][0]), len(rows[0][1])
    results = []
    assign = [-1] * n
    used = [False] * bsize

    def place(x, y, trail):
        """Send r(x) to s(y) for every row pair; False on a clash."""
        for r, s in rows:
            xm, ym = r[x], s[y]
            if assign[xm] == ym:
                continue
            if assign[xm] != -1 or used[ym]:
                return False
            if ordered:
                q, t = spos[xm], tpos[ym]
                for z in trail:
                    if (spos[z] < q) != (tpos[assign[z]] < t):
                        return False
            assign[xm] = ym
            used[ym] = True
            trail.append(xm)
        return True

    if ordered:
        a_order = sorted(range(n), key=spos.__getitem__)
        below = [None] * len(rows)

        def domain(x):
            """The targets y of x, ascending, that leave every forced image
            s(y) of an unplaced r(x) room in its gap."""
            dom = (1 << bsize) - 1
            for k, (r, s) in enumerate(rows):
                xm = r[x]
                if assign[xm] != -1:
                    continue
                q = spos[xm]
                p = q - 1
                while p >= 0 and assign[a_order[p]] == -1:
                    p -= 1
                lo = q - p + (tpos[assign[a_order[p]]] if p >= 0 else -1)
                p = q + 1
                while p < n and assign[a_order[p]] == -1:
                    p += 1
                hi = q + 1 - p + (tpos[assign[a_order[p]]] if p < n else bsize)
                if hi <= lo:
                    return ()
                table = below[k]
                if table is None:
                    pre = [0] * bsize
                    for y, v in enumerate(s):
                        pre[v] |= 1 << y
                    table = below[k] = list(accumulate(
                        map(pre.__getitem__, b_order), or_, initial=0))
                dom &= table[hi] ^ table[lo]
                if not dom:
                    return ()
            targets = []
            while dom:
                low = dom & -dom
                targets.append(low.bit_length() - 1)
                dom ^= low
            return targets

    def extend(x):
        while x < n and assign[x] != -1:
            x += 1
        if x == n:
            results.append(tuple(assign))
            return
        # only the first call, at x = 0, has nothing placed to narrow by
        for y in domain(x) if ordered and x else range(bsize):
            trail = []
            if place(x, y, trail):
                extend(x + 1)
            for z in trail:
                used[assign[z]] = False
                assign[z] = -1

    try:
        extend(0)
    except RecursionError:
        raise CapExceeded(f"an embedding search from {n} source elements "
                          "exceeds Python's recursion limit") from None
    finally:
        del extend   # the closure refers to itself through its cell
    return results


class UnaryAlgebra(Record, frozen=True):
    """A unary algebra stored by its generator self-maps.

    Word actions are computed by composition on demand; no free monoid
    is ever materialized.
    """

    __slots__ = ("alphabet", "carrier",
                 "actions")  # symbol -> tuple (self-map on carrier positions)

    def __init__(self, alphabet, carrier, actions):
        for s in alphabet:
            if s not in actions:
                raise InputError(f"no generator action for symbol {s!r}")
            row = actions[s]
            if len(row) != len(carrier) or \
                    any(not (0 <= x < len(carrier)) for x in row):
                raise InputError(f"generator action for {s!r} is malformed")
        for s in actions:
            if s not in alphabet:
                raise InputError(f"generator action for symbol {s!r}, which "
                                 "is not in the alphabet")
        _set(self, "alphabet", alphabet)
        _set(self, "carrier", carrier)
        _set(self, "actions", actions)

    @property
    def size(self):
        return len(self.carrier)


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
    order = None if b.order is None else \
        tuple(back[a] for a in b.order if a in back)
    sub = MSet(b.monoid, tuple(b.carrier[a] for a in keep), action, order)
    return sub, MSetMorphism(sub, b, tuple(keep))
