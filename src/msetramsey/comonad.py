"""Functors with comultiplication and their (weak) coalgebras.

Two built-in functors: the monoid-action functor E(A) = A^M and the
duplicate-free list functor on chains (with the plain list comonad
available for explicitly given sequences). E-values are plain tuples, so
delta and epsilon apply uniformly at every nesting level; this is what
makes the law checks one-liners.

Composition order: we use delta(h)(m1)(m2) = h(m1 * m2). The quoted
reversed order breaks the Eilenberg-Moore square for noncommutative
monoids; both agree on commutative ones.
"""

import math
from itertools import permutations, product

from ._record import Record, _set
from .errors import (EmptySequence, InputError, NotEMCoalgebra, SizeOverflow)
from .mset import MSet

DEFAULT_CAP = 10 ** 6


class _TupleFunctor:
    """E-values are tuples, and E(f) applies f to each entry."""

    def lift(self, f, h):
        return tuple(f(x) for x in h)


class MonoidActionFunctor(_TupleFunctor):
    """E(A) = A^M; E(f)(h) = f . h; delta(h)[m1][m2] = h[m1 * m2]; eps(h) = h[1]."""

    name = "monoid_action"

    def __init__(self, monoid):
        self.monoid = monoid

    def carrier(self, elements, cap=DEFAULT_CAP):
        elements = list(elements)
        if len(elements) ** self.monoid.size > cap:
            raise SizeOverflow("E(A)", len(elements) ** self.monoid.size, cap)
        return [tuple(h) for h in product(elements, repeat=self.monoid.size)]

    def delta(self, h):
        return tuple(tuple(map(h.__getitem__, row))
                     for row in self.monoid.table)

    def epsilon(self, h):
        return h[self.monoid.identity]


class DistinctListFunctor(_TupleFunctor):
    """E(A) = A-dagger: finite duplicate-free sequences (empty included).

    delta is the suffix list; epsilon (head) is only defined on nonempty
    sequences and no counit claim is made for this functor.
    """

    name = "duplicate_free_list"
    counit_claimed = False

    def carrier(self, elements, cap=DEFAULT_CAP):
        elements = list(elements)
        n = len(elements)
        size = sum(math.perm(n, r) for r in range(n + 1))
        if size > cap:
            raise SizeOverflow("E(A)", size, cap)
        out = [()]
        for r in range(1, n + 1):
            out.extend(permutations(elements, r))
        return out

    def delta(self, seq):
        return tuple(tuple(seq[i:]) for i in range(len(seq)))

    def epsilon(self, seq):
        if not seq:
            raise EmptySequence("epsilon of the empty sequence")
        return seq[0]


class ListFunctor(_TupleFunctor):
    """The list comonad E(A) = A^+, materialized up to a length cap; delta
    and epsilon are DistinctListFunctor's, on nonempty sequences only."""

    name = "list"

    def __init__(self, max_length=3):
        self.max_length = max_length

    def carrier(self, elements, cap=DEFAULT_CAP):
        elements = list(elements)
        size = sum(len(elements) ** r for r in range(1, self.max_length + 1))
        if size > cap:
            raise SizeOverflow("E(A)", size, cap)
        out = []
        for r in range(1, self.max_length + 1):
            out.extend(product(elements, repeat=r))
        return out

    def delta(self, seq):
        if not seq:
            raise EmptySequence("delta of the empty sequence")
        return DistinctListFunctor.delta(self, seq)

    epsilon = DistinctListFunctor.epsilon


class LawReport(Record):
    __slots__ = ("laws",)   # (name, ok, counterexample)

    def __init__(self, laws=None):
        self.laws = [] if laws is None else laws

    def record(self, name, counterexample=None):
        self.laws.append((name, counterexample is None, counterexample))

    @property
    def all_pass(self):
        return all(ok for _, ok, _ in self.laws)

    def failures(self):
        return [(name, cx) for name, ok, cx in self.laws if not ok]

    def to_json(self):
        return [{"law": name, "passes": ok,
                 "counterexample": repr(cx) if cx is not None else None}
                for name, ok, cx in self.laws]


def _first(iterable, pred):
    for x in iterable:
        if pred(x):
            return x
    return None


def check_comonad_laws(functor, elements, delta=None, epsilon=None):
    """Exhaustively check functor, comultiplication and claimed counit laws.

    `delta`/`epsilon` override the functor's own maps, which is how the
    mutation tests inject corrupted structure. For the monoid-action
    functor, SizeOverflow is raised before the sweep when its work, the
    |A|^|M| elements h times the |M|^3 entries of delta(delta(h)) that
    coassociativity builds, exceeds DEFAULT_CAP.
    """
    elements = list(elements)
    if isinstance(functor, MonoidActionFunctor):
        size = functor.monoid.size
        work = len(elements) ** size * size ** 3
        if work > DEFAULT_CAP:
            raise SizeOverflow(
                "comonad law sweep (|A|^|M| elements x |M|^3 entries)",
                work, DEFAULT_CAP)
    delta = delta or functor.delta
    epsilon = epsilon or functor.epsilon
    ea = functor.carrier(elements)
    report = LawReport()

    # functor laws on E(A)
    cx = _first(ea, lambda h: functor.lift(lambda x: x, h) != h)
    report.record("functor_preserves_identity", cx)
    f = {x: elements[min(i + 1, len(elements) - 1)]
         for i, x in enumerate(elements)}
    g = {x: elements[0] for x in elements}
    cx = _first(ea, lambda h: functor.lift(lambda x: g[f[x]], h)
                != functor.lift(g.get, functor.lift(f.get, h)))
    report.record("functor_preserves_composition", cx)

    # delta lands in EE(A) and is coassociative
    cx = _first(ea, lambda h: delta(delta(h))
                != functor.lift(delta, delta(h)))
    report.record("coassociativity", cx)

    if getattr(functor, "counit_claimed", True):
        cx = _first(ea, lambda h: functor.lift(epsilon, delta(h)) != h)
        report.record("counit_left", cx)
        cx = _first(ea, lambda h: epsilon(delta(h)) != h)
        report.record("counit_right", cx)
    return report


class Coalgebra(Record, frozen=True):
    __slots__ = ("functor",
                 "carrier",     # element labels; structure values use them
                 "structure")   # structure[i] = E-value for carrier[i]

    def __init__(self, functor, carrier, structure):
        _set(self, "functor", functor)
        _set(self, "carrier", carrier)
        _set(self, "structure", structure)

    def structure_of(self, label):
        return self.structure[self.carrier.index(label)]

    def as_map(self):
        table = dict(zip(self.carrier, self.structure))
        return table.__getitem__

    def to_json(self):
        return {"functor": self.functor.name,
                "carrier": list(self.carrier),
                "structure": [list(v) for v in self.structure]}


class CoalgebraHom(Record, frozen=True):
    __slots__ = ("source", "target",
                 "map")  # source label -> target label

    def __init__(self, source, target, map):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)


def validate_coalgebra_hom(source, target, f):
    """Check that f is a map of carriers and beta . f = E(f) . alpha
    pointwise; InputError names the first label where either fails."""
    functor = source.functor
    beta = dict(zip(target.carrier, target.structure))
    for a in source.carrier:
        if a not in f:
            raise InputError(f"coalgebra hom is not defined at {a!r}")
        if f[a] not in beta:
            raise InputError(f"coalgebra hom sends {a!r} to {f[a]!r}, which "
                             "is not in the target's carrier")
    for a, va in zip(source.carrier, source.structure):
        if beta[f[a]] != functor.lift(lambda x: f[x], va):
            raise InputError(f"coalgebra-hom square fails at {a!r}")
    return CoalgebraHom(source, target, dict(f))


def classify_coalgebra(c):
    """Return ('EM'|'weak_EM_only'|'plain', witnesses for failed squares)."""
    functor = c.functor
    alpha = c.as_map()
    witnesses = {}
    for a, va in zip(c.carrier, c.structure):
        if functor.delta(va) != functor.lift(alpha, va):
            witnesses.setdefault("comultiplication_square", a)
            break
    for a, va in zip(c.carrier, c.structure):
        try:
            ok = functor.epsilon(va) == a
        except EmptySequence:
            ok = False
        if not ok:
            witnesses.setdefault("counit_triangle", a)
            break
    if "comultiplication_square" in witnesses:
        return "plain", witnesses
    if "counit_triangle" in witnesses:
        return "weak_EM_only", witnesses
    return "EM", witnesses


def mset_to_coalgebra(ms):
    """The EM coalgebra of an M-set: alpha(a)(m) = m . a."""
    functor = MonoidActionFunctor(ms.monoid)
    structure = tuple(
        tuple(ms.carrier[ms.act(m, a)] for m in range(ms.monoid.size))
        for a in range(ms.size))
    return Coalgebra(functor, tuple(ms.carrier), structure)


def coalgebra_to_mset(c):
    """The M-set of an EM coalgebra over the monoid-action functor.

    The comultiplication square is the composition axiom of the action
    and the counit triangle its identity axiom, so `classify_coalgebra`
    decides both.
    """
    status, witnesses = classify_coalgebra(c)
    if status != "EM":
        raise NotEMCoalgebra(f"coalgebra classifies as {status}: {witnesses}")
    m = c.functor.monoid
    index = {x: i for i, x in enumerate(c.carrier)}
    action = tuple(tuple(index[c.structure[a][g]] for a in range(len(c.carrier)))
                   for g in range(m.size))
    return MSet(m, tuple(c.carrier), action)


def cofree_coalgebra(functor, elements):
    """(E(X), delta_X) with the E(X)-elements themselves as carrier labels."""
    ex = functor.carrier(elements)
    return Coalgebra(functor, tuple(ex), tuple(functor.delta(h) for h in ex))


def sharp_lift(c, f, elements):
    """The unique lift f# = E(f) . alpha into the cofree coalgebra on X.

    `f` maps carrier labels of c to elements of X. Asserts the counit
    identity and the coalgebra-hom square.
    """
    status, _ = classify_coalgebra(c)
    if status != "EM":
        raise NotEMCoalgebra(f"coalgebra classifies as {status}")
    functor = c.functor
    target = cofree_coalgebra(functor, elements)
    sharp = {a: functor.lift(lambda x: f[x], va)
             for a, va in zip(c.carrier, c.structure)}
    for a in c.carrier:
        if functor.epsilon(sharp[a]) != f[a]:
            raise InputError(f"epsilon . f# != f at {a!r}")
    return validate_coalgebra_hom(c, target, sharp)
