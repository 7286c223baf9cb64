"""Lexicographic lifts of chains and witness transport.

hat_E takes a chain X to the ordered M-set on X^M with the lex order
driven by the monoid's well-order (identity least) and the action
gamma(m, h)(m') = h(m * m'). The comultiplication reads
hat_delta(h)(v)(w) = h(v * w); see the composition-order note in
`comonad`. Each map into a lift is validated as an order-embedding, and
its equivariance is the coalgebra square it has to satisfy, since
delta(h)(m1)(m2) = h(m1 * m2) = gamma(m1, h)(m2): one check carries the
weak-EM square of `mset_as_weak_coalgebra` and the hom square of `phi`.
"""

from ._record import Record, _set
from .chains import ChainEmbedding, omega
from .errors import InputError, NoChainWitnessInBudget, SizeOverflow
from .mset import cofree_tables, validate_morphism
from .ramsey import (ChainContext, DEFAULT_SEARCH_CAP, MSetContext,
                     find_witness, holds_arrow)

DEFAULT_LIFT_CAP = 10 ** 5


class LexLift(Record, frozen=True, hidden=("index",)):
    __slots__ = ("base",        # a Chain
                 "lifted",      # an MSet
                 "functions",   # functions[i] = h as a tuple of base positions
                 "index")       # h -> i

    def __init__(self, base, lifted, functions, index):
        _set(self, "base", base)
        _set(self, "lifted", lifted)
        _set(self, "functions", functions)
        _set(self, "index", index)


def hat_E(base, m, cap=DEFAULT_LIFT_CAP):
    """The lex lift of a chain: ordered M-set on base^M."""
    size = len(base) ** m.size
    if size > cap:
        raise SizeOverflow("hat_E carrier", size, cap)
    return LexLift(base, *cofree_tables(base, m))


def hat_E_map(h_emb, lift_src, lift_dst):
    """hat_E on morphisms: post-composition with a chain embedding."""
    if h_emb.source != lift_src.base or h_emb.target != lift_dst.base:
        raise InputError("embedding endpoints do not match the lifts")
    table = tuple(lift_dst.index[tuple(h_emb.map[v] for v in h)]
                  for h in lift_src.functions)
    return validate_morphism(lift_src.lifted, lift_dst.lifted, table,
                             "embedding")


def hat_delta(lift):
    """hat_delta(h)(v)(w) = h(v*w), as a morphism lift -> hat_E(chain(lift)).

    h(v * .) is the action gamma(v, h), so this is the lift's own
    weak-coalgebra structure, validated as an order-embedding there.
    """
    coalg = mset_as_weak_coalgebra(lift.lifted)
    return coalg.embedding, coalg.lift


class WeakCoalgebra(Record, frozen=True):
    """An ordered M-set together with its structure map into hat_E."""

    __slots__ = ("lift",        # the LexLift of the carrier chain
                 "embedding")   # the structure map, an MSetMorphism

    def __init__(self, lift, embedding):
        _set(self, "lift", lift)
        _set(self, "embedding", embedding)

    @property
    def carrier_chain(self):
        return self.embedding.source.carrier_chain()

    @property
    def structure(self):
        """structure[a] = h, the image of a, as a tuple of order ranks."""
        return tuple(map(self.lift.functions.__getitem__,
                         self.embedding.map))


def mset_as_weak_coalgebra(a_star):
    """Represent an ordered M-set by alpha(a)(g) = action(g, a).

    Asserts that alpha is an order-embedding into hat_E of the carrier
    chain. Its equivariance, alpha(g.a) = gamma(g, alpha(a)), is the
    weak-EM comultiplication square hat_delta . alpha = hat_E(alpha) . alpha.
    """
    lift = hat_E(a_star.carrier_chain(), a_star.monoid)
    pos = a_star.positions
    table = tuple(lift.index[tuple(pos[row[a]] for row in a_star.action)]
                  for a in range(a_star.size))
    embedding = validate_morphism(a_star, lift.lifted, table, "embedding")
    return WeakCoalgebra(lift, embedding)


def phi(u, b_coalg):
    """Phi(u) = hat_E(u) . beta, landing in hat_E(C).

    `u` is a chain embedding from the carrier chain of the coalgebra to
    a chain C. Asserts that Phi(u) is an order-embedding; its equivariance
    is the coalgebra-hom square into (hat_E(C), hat_delta).
    """
    if u.source != b_coalg.carrier_chain:
        raise InputError("u must start at the coalgebra's carrier chain")
    b = b_coalg.embedding.source
    lift_c = hat_E(u.target, b.monoid)
    table = tuple(lift_c.index[tuple(u.map[r] for r in h)]
                  for h in b_coalg.structure)
    mor = validate_morphism(b, lift_c.lifted, table, "embedding")
    return mor, lift_c


def check_PA(u, f_map, a_coalg, b_coalg):
    """The pre-adjunction condition with v = f.

    Verifies Phi_B(u) . f == Phi_A(u . F(f)) pointwise, where F(f) is f
    read as a chain embedding between carrier chains.
    """
    phi_b, _ = phi(u, b_coalg)
    a, b = a_coalg.embedding.source, b_coalg.embedding.source
    # f as a chain embedding between the carrier chains
    chain_f = ChainEmbedding(
        a_coalg.carrier_chain, b_coalg.carrier_chain,
        tuple(b.positions[f_map[x]] for x in a.order))
    phi_a, _ = phi(u.compose(chain_f), a_coalg)
    lhs = tuple(phi_b.map[f_map[x]] for x in range(a.size))
    if lhs != phi_a.map:
        return False, None
    return True, f_map


class TransportedWitness(Record, frozen=True):
    __slots__ = ("lift",      # hat_E of the chain witness
                 "verdict")   # the certifying arrow verdict on the lift

    def __init__(self, lift, verdict):
        _set(self, "lift", lift)
        _set(self, "verdict", verdict)

    @property
    def chain_witness(self):
        return self.lift.base

    @property
    def certified(self):
        """The verdict's status: holds, refuted or inconclusive."""
        return self.verdict.status


def transport_witness(u_star, v_star, k, chain_witness_budget=8,
                      certify_cap=DEFAULT_SEARCH_CAP,
                      lift_cap=DEFAULT_LIFT_CAP):
    """Find a chain witness W for the underlying chains, lift it, certify.

    Searches W with W -> (chain(V))^(chain(U))_k among the n-chains up to
    the budget with `find_witness`, each arrow at the fixed
    DEFAULT_SEARCH_CAP, which raises CapExceeded at an undecided arrow
    and gives NoChainWitnessInBudget only when every arrow was refuted.
    It then builds hat_E(W) and certifies hat_E(W) -> (V)^U_k with one
    arrow search of at most `certify_cap` nodes.
    """
    fu, fv = len(u_star.carrier_chain()), len(v_star.carrier_chain())
    w = find_witness(omega(fu), omega(fv), k, 1, ChainContext(),
                     (omega(n) for n in range(1, chain_witness_budget + 1)))
    if w is None:
        raise NoChainWitnessInBudget(chain_witness_budget)
    lift = hat_E(w, u_star.monoid, cap=lift_cap)
    verdict = holds_arrow(u_star, v_star, lift.lifted, k, 1,
                          MSetContext(), cap=certify_cap)
    return TransportedWitness(lift, verdict)
