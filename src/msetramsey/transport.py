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

from dataclasses import dataclass, field

from .chains import Chain, ChainEmbedding, omega
from .errors import InputError, NoChainWitnessInBudget, SizeOverflow
from .mset import MSet, MSetMorphism, cofree_tables, validate_morphism
from .ramsey import (ChainContext, DEFAULT_SEARCH_CAP, MSetContext,
                     find_witness, holds_arrow)

DEFAULT_LIFT_CAP = 10 ** 5


@dataclass(frozen=True)
class LexLift:
    base: Chain
    lifted: MSet
    functions: tuple   # functions[i] = h as a tuple of base positions
    index: dict = field(repr=False, compare=False)   # h -> i


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
    dst_index = lift_dst.index
    table = tuple(dst_index[tuple(h_emb.map[v] for v in h)]
                  for h in lift_src.functions)
    return validate_morphism(lift_src.lifted, lift_dst.lifted, table,
                             "order-embedding")


def hat_delta(lift):
    """hat_delta(h)(v)(w) = h(v*w), as a morphism lift -> hat_E(chain(lift)).

    h(v * .) is the action gamma(v, h), so this is the lift's own
    weak-coalgebra structure, validated as an order-embedding there.
    """
    coalg = mset_as_weak_coalgebra(lift.lifted)
    return coalg.embedding, coalg.lift


@dataclass(frozen=True)
class WeakCoalgebra:
    """An ordered M-set together with its structure map into hat_E."""

    ordered_mset: MSet
    lift: LexLift               # hat_E of the carrier chain
    structure: tuple            # structure[a] = h as tuple of order ranks
    embedding: MSetMorphism     # the structure map as an order-embedding

    @property
    def carrier_chain(self):
        return self.ordered_mset.carrier_chain()


def mset_as_weak_coalgebra(a_star):
    """Represent an ordered M-set by alpha(a)(g) = action(g, a).

    Asserts that alpha is an order-embedding into hat_E of the carrier
    chain. Its equivariance, alpha(g.a) = gamma(g, alpha(a)), is the
    weak-EM comultiplication square hat_delta . alpha = hat_E(alpha) . alpha.
    """
    m = a_star.monoid
    lift = hat_E(a_star.carrier_chain(), m)
    pos = a_star.positions
    structure = tuple(
        tuple(pos[a_star.act(g, a)] for g in range(m.size))
        for a in range(a_star.size))
    table = tuple(lift.index[h] for h in structure)
    embedding = validate_morphism(a_star, lift.lifted, table,
                                  "order-embedding")
    return WeakCoalgebra(a_star, lift, structure, embedding)


def phi(u, b_coalg):
    """Phi(u) = hat_E(u) . beta, landing in hat_E(C).

    `u` is a chain embedding from the carrier chain of the coalgebra to
    a chain C. Asserts that Phi(u) is an order-embedding; its equivariance
    is the coalgebra-hom square into (hat_E(C), hat_delta).
    """
    if u.source != b_coalg.carrier_chain:
        raise InputError("u must start at the coalgebra's carrier chain")
    m = b_coalg.ordered_mset.monoid
    lift_c = hat_E(u.target, m)
    values = tuple(tuple(u.map[r] for r in h) for h in b_coalg.structure)
    table = tuple(lift_c.index[v] for v in values)
    mor = validate_morphism(b_coalg.ordered_mset, lift_c.lifted, table,
                            "order-embedding")
    return mor, lift_c


def check_PA(u, f_map, a_coalg, b_coalg):
    """The pre-adjunction condition with v = f.

    Verifies Phi_B(u) . f == Phi_A(u . F(f)) pointwise, where F(f) is f
    read as a chain embedding between carrier chains.
    """
    phi_b, _ = phi(u, b_coalg)
    bpos = b_coalg.ordered_mset.positions
    # f as a chain embedding between the carrier chains
    chain_f = ChainEmbedding(
        a_coalg.carrier_chain, b_coalg.carrier_chain,
        tuple(bpos[f_map[a_coalg.ordered_mset.order[r]]]
              for r in range(a_coalg.ordered_mset.size)))
    phi_a, _ = phi(u.compose(chain_f), a_coalg)
    lhs = tuple(phi_b.map[f_map[x]] for x in range(a_coalg.ordered_mset.size))
    if lhs != phi_a.map:
        return False, None
    return True, f_map


@dataclass(frozen=True)
class TransportedWitness:
    lift: LexLift         # hat_E of the chain witness
    verdict: object       # the certifying arrow verdict on the lift

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

    Searches W with W -> (chain(V))^(chain(U))_k among n-chains, builds
    hat_E(W), and certifies hat_E(W) -> (V)^U_k with one arrow search of
    at most `certify_cap` nodes.
    """
    fu, fv = len(u_star.carrier_chain()), len(v_star.carrier_chain())
    w, _ = find_witness(omega(fu), omega(fv), k, 1, ChainContext(),
                        (omega(n) for n in range(1, chain_witness_budget + 1)))
    if w is None:
        raise NoChainWitnessInBudget(chain_witness_budget)
    lift = hat_E(w, u_star.monoid, cap=lift_cap)
    verdict = holds_arrow(u_star, v_star, lift.lifted, k, 1,
                          MSetContext(), cap=certify_cap)
    return TransportedWitness(lift, verdict)
