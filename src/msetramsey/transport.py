"""Lexicographic lifts of chains and witness transport.

hat_E takes a chain X to the ordered M-set on X^M with the lex order
driven by the monoid's well-order (identity least) and the action
gamma(m, h)(m') = h(m * m'). The comultiplication reads
hat_delta(h)(v)(w) = h(v * w); see the composition-order note in
`comonad`. Everything here asserts the squares it relies on instead of
trusting the construction.
"""

from dataclasses import dataclass, field
from itertools import product

from .chains import Chain, ChainEmbedding, omega
from .errors import InputError, NoChainWitnessInBudget, SizeOverflow
from .mset import (OrderedMSet, cofree_mset, enumerate_embeddings,
                   validate_morphism)
from .ramsey import ChainContext, MSetContext, find_witness, holds_arrow

DEFAULT_LIFT_CAP = 10 ** 5


@dataclass(frozen=True)
class LexLift:
    monoid: object
    base: Chain
    lifted: OrderedMSet
    functions: tuple   # functions[i] = h as a tuple of base positions
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "index", {h: i for i, h in enumerate(self.functions)})


def hat_E(base, m, cap=DEFAULT_LIFT_CAP):
    """The lex lift of a chain: ordered M-set on base^M."""
    size = len(base) ** m.size
    if size > cap:
        raise SizeOverflow("hat_E carrier", size, cap)
    # cofree_mset lists the carrier in this same order
    functions = tuple(product(range(len(base)), repeat=m.size))
    return LexLift(m, base, cofree_mset(base, m, ordered=True), functions)


def hat_E_map(h_emb, lift_src, lift_dst):
    """hat_E on morphisms: post-composition with a chain embedding."""
    if h_emb.source != lift_src.base or h_emb.target != lift_dst.base:
        raise InputError("embedding endpoints do not match the lifts")
    dst_index = lift_dst.index
    table = tuple(dst_index[tuple(h_emb.map[v] for v in h)]
                  for h in lift_src.functions)
    return validate_morphism(lift_src.lifted, lift_dst.lifted, table,
                             "order-embedding")


def lift_chain(lift):
    """The carrier of a lex lift, as a chain in lex order."""
    return Chain(tuple(lift.lifted.carrier[i] for i in lift.lifted.order))


def hat_delta(lift, cap=DEFAULT_LIFT_CAP):
    """hat_delta(h)(v)(w) = h(v*w), as a morphism lift -> hat_E(chain(lift)).

    Asserts that it is an order-embedding and that the comultiplication
    square for (hat_E(C), hat_delta) commutes.
    """
    m = lift.monoid
    outer = hat_E(lift_chain(lift), m, cap=cap)
    rank_of = lift.lifted.positions
    src_index = lift.index

    def delta_of(i):
        # delta(h) as a function M -> carrier(lift), via order ranks so
        # it names elements of the lifted chain
        h = lift.functions[i]
        return tuple(
            rank_of[src_index[tuple(h[m.mul(v, w)] for w in range(m.size))]]
            for v in range(m.size))

    table = tuple(outer.index[delta_of(i)] for i in range(len(lift.functions)))
    mor = validate_morphism(lift.lifted, outer.lifted, table, "order-embedding")

    # weak-EM square: hat_delta(delta(h)) == hat_E(delta)(delta(h))
    for i in range(len(lift.functions)):
        d = delta_of(i)
        lhs = tuple(tuple(d[m.mul(v, w)] for w in range(m.size))
                    for v in range(m.size))
        rhs = tuple(delta_of(lift.lifted.order[d[v]]) for v in range(m.size))
        if lhs != rhs:
            raise InputError(f"comultiplication square fails at function {i}")
    return mor, outer


@dataclass(frozen=True)
class WeakCoalgebra:
    """An ordered M-set together with its structure map into hat_E."""

    ordered_mset: OrderedMSet
    lift: LexLift               # hat_E of the carrier chain
    structure: tuple            # structure[a] = h as tuple of order ranks

    @property
    def carrier_chain(self):
        return self.ordered_mset.carrier_chain()


def mset_as_weak_coalgebra(a_star, cap=DEFAULT_LIFT_CAP):
    """Represent an ordered M-set by alpha(a)(g) = action(g, a).

    Asserts that alpha is an order-embedding into hat_E of the carrier
    chain and that the weak-EM comultiplication square commutes.
    """
    m = a_star.monoid
    lift = hat_E(a_star.carrier_chain(), m, cap=cap)
    pos = a_star.positions
    structure = tuple(
        tuple(pos[a_star.act(g, a)] for g in range(m.size))
        for a in range(a_star.size))
    # embedding into the lifted ordered M-set
    table = tuple(lift.index[h] for h in structure)
    validate_morphism(a_star, lift.lifted, table, "order-embedding")
    # weak-EM square: hat_delta(alpha(a)) == hat_E(alpha)(alpha(a))
    order = a_star.order
    for a in range(a_star.size):
        h = structure[a]
        lhs = tuple(tuple(h[m.mul(v, w)] for w in range(m.size))
                    for v in range(m.size))
        rhs = tuple(structure[order[h[v]]] for v in range(m.size))
        if lhs != rhs:
            raise InputError(
                f"weak-EM square fails at carrier element {a}")
    return WeakCoalgebra(a_star, lift, structure)


def phi(u, b_coalg, cap=DEFAULT_LIFT_CAP):
    """Phi(u) = hat_E(u) . beta, landing in hat_E(C).

    `u` is a chain embedding from the carrier chain of the coalgebra to
    a chain C. Asserts the coalgebra-hom square into (hat_E(C), hat_delta).
    """
    if u.source != b_coalg.carrier_chain:
        raise InputError("u must start at the coalgebra's carrier chain")
    m = b_coalg.ordered_mset.monoid
    lift_c = hat_E(u.target, m, cap=cap)
    values = tuple(tuple(u.map[r] for r in h) for h in b_coalg.structure)
    table = tuple(lift_c.index[v] for v in values)
    mor = validate_morphism(b_coalg.ordered_mset, lift_c.lifted, table,
                            "order-embedding")
    # hom square: hat_delta_C(Phi(a)) == hat_E(Phi)(beta(a)), pointwise:
    # Phi(a)(v*w) == Phi(order[beta(a)(v)])(w)
    order = b_coalg.ordered_mset.order
    for a in range(b_coalg.ordered_mset.size):
        for v in range(m.size):
            for w in range(m.size):
                lhs = values[a][m.mul(v, w)]
                rhs = values[order[b_coalg.structure[a][v]]][w]
                if lhs != rhs:
                    raise InputError(
                        f"Phi hom square fails at (a,v,w)=({a},{v},{w})")
    return mor, lift_c


def check_PA(u, f_map, a_coalg, b_coalg, cap=DEFAULT_LIFT_CAP):
    """The pre-adjunction condition with v = f.

    Verifies Phi_B(u) . f == Phi_A(u . F(f)) pointwise, where F(f) is f
    read as a chain embedding between carrier chains.
    """
    phi_b, _ = phi(u, b_coalg, cap=cap)
    apos = a_coalg.ordered_mset.positions
    bpos = b_coalg.ordered_mset.positions
    border = b_coalg.ordered_mset.order
    # f as a chain embedding between the carrier chains
    chain_f = ChainEmbedding(
        a_coalg.carrier_chain, b_coalg.carrier_chain,
        tuple(bpos[f_map[a_coalg.ordered_mset.order[r]]]
              for r in range(a_coalg.ordered_mset.size)))
    phi_a, _ = phi(u.compose(chain_f), a_coalg, cap=cap)
    lhs = tuple(phi_b.map[f_map[x]] for x in range(a_coalg.ordered_mset.size))
    if lhs != phi_a.map:
        return False, None
    return True, f_map


@dataclass
class TransportedWitness:
    chain_witness: Chain
    lift: LexLift
    certified: str        # "holds" | "refuted" | "inconclusive" | "skipped"
    verdict: object = None


def transport_witness(u_star, v_star, k, chain_witness_budget=8,
                      certify_cap=20, lift_cap=DEFAULT_LIFT_CAP):
    """Find a chain witness W for the underlying chains, lift it, certify.

    Searches W with W -> (chain(V))^(chain(U))_k among n-chains, builds
    hat_E(W), and certifies hat_E(W) -> (V)^U_k by exhausting colorings
    when hom(U, hat_E(W)) is small enough.
    """
    fu, fv = len(u_star.carrier_chain()), len(v_star.carrier_chain())
    chain_ctx = ChainContext()
    w, _ = find_witness(omega(fu), omega(fv), k, 1, chain_ctx,
                        (omega(n) for n in range(1, chain_witness_budget + 1)))
    if w is None:
        raise NoChainWitnessInBudget(chain_witness_budget)
    lift = hat_E(w, u_star.monoid, cap=lift_cap)
    ctx = MSetContext(u_star.monoid, ordered=True)
    hom_u = enumerate_embeddings(u_star, lift.lifted)
    if len(hom_u) <= certify_cap:
        verdict = holds_arrow(u_star, v_star, lift.lifted, k, 1, ctx,
                              cap=certify_cap)
        return TransportedWitness(w, lift, verdict.status, verdict)
    verdict = holds_arrow(u_star, v_star, lift.lifted, k, 1, ctx, cap=0)
    return TransportedWitness(w, lift, verdict.status, verdict)
