"""Lexicographic lifts, weak coalgebras and witness transport."""

import functools
from itertools import product

import pytest

from helpers import truncated_powers
from msetramsey import ramsey, transport
from msetramsey.chains import ChainEmbedding, omega
from msetramsey.errors import (CapExceeded, InputError,
                               NoChainWitnessInBudget, SizeOverflow)
from msetramsey.expansion import fibers, forget_order
from msetramsey.monoid import (chain_semilattice, cyclic_group,
                               left_zero_monoid, trivial_monoid,
                               validate_monoid, z2)
from msetramsey.mset import (check_equivariant, enumerate_embeddings,
                             validate_morphism, validate_mset)
from msetramsey.ramsey import MSetContext
from msetramsey.transport import (check_PA, hat_E, hat_E_map, hat_delta,
                                  mset_as_weak_coalgebra, phi,
                                  transport_witness)


def _fixed_point(labels=("u",)):
    n = len(labels)
    return validate_mset(z2(), labels, [list(range(n)), list(range(n))],
                         order=labels)


def test_hat_e_of_trivial_monoid_is_the_base_chain():
    lift = hat_E(omega(4), trivial_monoid())
    assert lift.lifted.size == 4
    assert lift.lifted.carrier_chain().labels == \
        tuple((x,) for x in range(4))


def test_hat_e_lex_order_matches_sorted_tuples():
    lift = hat_E(omega(2), z2())
    ordered = [lift.functions[i] for i in lift.lifted.order]
    assert ordered == sorted(lift.functions)
    # the underlying action satisfies the M-set axioms
    validate_mset(z2(), lift.lifted.carrier, lift.lifted.action)


def test_hat_e_action_formula():
    """Every table of the lift, from its definition; the one-element
    monoid and a non-default well-order included."""
    lz = left_zero_monoid(2)
    for m in (trivial_monoid(), z2(), cyclic_group(3), lz,
              validate_monoid(lz.size, lz.table, lz.identity, (0, 2, 1))):
        lift = hat_E(omega(3), m)
        assert lift.functions == tuple(product(range(3), repeat=m.size))
        assert lift.index == {h: i for i, h in enumerate(lift.functions)}
        assert lift.lifted.carrier == lift.functions
        for g in range(m.size):
            for i, h in enumerate(lift.functions):
                moved = lift.functions[lift.lifted.act(g, i)]
                assert moved == tuple(h[m.mul(g, mp)] for mp in range(m.size))
        assert [lift.functions[i] for i in lift.lifted.order] == sorted(
            lift.functions, key=lambda h: [h[w] for w in m.well_order])


def test_hat_e_cap():
    with pytest.raises(SizeOverflow):
        hat_E(omega(10), z2(), cap=50)


def test_hat_e_map_is_functorial():
    m = z2()
    l2, l3, l4 = (hat_E(omega(n), m) for n in (2, 3, 4))
    u = ChainEmbedding(omega(2), omega(3), (0, 2))
    v = ChainEmbedding(omega(3), omega(4), (1, 2, 3))
    eu = hat_E_map(u, l2, l3)
    ev = hat_E_map(v, l3, l4)
    evu = hat_E_map(v.compose(u), l2, l4)
    assert tuple(ev.map[x] for x in eu.map) == evu.map


def test_hat_e_map_rejects_mismatched_lifts():
    m = z2()
    l2, l3 = hat_E(omega(2), m), hat_E(omega(3), m)
    u = ChainEmbedding(omega(2), omega(4), (0, 2))
    with pytest.raises(InputError):
        hat_E_map(u, l2, l3)


@pytest.mark.parametrize("monoid", [trivial_monoid(), z2(),
                                    left_zero_monoid(2)])
def test_hat_delta_is_a_validated_order_embedding(monoid):
    lift = hat_E(omega(2), monoid)
    mor, outer = hat_delta(lift)
    assert mor.kind == "order-embedding"
    assert outer.lifted.size == lift.lifted.size ** monoid.size


def _reference_hat_delta(lift):
    """hat_delta built from its formula: delta(h)(v) = rank of h(v * .)."""
    m = lift.lifted.monoid
    outer = hat_E(lift.lifted.carrier_chain(), m)
    rank_of = lift.lifted.positions

    def delta_of(i):
        h = lift.functions[i]
        return tuple(
            rank_of[lift.index[tuple(h[m.mul(v, w)] for w in range(m.size))]]
            for v in range(m.size))

    table = tuple(outer.index[delta_of(i)] for i in range(len(lift.functions)))
    return table, outer


@pytest.mark.parametrize("monoid", [
    trivial_monoid(), z2(), cyclic_group(3), chain_semilattice(3),
    left_zero_monoid(2), truncated_powers(2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hat_delta_matches_its_formula(monoid, n):
    lift = hat_E(omega(n), monoid)
    mor, outer = hat_delta(lift)
    table, ref_outer = _reference_hat_delta(lift)
    assert mor.map == table
    assert outer == ref_outer
    assert mor.source == lift.lifted and mor.target == outer.lifted


def test_square_violation_flags_reversed_composition():
    """h(w * v) in place of h(v * w) breaks the square over left zeros.

    The weak-EM square of a structure map into hat_E(chain) and the hom
    square of Phi(u) into hat_E(omega_{2|lift|}) are the equivariance of
    the map, so check_equivariant decides both."""
    m = left_zero_monoid(2)
    lift = hat_E(omega(2), m)
    rank_of = lift.lifted.positions

    def structure(mul):
        return tuple(
            tuple(rank_of[lift.index[tuple(h[mul(v, w)]
                                           for w in range(m.size))]]
                  for v in range(m.size))
            for h in lift.functions)

    def square_violation(target, values):
        table = tuple(target.index[h] for h in values)
        return check_equivariant(table, lift.lifted, target.lifted)

    right = structure(m.mul)
    reversed_ = structure(lambda v, w: m.mul(w, v))
    assert right != reversed_
    outer = hat_E(lift.lifted.carrier_chain(), m)
    assert square_violation(outer, right) is None
    assert square_violation(outer, reversed_) is not None
    # the hom square of Phi(u) is the same check with values = u . beta
    u = tuple(range(1, 2 * lift.lifted.size, 2))   # increasing
    lift_c = hat_E(omega(2 * lift.lifted.size), m)
    values = tuple(tuple(u[r] for r in h) for h in right)
    assert square_violation(lift_c, values) is None
    values = tuple(tuple(u[r] for r in h) for h in reversed_)
    assert square_violation(lift_c, values) is not None


def test_composition_convention_pinned_by_noncommutative_monoid():
    """The reversed composition order breaks the comultiplication square."""
    m = left_zero_monoid(2)
    lift = hat_E(omega(2), m)
    pairs = [(v, w) for v in range(m.size) for w in range(m.size)
             if m.mul(v, w) != m.mul(w, v)]
    assert pairs  # the monoid is noncommutative
    # delta'(h)(v)(w) = h(w * v) is not even equivariant into hat_E(chain)
    rank_of = lift.lifted.positions
    src_index = lift.index
    outer = hat_E(lift.lifted.carrier_chain(), m)

    def delta_rev(i):
        h = lift.functions[i]
        return tuple(
            rank_of[src_index[tuple(h[m.mul(w, v)] for w in range(m.size))]]
            for v in range(m.size))

    table = tuple(outer.index[delta_rev(i)]
                  for i in range(len(lift.functions)))
    with pytest.raises(InputError):
        validate_morphism(lift.lifted, outer.lifted, table, "morphism")


def test_mset_as_weak_coalgebra_structure():
    swap = validate_mset(z2(), ("a1", "a2"), [[0, 1], [1, 0]],
                         order=("a1", "a2"))
    coalg = mset_as_weak_coalgebra(swap)
    # alpha(a)(g) = rank of g.a in the carrier chain
    assert coalg.structure == ((0, 1), (1, 0))


def test_phi():
    swap = validate_mset(z2(), ("a1", "a2"), [[0, 1], [1, 0]],
                         order=("a1", "a2"))
    coalg = mset_as_weak_coalgebra(swap)
    u = ChainEmbedding(coalg.carrier_chain, omega(4), (1, 3))
    mor, lift_c = phi(u, coalg)
    assert mor.kind == "order-embedding"
    assert [lift_c.functions[i] for i in mor.map] == [(1, 3), (3, 1)]


def test_phi_rejects_wrong_source_chain():
    coalg = mset_as_weak_coalgebra(_fixed_point())
    u = ChainEmbedding(omega(2), omega(4), (0, 1))
    with pytest.raises(InputError):
        phi(u, coalg)


def test_check_pa_exhaustive_small_z2():
    """(PA) with v = f for every ordered Z2-set of size <= 2 (each class
    under all orders) and chain targets."""
    objs = [f for x in MSetContext().objects(_fixed_point(), 2)
            for f in fibers(forget_order(x))]
    checked = 0
    for a_star in objs:
        for b_star in objs:
            embeddings = enumerate_embeddings(a_star, b_star)
            if not embeddings:
                continue
            b_coalg = mset_as_weak_coalgebra(b_star)
            a_coalg = mset_as_weak_coalgebra(a_star)
            for c_size in range(b_star.size, 4):
                for u_map in _increasing_maps(b_star.size, c_size):
                    u = ChainEmbedding(b_coalg.carrier_chain, omega(c_size),
                                       u_map)
                    for f in embeddings:
                        ok, v = check_PA(u, f.map, a_coalg, b_coalg)
                        assert ok and v == f.map
                        checked += 1
    assert checked == 54


def _increasing_maps(n, m):
    from itertools import combinations
    return list(combinations(range(m), n))


def test_transport_witness_fixed_points():
    u_star = _fixed_point(("u",))
    v_star = _fixed_point(("v0", "v1"))
    result = transport_witness(u_star, v_star, 2)
    assert len(result.chain_witness) == 3
    assert result.lift.lifted.size == 9
    assert result.certified == "holds"


def test_unordered_msets_have_no_carrier_chain():
    """An unordered M-set has no carrier chain, so neither a weak
    coalgebra nor a transported witness: each says so with InputError."""
    u = forget_order(_fixed_point(("u",)))
    v = _fixed_point(("v0", "v1"))
    for call in (u.carrier_chain, lambda: mset_as_weak_coalgebra(u),
                 lambda: transport_witness(u, v, 2)):
        with pytest.raises(InputError, match="has no order"):
            call()


def test_transport_witness_budget_exhausted():
    u_star = _fixed_point(("u",))
    v_star = _fixed_point(("v0", "v1"))
    with pytest.raises(NoChainWitnessInBudget):
        transport_witness(u_star, v_star, 2, chain_witness_budget=2)


def test_transport_witness_must_contain_v():
    """chain(U) = omega_2 and chain(V) = omega_4 need W = omega_18
    (R(4,4) = 18), beyond the default budget of 8."""
    m = trivial_monoid()
    pair = validate_mset(m, (0, 1), [(0, 1)], order=(0, 1))
    four = validate_mset(m, tuple(range(4)), [tuple(range(4))],
                         order=tuple(range(4)))
    with pytest.raises(NoChainWitnessInBudget):
        transport_witness(pair, four, 2)


def test_transport_witness_raises_at_a_capped_chain_arrow(monkeypatch):
    """W = omega_6 has W -> (3)^2_2, but not within 5 nodes: a chain search
    that meets an undecided arrow fails loudly, since it cannot say that
    no witness lies within the budget."""
    monkeypatch.setattr(transport, "find_witness",
                        functools.partial(ramsey.find_witness, cap=5))
    m = trivial_monoid()
    pair = validate_mset(m, (0, 1), [(0, 1)], order=(0, 1))
    three = validate_mset(m, (0, 1, 2), [(0, 1, 2)], order=(0, 1, 2))
    with pytest.raises(CapExceeded) as exc:
        transport_witness(pair, three, 2)
    assert str(exc.value) == ("the arrow at t=1, k=2, |B|=3, |C|=4 exceeds "
                              "the search cap 5")


@pytest.mark.parametrize("make, lifts", [
    (trivial_monoid, 18), (z2, 72), (lambda: chain_semilattice(2), 264)],
    ids=["trivial", "z2", "semilattice2"])
def test_certified_lifts_contain_a_copy_of_v(make, lifts):
    """A lift that certifies hat_E(W) -> (V)^U_2 must contain V: the arrow
    is not met vacuously by a W too small to hold a copy of U. U and V
    range over every ordered M-set of size <= 3, each class under all
    orders; `lifts` is the number certified."""
    m = make()
    ctx = MSetContext()
    point = validate_mset(m, (0,), [(0,)] * m.size, order=(0,))
    objs = [f for x in ctx.objects(point, 3) for f in fibers(forget_order(x))]
    certified = 0
    for u_star in (u for u in objs if u.size <= 2):
        for v_star in (v for v in objs if v.size > 2):
            if not ctx.hom(u_star, v_star):
                continue
            result = transport_witness(u_star, v_star, 2)
            if result.certified == "holds":
                assert ctx.hom(v_star, result.lift.lifted)
                certified += 1
    assert certified == lifts
