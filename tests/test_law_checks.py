"""Each law is evaluated once: the check that is kept decides the one it
carries, on random valid and invalid action tables.

- The weak-EM square of alpha(a)(g) = rank of g.a and the hom square of
  Phi(u) = u . alpha are the equivariance of the map into hat_E, since
  delta(h)(m1)(m2) = h(m1 * m2) = gamma(m1, h)(m2).
- The comultiplication square and the counit triangle of an
  E-coalgebra, E(A) = A^M, are the composition and identity axioms.
- `_all_actions` emits only tables that satisfy both axioms.
- `validate_mset` compares whole rows, and names the same first
  composition witness as a cell-by-cell sweep.
"""

import random
from itertools import product

import pytest

from msetramsey.chains import ChainEmbedding, omega
from msetramsey.comonad import (classify_coalgebra, coalgebra_to_mset,
                                mset_to_coalgebra)
from msetramsey.errors import CompositionFails, InputError, NotEMCoalgebra
from msetramsey.monoid import (chain_semilattice, cyclic_group,
                               left_zero_monoid, trivial_monoid,
                               truncated_powers, validate_monoid, z2)
from msetramsey.mset import MSet, check_equivariant, validate_mset
from msetramsey.ramsey import _all_actions
from msetramsey.transport import hat_E, mset_as_weak_coalgebra, phi

LZ = left_zero_monoid(2)
MONOIDS = [
    pytest.param(trivial_monoid(), id="trivial"),
    pytest.param(z2(), id="z2"),
    pytest.param(cyclic_group(3), id="c3"),
    pytest.param(chain_semilattice(3), id="semilattice3"),
    pytest.param(LZ, id="left-zero2"),
    pytest.param(validate_monoid(LZ.size, LZ.table, LZ.identity, (0, 2, 1)),
                 id="left-zero2-reordered"),
    pytest.param(truncated_powers(2), id="powers2"),
]


def _reference_square(m, structure, values, order):
    """First a with delta(values[a]) != values[order[r]] for r in
    structure[a], delta(h)(m1)(m2) = h(m1 * m2); None if it commutes.

    With values = structure this is the weak-EM square of alpha; with
    values = u . structure, the hom square of Phi(u)."""
    for a, h in enumerate(structure):
        delta = tuple(tuple(values[a][m.mul(m1, m2)] for m2 in range(m.size))
                      for m1 in range(m.size))
        if delta != tuple(values[order[r]] for r in h):
            return a
    return None


def _tables(m, rng, count=40):
    """(n, action table) pairs, n <= 3: valid tables from _all_actions
    and tables of the right shape with values in range, about a third
    of those with a random identity row."""
    for n in range(1, 4):
        valid = _all_actions(m, n)
        for i in range(count):
            if i % 2 == 0:
                yield n, rng.choice(valid)
                continue
            table = [tuple(rng.randrange(n) for _ in range(n))
                     for _ in range(m.size)]
            if i % 3:
                table[m.identity] = tuple(range(n))
            yield n, tuple(table)


@pytest.mark.parametrize("m", MONOIDS)
def test_squares_fail_exactly_when_equivariance_fails(m):
    rng = random.Random(1)
    failed = held = 0
    for n, action in _tables(m, rng):
        order = tuple(rng.sample(range(n), n))
        ms = MSet(m, tuple(f"x{i}" for i in range(n)), action, order)
        pos = ms.positions
        structure = tuple(tuple(pos[ms.act(g, a)] for g in range(m.size))
                          for a in range(n))
        square = _reference_square(m, structure, structure, order)
        lift = hat_E(ms.carrier_chain(), m)
        alpha = tuple(lift.index[h] for h in structure)
        equivariant = check_equivariant(alpha, ms, lift.lifted) is None
        assert (square is None) == equivariant
        if all(action[m.identity][a] == a for a in range(n)):
            # alpha is then strictly increasing, so only the square can fail
            try:
                coalg = mset_as_weak_coalgebra(ms)
            except InputError:
                coalg = None
            assert (coalg is not None) == equivariant
        else:
            coalg = None
        c = n + rng.randrange(3)
        u = sorted(rng.sample(range(c), n))
        values = tuple(tuple(u[r] for r in h) for h in structure)
        lift_c = hat_E(omega(c), m)
        table = tuple(lift_c.index[v] for v in values)
        hom_square = _reference_square(m, structure, values, order)
        assert (hom_square is None) == (
            check_equivariant(table, ms, lift_c.lifted) is None)
        assert (hom_square is None) == equivariant
        if coalg is not None:
            mor, _ = phi(ChainEmbedding(coalg.carrier_chain, omega(c),
                                        tuple(u)), coalg)
            assert mor.map == table
        failed += not equivariant
        held += equivariant
    assert failed and held


@pytest.mark.parametrize("m", MONOIDS)
def test_em_exactly_when_the_axioms_hold(m):
    rng = random.Random(2)
    accepted = rejected = 0
    for n, action in _tables(m, rng):
        labels = tuple(f"x{i}" for i in range(n))
        c = mset_to_coalgebra(MSet(m, labels, action))
        try:
            ms = validate_mset(m, labels, action)
        except InputError:
            ms = None
        assert (classify_coalgebra(c)[0] == "EM") == (ms is not None)
        if ms is None:
            with pytest.raises(NotEMCoalgebra):
                coalgebra_to_mset(c)
            rejected += 1
        else:
            assert coalgebra_to_mset(c) == ms
            accepted += 1
    assert accepted and rejected


@pytest.mark.parametrize("m", MONOIDS)
def test_every_enumerated_table_is_an_action(m):
    for n in range(1, 5):
        tables = _all_actions(m, n)
        assert tables
        for action in tables:
            validate_mset(m, tuple(range(n)), action)



def _first_composition_failure(m, action):
    """The first (m1, m2, a), cell by cell, where m1.(m2.a) differs
    from (m2 * m1).a; None if there is none."""
    for m1, m2, a in product(range(m.size), range(m.size),
                             range(len(action[0]))):
        if action[m1][action[m2][a]] != action[m.mul(m2, m1)][a]:
            return m1, m2, a
    return None


@pytest.mark.parametrize("m", MONOIDS)
def test_validate_mset_names_the_first_composition_witness(m):
    rng = random.Random(3)
    failed = held = 0
    for n, action in _tables(m, rng):
        if action[m.identity] != tuple(range(n)):
            continue
        labels = tuple(f"x{i}" for i in range(n))
        first = _first_composition_failure(m, action)
        if first is None:
            validate_mset(m, labels, action)
            held += 1
            continue
        with pytest.raises(CompositionFails) as info:
            validate_mset(m, labels, action)
        m1, m2, a = first
        assert info.value.witness == (m1, m2, labels[a])
        failed += 1
    assert held and (failed or m.size == 1)
