"""Finite monoids and their constructors."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from msetramsey.errors import BadIdentity, InputError, NotAssociative
from msetramsey.monoid import (chain_semilattice, cyclic_group,
                               left_zero_monoid, trivial_monoid,
                               validate_monoid)


def _is_monoid(size, table, identity):
    """Independent oracle for the monoid axioms."""
    for i, j, k in product(range(size), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return False
    return all(table[identity][i] == i == table[i][identity]
               for i in range(size))


def test_validate_rejects_bad_identity_with_witness():
    with pytest.raises(BadIdentity) as exc:
        validate_monoid(2, [[0, 1], [0, 0]], 0)
    assert exc.value.witness == 1


def test_validate_rejects_nonassociative_with_witness():
    nonassoc = [[0, 1, 2], [1, 1, 2], [2, 1, 1]]
    assert not _is_monoid(3, nonassoc, 0)
    with pytest.raises(NotAssociative) as exc:
        validate_monoid(3, nonassoc, 0)
    i, j, k = exc.value.witness
    t = nonassoc
    assert t[t[i][j]][k] != t[i][t[j][k]]


def test_validate_rejects_malformed_tables():
    with pytest.raises(InputError):
        validate_monoid(2, [[0, 1]], 0)
    with pytest.raises(InputError):
        validate_monoid(2, [[0, 5], [1, 0]], 0)
    with pytest.raises(InputError):
        validate_monoid(1, [[0]], 3)


def test_well_order_lists_identity_first():
    m = cyclic_group(3)
    assert m.well_order[0] == m.identity
    with pytest.raises(InputError):
        validate_monoid(2, [[0, 1], [1, 0]], 0, well_order=(1, 0))
    with pytest.raises(InputError):
        validate_monoid(2, [[0, 1], [1, 0]], 0, well_order=(0, 0))


@given(st.integers(2, 5))
def test_cyclic_group_satisfies_axioms(n):
    m = cyclic_group(n)
    assert _is_monoid(m.size, m.table, m.identity)
    assert all(m.mul(i, (n - i) % n) == 0 for i in range(n))


def test_chain_semilattice_is_commutative_and_idempotent():
    m = chain_semilattice(3)
    assert _is_monoid(3, m.table, 0)
    for i, j in product(range(3), repeat=2):
        assert m.mul(i, j) == m.mul(j, i)
    assert all(m.mul(i, i) == i for i in range(3))


def test_left_zero_monoid_is_noncommutative():
    m = left_zero_monoid(2)
    assert _is_monoid(m.size, m.table, m.identity)
    assert m.mul(1, 2) == 1 and m.mul(2, 1) == 2


@given(st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_validate_agrees_with_oracle_on_2x2_tables(table):
    for identity in range(2):
        ok = _is_monoid(2, table, identity)
        if ok:
            assert validate_monoid(2, table, identity).identity == identity
        else:
            with pytest.raises(InputError):
                validate_monoid(2, table, identity)


def test_trivial_monoid():
    m = trivial_monoid()
    assert m.size == 1 and m.identity == 0 and m.mul(0, 0) == 0
