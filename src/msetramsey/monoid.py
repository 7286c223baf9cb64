"""Finite monoids given by multiplication table.

The well-order attached to a monoid always lists the identity first; the
lexicographic lift machinery depends on that and nothing else.
"""

from itertools import product

from ._record import Record, _set
from .errors import BadIdentity, InputError, NotAssociative


class FiniteMonoid(Record, frozen=True):
    __slots__ = ("table",       # table[i][j] = i * j
                 "identity",
                 "well_order")  # permutation of 0..size-1, identity first

    def __init__(self, table, identity, well_order):
        _set(self, "table", table)
        _set(self, "identity", identity)
        _set(self, "well_order", well_order)

    @property
    def size(self):
        return len(self.table)

    def mul(self, i, j):
        return self.table[i][j]

    def to_json(self):
        return {"size": self.size, "identity": self.identity,
                "table": [list(row) for row in self.table],
                "well_order": list(self.well_order)}


def validate_monoid(size, table, identity, well_order=None):
    """Check the monoid axioms and return a validated FiniteMonoid."""
    table = tuple(tuple(row) for row in table)
    if len(table) != size or any(len(row) != size for row in table):
        raise InputError(f"table dimensions do not match size {size}")
    if not (0 <= identity < size):
        raise InputError(f"identity index {identity} out of range")
    for row in table:
        for x in row:
            if not (0 <= x < size):
                raise InputError(f"table entry {x} out of range")
    for i in range(size):
        if table[identity][i] != i or table[i][identity] != i:
            raise BadIdentity(i)
    for i, j, k in product(range(size), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise NotAssociative(i, j, k)
    if well_order is None:
        well_order = (identity,) + tuple(
            i for i in range(size) if i != identity)
    else:
        well_order = tuple(well_order)
        if sorted(well_order) != list(range(size)):
            raise InputError("well_order is not a permutation of the elements")
        if well_order[0] != identity:
            raise InputError("well_order must list the identity first")
    return FiniteMonoid(table, identity, well_order)


def trivial_monoid():
    return validate_monoid(1, [[0]], 0)


def cyclic_group(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_monoid(n, table, 0)


def z2():
    return cyclic_group(2)


def chain_semilattice(n):
    """The commutative monoid {0 > 1 > ... > n-1} under max-of-indices.

    Index 0 is the identity; every element is idempotent.
    """
    table = [[max(i, j) for j in range(n)] for i in range(n)]
    return validate_monoid(n, table, 0)


def left_zero_monoid(n):
    """Identity adjoined to the left-zero semigroup on n elements.

    Noncommutative for n >= 2; useful for pinning composition order.
    """
    size = n + 1
    table = [list(range(size))] + [[i] * size for i in range(1, size)]
    return validate_monoid(size, table, 0)
