"""Fixtures shared by the test modules."""

import pytest

from msetramsey.mset import MSet
from msetramsey.ramsey import _all_actions


@pytest.fixture
def every_mset():
    """every_mset(monoid, max_size): an M-set on range(n) for every valid
    action table, n = 1..max_size. MSetContext().objects(a, max_size)
    lists, for an unordered `a`, one M-set per isomorphism class; a sweep
    that must see every table uses this."""
    def build(monoid, max_size):
        return [MSet(monoid, tuple(range(n)), action)
                for n in range(1, max_size + 1)
                for action in _all_actions(monoid, n)]
    return build
