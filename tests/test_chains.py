"""Chains, embeddings and lexicographic utilities."""

from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from msetramsey.chains import (Chain, ChainEmbedding,
                               enumerate_chain_embeddings, lex_product, omega,
                               ordinal_sum)
from msetramsey.errors import InputError

LESS, EQUAL, GREATER = -1, 0, 1


def lex_compare(f, g, s_chain, a_chain):
    """Compare two functions S -> A at the <-least point of disagreement.

    f and g map labels of s_chain to labels of a_chain.
    """
    for s in s_chain.labels:
        if s not in f or s not in g:
            raise InputError(f"function not total on the index chain at {s!r}")
        fa, ga = a_chain.position(f[s]), a_chain.position(g[s])
        if fa != ga:
            return LESS if fa < ga else GREATER
    return EQUAL


def test_omega_basics():
    c = omega(4)
    assert len(c) == 4
    assert list(c) == [0, 1, 2, 3]
    assert c.position(2) == 2
    assert c.to_json() == [0, 1, 2, 3]


def test_chain_rejects_duplicate_labels():
    with pytest.raises(InputError):
        Chain(("a", "b", "a"))


def test_embedding_must_be_strictly_increasing():
    with pytest.raises(InputError):
        ChainEmbedding(omega(2), omega(3), (1, 1))
    with pytest.raises(InputError):
        ChainEmbedding(omega(2), omega(3), (2, 0))
    with pytest.raises(InputError):
        ChainEmbedding(omega(2), omega(3), (1, 3))


def test_embedding_call_and_compose():
    inner = ChainEmbedding(omega(2), omega(3), (0, 2))
    outer = ChainEmbedding(omega(3), omega(5), (1, 2, 4))
    comp = outer.compose(inner)
    assert comp.map == (1, 4)
    assert comp(1) == 4
    identity = ChainEmbedding(omega(3), omega(3), (0, 1, 2))
    assert identity.compose(inner).map == inner.map


def test_compose_rejects_chain_mismatch():
    inner = ChainEmbedding(omega(2), omega(3), (0, 2))
    outer = ChainEmbedding(omega(4), omega(5), (1, 2, 3, 4))
    with pytest.raises(InputError):
        outer.compose(inner)


def test_ordinal_sum_concatenates_in_order():
    c = ordinal_sum([omega(2), omega(3)])
    assert c.labels == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2))


def test_lex_product_matches_tuple_comparison():
    c = lex_product([omega(2), omega(3)])
    labs = c.labels
    assert len(labs) == 6
    for x, y in combinations(labs, 2):
        assert (c.position(x) < c.position(y)) == (x < y)


def test_lex_product_of_nothing_is_a_point():
    assert len(lex_product([])) == 1


@given(st.integers(1, 4), st.data())
def test_lex_compare_matches_least_disagreement(ns, data):
    na = 3
    s_chain, a_chain = omega(ns), omega(na)
    f = {s: data.draw(st.integers(0, na - 1)) for s in range(ns)}
    g = {s: data.draw(st.integers(0, na - 1)) for s in range(ns)}
    got = lex_compare(f, g, s_chain, a_chain)
    diff = [s for s in range(ns) if f[s] != g[s]]
    if not diff:
        assert got == EQUAL
    else:
        s = min(diff)
        assert got == (LESS if f[s] < g[s] else GREATER)


def test_lex_compare_requires_total_functions():
    with pytest.raises(InputError):
        lex_compare({0: 0}, {0: 0, 1: 1}, omega(2), omega(2))


@pytest.mark.parametrize("n,m", [(0, 3), (1, 3), (2, 4), (3, 5)])
def test_enumerate_chain_embeddings_against_bruteforce(n, m):
    got = [e.map for e in enumerate_chain_embeddings(omega(n), omega(m))]
    # oracle: filter all injections for strict monotonicity
    oracle = sorted(
        tuple(p) for p in permutations(range(m), n)
        if all(p[i] < p[i + 1] for i in range(n - 1)))
    assert got == oracle
    assert len(got) == comb(m, n)


def test_enumerate_chain_embeddings_canonical_order():
    maps = [e.map for e in enumerate_chain_embeddings(omega(2), omega(4))]
    assert maps == sorted(maps)
