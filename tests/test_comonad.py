"""Comonad law checking, coalgebra classification and sharp lifts."""

import tracemalloc
from itertools import product

import pytest

from msetramsey.comonad import (Coalgebra, DistinctListFunctor, ListFunctor,
                                MonoidActionFunctor, check_comonad_laws,
                                classify_coalgebra, coalgebra_to_mset,
                                cofree_coalgebra, mset_to_coalgebra,
                                sharp_lift, validate_coalgebra_hom)
from msetramsey.errors import (EmptySequence, InputError, NotEMCoalgebra,
                               SizeOverflow)
from msetramsey.monoid import (chain_semilattice, left_zero_monoid,
                               trivial_monoid, z2)
from msetramsey.mset import validate_mset


def test_delta_epsilon_action_pointwise():
    m = z2()
    h = ("x", "y")
    # delta(h)(m1)(m2) = h(m1 * m2)
    functor = MonoidActionFunctor(m)
    assert functor.delta(h) == (("x", "y"), ("y", "x"))
    assert functor.epsilon(h) == "x"


def test_delta_epsilon_list():
    functor = ListFunctor()
    assert functor.delta((1, 2, 3)) == ((1, 2, 3), (2, 3), (3,))
    assert functor.epsilon((1, 2, 3)) == 1
    with pytest.raises(EmptySequence):
        functor.delta(())
    with pytest.raises(EmptySequence):
        functor.epsilon(())


@pytest.mark.parametrize("monoid", [trivial_monoid(), z2(),
                                    chain_semilattice(3),
                                    left_zero_monoid(2)])
def test_monoid_action_laws_pass(monoid):
    report = check_comonad_laws(MonoidActionFunctor(monoid), range(2))
    assert report.all_pass, report.failures()


def test_distinct_list_laws_pass_without_counit():
    report = check_comonad_laws(DistinctListFunctor(), range(3))
    assert report.all_pass, report.failures()
    assert not [name for name, _, _ in report.laws if "counit" in name]


def test_list_functor_laws_pass():
    report = check_comonad_laws(ListFunctor(max_length=3), range(2))
    assert report.all_pass, report.failures()


def test_mutated_delta_is_caught_with_witness():
    functor = MonoidActionFunctor(z2())
    bad_delta = lambda h: tuple(tuple(h[0] for _ in h) for _ in h)
    report = check_comonad_laws(functor, range(2), delta=bad_delta)
    assert not report.all_pass
    failed = dict((name, cx) for name, cx in report.failures())
    assert any(cx is not None for cx in failed.values())


def test_mutated_epsilon_is_caught_with_witness():
    functor = MonoidActionFunctor(z2())
    bad_eps = lambda h: h[-1]
    report = check_comonad_laws(functor, range(2), epsilon=bad_eps)
    names = [name for name, _ in report.failures()]
    assert names and set(names) <= {"counit_left", "counit_right"}


def test_carrier_cap_overflow():
    with pytest.raises(SizeOverflow):
        MonoidActionFunctor(z2()).carrier(range(4), cap=10)


@pytest.mark.parametrize("monoid", [z2(), chain_semilattice(3),
                                    left_zero_monoid(2)])
def test_monoid_action_delta_is_h_of_the_product(monoid):
    """delta(h)[m1][m2] = h[m1 * m2], written from the formula; the
    left-zero monoid is not commutative, so a transposed table fails."""
    functor = MonoidActionFunctor(monoid)
    n = monoid.size
    for h in product("xyz", repeat=n):
        assert functor.delta(h) == tuple(
            tuple(h[monoid.mul(m1, m2)] for m2 in range(n))
            for m1 in range(n))


@pytest.mark.parametrize("functor, elements, size", [
    (DistinctListFunctor(), range(8), 109601),
    (ListFunctor(max_length=6), range(9), 597870),
])
def test_list_carrier_cap_is_checked_before_building(functor, elements,
                                                     size):
    """The count's closed form is compared with the cap before a single
    sequence is built."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow, match=f"has size {size},"):
            functor.carrier(elements, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("functor, size", [
    (DistinctListFunctor(), 1 + 3 + 6 + 6),
    (ListFunctor(max_length=2), 3 + 9),
])
def test_list_carrier_at_the_cap_is_built(functor, size):
    assert len(functor.carrier(range(3), cap=size)) == size
    with pytest.raises(SizeOverflow):
        functor.carrier(range(3), cap=size - 1)


def test_mset_coalgebra_roundtrip():
    ms = validate_mset(z2(), ("a", "b"), [[0, 1], [1, 0]])
    c = mset_to_coalgebra(ms)
    assert classify_coalgebra(c)[0] == "EM"
    back = coalgebra_to_mset(c)
    assert back.carrier == ms.carrier and back.action == ms.action


def test_coalgebra_to_mset_requires_em():
    functor = MonoidActionFunctor(z2())
    # constant structure: comultiplication holds, counit fails
    c = Coalgebra(functor, ("a", "b"), (("b", "b"), ("b", "b")))
    status, witnesses = classify_coalgebra(c)
    assert status == "weak_EM_only"
    assert "counit_triangle" in witnesses
    with pytest.raises(NotEMCoalgebra):
        coalgebra_to_mset(c)


def test_classify_plain_coalgebra():
    functor = MonoidActionFunctor(z2())
    # structure violating the comultiplication square
    c = Coalgebra(functor, ("a", "b"), (("a", "b"), ("a", "b")))
    status, witnesses = classify_coalgebra(c)
    assert status == "plain"
    assert "comultiplication_square" in witnesses


def test_cofree_coalgebra_is_em():
    functor = MonoidActionFunctor(z2())
    c = cofree_coalgebra(functor, ("x", "y"))
    assert classify_coalgebra(c)[0] == "EM"


def test_validate_coalgebra_hom_rejects_non_hom():
    ms = validate_mset(z2(), ("a", "b"), [[0, 1], [1, 0]])
    fixed = validate_mset(z2(), ("p", "q"), [[0, 1], [0, 1]])
    c1, c2 = mset_to_coalgebra(ms), mset_to_coalgebra(fixed)
    with pytest.raises(InputError):
        validate_coalgebra_hom(c1, c2, {"a": "p", "b": "q"})
    validate_coalgebra_hom(c1, c1, {"a": "a", "b": "b"})


@pytest.mark.parametrize("f, message", [
    ({"a": "a"}, "coalgebra hom is not defined at 'b'"),
    ({"a": "a", "b": "z"}, "coalgebra hom sends 'b' to 'z', which is not in "
                           "the target's carrier")],
    ids=["missing-label", "outside-target"])
def test_validate_coalgebra_hom_checks_the_map_first(f, message):
    """A map that misses a label or leaves the target's carrier is named
    as such, not read as a failed square at another label."""
    c = mset_to_coalgebra(validate_mset(z2(), ("a", "b"), [[0, 1], [1, 0]]))
    with pytest.raises(InputError) as exc:
        validate_coalgebra_hom(c, c, f)
    assert str(exc.value) == message


def test_sharp_lift_is_the_unique_hom_bruteforce():
    """epsilon . g = f has exactly one coalgebra-hom solution: E(f) . alpha."""
    functor = MonoidActionFunctor(z2())
    ms = validate_mset(z2(), ("a", "b"), [[0, 1], [1, 0]])
    c = mset_to_coalgebra(ms)
    target = cofree_coalgebra(functor, ("x", "y"))
    for fa, fb in product(("x", "y"), repeat=2):
        f = {"a": fa, "b": fb}
        hom = sharp_lift(c, f, ("x", "y"))
        solutions = []
        for ga in target.carrier:
            for gb in target.carrier:
                g = {"a": ga, "b": gb}
                is_hom = all(
                    target.structure_of(g[x]) ==
                    functor.lift(lambda s: g[s], c.structure_of(x))
                    for x in c.carrier)
                if is_hom and all(functor.epsilon(g[x]) == f[x]
                                  for x in c.carrier):
                    solutions.append(g)
        assert len(solutions) == 1
        assert solutions[0] == hom.map


def test_sharp_lift_rejects_non_em():
    functor = MonoidActionFunctor(z2())
    c = Coalgebra(functor, ("a", "b"), (("b", "b"), ("b", "b")))
    assert classify_coalgebra(c)[0] == "weak_EM_only"
    with pytest.raises(NotEMCoalgebra):
        sharp_lift(c, {"a": "x", "b": "x"}, ("x",))
