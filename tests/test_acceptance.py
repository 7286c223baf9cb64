"""Acceptance gate: one test and one printed pass/fail line per criterion.

Lines are printed with output capture disabled so they appear in every
pytest run; each criterion also asserts, so a FAIL line is always
accompanied by a failing test.
"""

import random
import time
from itertools import combinations, product

from helpers import equivariance_of_pi
from msetramsey.bigramsey import (big_ramsey_reduce, pi_star,
                                  random_coloring, unordered_degree_bound)
from msetramsey.chains import ChainEmbedding, omega
from msetramsey.comonad import (Coalgebra, DistinctListFunctor, ListFunctor,
                                MonoidActionFunctor, check_comonad_laws,
                                classify_coalgebra, coalgebra_to_mset,
                                cofree_coalgebra, mset_to_coalgebra)
from msetramsey.expansion import degree_sum_bound, fibers, forget_order
from msetramsey.forests import (decode_coalgebra, encode_forest,
                                enumerate_forests, fig1_forest)
from msetramsey.monoid import chain_semilattice, trivial_monoid, z2
from msetramsey.mset import check_equivariant, enumerate_embeddings, \
    validate_mset
from msetramsey.ramsey import (ChainContext, MSetContext, SMALL_BUDGET,
                               coloring_is_bad, composite_images,
                               holds_arrow, probe_small_degree)
from msetramsey.transport import hat_E, mset_as_weak_coalgebra, check_PA, \
    transport_witness


def report(capfd, number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"criterion {number:2d}: {status} - {detail} ({elapsed:.1f}s)",
              flush=True)
    assert ok, f"criterion {number}: {detail}"


def _swap_pair():
    return validate_mset(z2(), ("a1", "a2"), [[0, 1], [1, 0]],
                         order=("a1", "a2"))


def _trivial_pair():
    return validate_mset(trivial_monoid(), ("a1", "a2"), [[0, 1]],
                         order=("a1", "a2"))


def test_criterion_1_comonad_laws(capfd):
    start = time.monotonic()
    ok = True
    for monoid in (trivial_monoid(), z2(), chain_semilattice(3)):
        for size in (1, 2):
            rep = check_comonad_laws(MonoidActionFunctor(monoid),
                                     range(size))
            ok = ok and rep.all_pass
    for size in (1, 2, 3):
        rep = check_comonad_laws(DistinctListFunctor(), range(size))
        ok = ok and rep.all_pass
        rep = check_comonad_laws(ListFunctor(max_length=3), range(size))
        ok = ok and rep.all_pass
    # mutation: corrupted delta and corrupted epsilon each yield a
    # localized counterexample
    functor = MonoidActionFunctor(z2())
    bad_delta = check_comonad_laws(
        functor, range(2),
        delta=lambda h: tuple(tuple(h[0] for _ in h) for _ in h))
    bad_eps = check_comonad_laws(functor, range(2),
                                 epsilon=lambda h: h[-1])
    mutations_caught = (
        not bad_delta.all_pass and
        any(cx is not None for _, cx in bad_delta.failures()) and
        not bad_eps.all_pass and
        any(cx is not None for _, cx in bad_eps.failures()))
    elapsed = time.monotonic() - start
    ok = ok and mutations_caught and elapsed < 10
    report(capfd, 1, ok, "comonad laws exhaustively pass; mutations localized",
           elapsed)


def test_criterion_2_cofree_universality(capfd):
    start = time.monotonic()
    functor = MonoidActionFunctor(z2())
    exceptions = 0
    checked = 0
    for na in (1, 2):
        carrier = tuple(range(na))
        # all EM coalgebras on this carrier = all valid structures
        for structure in product(functor.carrier(carrier), repeat=na):
            c_candidate = Coalgebra(functor, carrier, structure)
            if classify_coalgebra(c_candidate)[0] != "EM":
                continue
            for nx in (1, 2):
                xs = tuple(range(nx))
                target = cofree_coalgebra(functor, xs)
                ex = functor.carrier(xs)
                for f_vals in product(xs, repeat=na):
                    f = dict(zip(carrier, f_vals))
                    solutions = []
                    for g_vals in product(ex, repeat=na):
                        g = dict(zip(carrier, g_vals))
                        is_hom = all(
                            target.structure_of(g[a]) ==
                            functor.lift(lambda s: g[s],
                                         c_candidate.structure_of(a))
                            for a in carrier)
                        if is_hom and all(functor.epsilon(g[a]) == f[a]
                                          for a in carrier):
                            solutions.append(g)
                    expected = {a: functor.lift(lambda s: f[s],
                                                c_candidate.structure_of(a))
                                for a in carrier}
                    if len(solutions) != 1 or solutions[0] != expected:
                        exceptions += 1
                    checked += 1
    elapsed = time.monotonic() - start
    ok = exceptions == 0 and checked > 0
    report(capfd, 2, ok, f"cofree universality: {checked} (coalgebra, f) cases, "
                  f"{exceptions} exceptions", elapsed)


def test_criterion_3_arrow_calibration(capfd):
    start = time.monotonic()
    ctx = ChainContext()
    v6 = holds_arrow(omega(2), omega(3), omega(6), 2, 1, ctx)
    v5 = holds_arrow(omega(2), omega(3), omega(5), 2, 1, ctx)
    _, _, _, images5 = composite_images(omega(2), omega(3), omega(5), ctx)
    bad_verified = (v5.bad_coloring is not None and
                    coloring_is_bad(v5.bad_coloring.colors, images5, 1))
    # naive oracle: sweep all 2^10 colorings of the 5-chain's pairs
    naive_found = any(coloring_is_bad(c, images5, 1)
                      for c in product(range(2), repeat=10))
    elapsed = time.monotonic() - start
    ok = (v6.status == "holds" and v5.status == "refuted" and
          bad_verified and naive_found and elapsed < 60)
    report(capfd, 3, ok, "R(3,3)=6 calibration: 6-chain holds, 5-chain refuted "
                  "(bad coloring verified, naive oracle agrees)", elapsed)


def test_criterion_4_mset_coalgebra_correspondence(capfd, every_mset):
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for monoid in (trivial_monoid(), z2()):
        objs = every_mset(monoid, 3)
        coalgs = {}
        for ms in objs:
            c = mset_to_coalgebra(ms)
            if classify_coalgebra(c)[0] != "EM":
                mismatches += 1
            back = coalgebra_to_mset(c)
            if back.carrier != ms.carrier or back.action != ms.action:
                mismatches += 1
            coalgs[id(ms)] = (ms, c)
        for a, ca in coalgs.values():
            for b, cb in coalgs.values():
                # equivariant maps == coalgebra homs, as raw map sets
                equivariant = set()
                homs = set()
                functor = ca.functor
                for f_map in product(range(b.size), repeat=a.size):
                    if check_equivariant(f_map, a, b) is None:
                        equivariant.add(f_map)
                    f = {a.carrier[i]: b.carrier[f_map[i]]
                         for i in range(a.size)}
                    if all(cb.structure_of(f[x]) ==
                           functor.lift(lambda s: f[s], ca.structure_of(x))
                           for x in ca.carrier):
                        homs.add(f_map)
                if equivariant != homs:
                    mismatches += 1
                checked += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and checked > 0
    report(capfd, 4, ok, f"M-set/EM-coalgebra round-trip and hom-set agreement on "
                  f"{checked} object pairs, {mismatches} mismatches", elapsed)


def test_criterion_5_forest_encoding(capfd):
    start = time.monotonic()
    expected = {
        "a": ("a", "d"), "b": ("b", "h", "d"), "c": ("c", "b", "h", "d"),
        "d": ("d",), "e": ("e", "g"), "f": ("f", "b", "h", "d"),
        "g": ("g",), "h": ("h", "d"), "i": ("i", "g"), "j": ("j", "g")}
    coalg = encode_forest(fig1_forest())
    table_ok = all(coalg.structure_of(x) == expected[x] for x in expected)
    roundtrips = 0
    failures = 0
    for n in range(1, 6):
        for forest in enumerate_forests(n):
            back = decode_coalgebra(encode_forest(forest), forest.order)
            if back != forest:
                failures += 1
            roundtrips += 1
    elapsed = time.monotonic() - start
    ok = table_ok and failures == 0
    report(capfd, 5, ok, f"reference forest table exact; decode after encode is the "
                  f"identity on {roundtrips} forests", elapsed)


def test_criterion_6_pre_adjunction(capfd):
    start = time.monotonic()
    # every ordered Z2-set of size <= 2: each class under all orders
    objs = [f for x in MSetContext().objects(_swap_pair(), 2)
            for f in fibers(forget_order(x))]
    checked = 0
    failures = 0
    for a_star in objs:
        a_coalg = mset_as_weak_coalgebra(a_star)
        for b_star in objs:
            fs = enumerate_embeddings(a_star, b_star)
            if not fs:
                continue
            b_coalg = mset_as_weak_coalgebra(b_star)
            for c_size in range(b_star.size, 4):
                for u_map in combinations(range(c_size), b_star.size):
                    u = ChainEmbedding(b_coalg.carrier_chain,
                                       omega(c_size), u_map)
                    for f in fs:
                        # phi raises if its output fails coalgebra-hom
                        # validation, so reaching the check means 100%
                        okk, v = check_PA(u, f.map, a_coalg, b_coalg)
                        if not okk or v != f.map:
                            failures += 1
                        checked += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and checked == 54
    report(capfd, 6, ok, f"(PA) with v = f on {checked} (u, f) instances, "
                  f"{failures} failures; all Phi outputs validated", elapsed)


def test_criterion_7_witness_transport(capfd):
    start = time.monotonic()
    u_star = validate_mset(z2(), ("u",), [[0], [0]], order=("u",))
    v_star = validate_mset(z2(), ("v0", "v1"), [[0, 1], [0, 1]],
                           order=("v0", "v1"))
    result = transport_witness(u_star, v_star, 2)
    hom_u = enumerate_embeddings(u_star, result.lift.lifted)
    # exhaustive certification by the naive oracle over all 2^3 colorings
    ctx = MSetContext()
    _, _, _, images = composite_images(u_star, v_star, result.lift.lifted,
                                       ctx)
    naive_holds = not any(coloring_is_bad(c, images, 1)
                          for c in product(range(2), repeat=len(hom_u)))
    elapsed = time.monotonic() - start
    ok = (len(result.chain_witness) == 3 and result.certified == "holds"
          and len(hom_u) == 3 and naive_holds)
    report(capfd, 7, ok, "W = 3-chain; hat_E(W) -> (V)^U_2 certified over all "
                  "2^3 colorings", elapsed)


def _run_trials(a_star, k, big_n, trials, seed0):
    lift = hat_E(omega(big_n), a_star.monoid)
    r_size = len(enumerate_embeddings(a_star, lift.lifted))
    failures = 0
    for t in range(trials):
        chi = random_coloring(r_size, k, seed0 + t)
        res = big_ramsey_reduce(a_star, chi, k, big_n)
        if res.colors_used > 2:
            failures += 1
    return trials, failures


def test_criterion_8_big_ramsey_bound(capfd):
    start = time.monotonic()
    t1, f1 = _run_trials(_trivial_pair(), 4, 20, 200, 1000)
    t2, f2 = _run_trials(_swap_pair(), 3, 5, 100, 2000)
    elapsed = time.monotonic() - start
    ok = f1 == 0 and f2 == 0 and elapsed < 600
    report(capfd, 8, ok, f"colors_used <= 2 in {t1}/200 trivial and {t2}/100 "
                  f"swap-pair trials ({f1 + f2} failures)", elapsed)


def test_criterion_9_claims_1_and_2(capfd):
    start = time.monotonic()
    instances = [(_trivial_pair(), trivial_monoid(), 20),
                 (_swap_pair(), z2(), 5)]
    injective = True
    for a_star, monoid, big_n in instances:
        lift = hat_E(omega(big_n), monoid)
        r = enumerate_embeddings(a_star, lift.lifted)
        keys = {(rec.ell, rec.f_star.map)
                for rec in (pi_star(f, lift) for f in r)}
        injective = injective and len(keys) == len(r)
    rng = random.Random(99)
    equivariant_failures = 0
    for trial in range(50):
        a_star, monoid, big_n = instances[trial % 2]
        big_n = min(big_n, 6)
        n_small = rng.randrange(a_star.size, big_n + 1)
        u_map = tuple(sorted(rng.sample(range(big_n), n_small)))
        u = ChainEmbedding(omega(n_small), omega(big_n), u_map)
        lifts = (hat_E(omega(n_small), monoid), hat_E(omega(big_n), monoid))
        if not equivariance_of_pi(u, a_star, *lifts):
            equivariant_failures += 1
    elapsed = time.monotonic() - start
    ok = injective and equivariant_failures == 0
    report(capfd, 9, ok, f"pi injective on both full hom-sets; equivariance held "
                  f"on 50 sampled (u, R) pairs "
                  f"({equivariant_failures} failures)", elapsed)


def test_criterion_10_degree_machinery(capfd):
    start = time.monotonic()
    m0 = trivial_monoid()
    two = validate_mset(m0, (0, 1), [(0, 1)])
    probe2 = probe_small_degree(two, MSetContext(), budget=SMALL_BUDGET)
    sum2 = degree_sum_bound(two, {f.order: 1 for f in fibers(two)})
    exact_two = probe2.lower == 2 and probe2.upper == 2 and sum2 == 2
    points_ok = True
    for monoid in (m0, z2()):
        one = validate_mset(monoid, (0,),
                            [(0,)] * monoid.size)
        probe1 = probe_small_degree(one, MSetContext(),
                                    budget=SMALL_BUDGET)
        points_ok = points_ok and probe1.lower == 1 and probe1.upper == 1
    # aggregate big bound on n = 2 instances from actual reduction runs
    aggregates_ok = True
    for a in (forget_order(_trivial_pair()), forget_order(_swap_pair())):
        per_order = {}
        for a_star in fibers(a):
            lift = hat_E(omega(5), a.monoid)
            r_size = len(enumerate_embeddings(a_star, lift.lifted))
            worst = 0
            for seed in range(5):
                res = big_ramsey_reduce(a_star,
                                        random_coloring(r_size, 2, seed),
                                        2, 5)
                worst = max(worst, res.colors_used)
            per_order[a_star.order] = worst
        agg = unordered_degree_bound(a, per_order)
        aggregates_ok = aggregates_ok and agg.aggregate <= 4 == agg.formula
    elapsed = time.monotonic() - start
    ok = exact_two and points_ok and aggregates_ok
    report(capfd, 10, ok, "t = 2 exactly for the trivial pair; points have "
                   "t = 1; n = 2 aggregates within 2!*2", elapsed)
