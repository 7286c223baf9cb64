"""The truncated big-Ramsey experiment for ordered M-sets in a lex lift.

Every embedding f of an ordered M-set A into hat_E(omega_N) is reduced
to a chain embedding f* of a subchain of A: equal epsilon-values of the
component functions are merged (the equivalence rho) and the surviving
representatives map to those values. Composing with hat_E of a chain
embedding u found by iterated chain-Ramsey searches then bounds the
number of colors any coloring of hom(A, hat_E(omega_N)) takes on the
image hat_E(u) . R by 2^(|A|-1), one color per subchain containing the
least element.

The infinitary pigeonhole steps are replaced by finite searches for a
maximum subset of the current truncation all of whose small subsets are
monochromatic; each run certifies its own instance and fails loudly
(TruncationTooSmall) when the truncation cannot sustain the tower.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .chains import Chain, ChainEmbedding, omega
from .errors import (InputError, NotAnEmbedding, SizeOverflow,
                     TruncationTooSmall)
from .expansion import degree_sum_bound
from .mset import MSetMorphism, enumerate_embeddings
from .transport import hat_E, hat_E_map

DEFAULT_R_CAP = 10 ** 5


def subchains_containing_min(chain):
    """All subchains of a chain that contain its least element.

    Canonical order: by increasing subset bitmask over the remaining
    elements, so the singleton comes first and the full chain last.
    """
    labels = chain.labels
    if not labels:
        raise InputError("the empty chain has no least element")
    rest = labels[1:]
    out = []
    for mask in range(1 << len(rest)):
        subset = (labels[0],) + tuple(
            x for j, x in enumerate(rest) if mask >> j & 1)
        out.append(Chain(subset))
    return out


@dataclass(frozen=True)
class ReductionRecord:
    """The reduction f -> f* of one embedding into a lex lift.

    rho_blocks partitions the ranks 0..s-1 of the source order by equal
    epsilon-values, blocks listed by least member; subchain is the chain
    on the block representatives and ell its index among the subchains
    containing the least element; f_star embeds it into the base chain.
    """

    f: MSetMorphism
    rho_blocks: tuple
    ell: int
    subchain: Chain
    f_star: ChainEmbedding


def pi_star(f, lift):
    """Reduce an embedding f : A -> hat_E(base) to its chain shadow f*.

    The component function of the rank-i element is h_i = f(a_i) read in
    the lift; (i, j) are rho-equivalent iff h_i(1) = h_j(1), and f* sends
    each block representative to that shared value. Monotonicity
    h_1(1) <= ... <= h_s(1) is asserted (the lex order compares the
    identity coordinate first).
    """
    a_star = f.source
    s = a_star.size
    e = lift.monoid.identity
    hs = [lift.functions[f.map[a]] for a in a_star.order]
    eps = [h[e] for h in hs]
    if any(eps[i] > eps[i + 1] for i in range(s - 1)):
        raise NotAnEmbedding(
            f"epsilon-values are not monotone along the order: {eps}")
    if len(set(f.map)) != len(f.map):
        raise NotAnEmbedding("map is not injective")

    blocks = []
    for i in range(s):
        if blocks and eps[i] == eps[blocks[-1][0]]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    reps = [b[0] for b in blocks]
    labels = a_star.carrier_chain().labels
    subchain = Chain(tuple(labels[i] for i in reps))
    # the subset bitmask over ranks 1..s-1: subchains_containing_min's index
    ell = sum(1 << (i - 1) for i in reps[1:])
    f_star = ChainEmbedding(subchain, lift.base,
                            tuple(eps[i] for i in reps))
    return ReductionRecord(f, tuple(tuple(b) for b in blocks), ell,
                           subchain, f_star)


def equivariance_of_pi(u, a_star, lift_src, lift_dst, r=None):
    """Check pi(hat_E(u) . R) = u . pi(R), and g* = u . f* per element."""
    if r is None:
        r = enumerate_embeddings(a_star, lift_src.lifted)
    eu = hat_E_map(u, lift_src, lift_dst)
    lhs, rhs = set(), set()
    for f in r:
        g = MSetMorphism(a_star, lift_dst.lifted,
                         tuple(eu.map[x] for x in f.map), f.kind)
        rec_f = pi_star(f, lift_src)
        rec_g = pi_star(g, lift_dst)
        pushed = tuple(u.map[p] for p in rec_f.f_star.map)
        if rec_g.ell != rec_f.ell or rec_g.f_star.map != pushed:
            return False
        lhs.add((rec_g.ell, rec_g.f_star.map))
        rhs.add((rec_f.ell, pushed))
    return lhs == rhs


def _max_mono_subset(points, arity, color_of):
    """Largest T within `points` whose arity-subsets share one color.

    Deterministic: colors are tried in increasing order and only strict
    size improvements replace the incumbent. Vacuous when there are
    fewer than `arity` points.
    """
    points = sorted(points)
    if len(points) < arity:
        return points
    if arity == 1:
        classes = {}
        for x in points:
            classes.setdefault(color_of((x,)), []).append(x)
        best_color = max(classes, key=lambda c: (len(classes[c]), -c))
        return classes[best_color]

    table = {sub: color_of(sub) for sub in combinations(points, arity)}
    colors = sorted(set(table.values()))
    best = []

    def grow(c, chosen, rest):
        nonlocal best
        if len(chosen) + len(rest) <= len(best):
            return
        if not rest:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        x, rest = rest[0], rest[1:]
        if len(chosen) < arity - 1 or all(
                table[sub + (x,)] == c
                for sub in combinations(chosen, arity - 1)):
            grow(c, chosen + (x,), rest)
        grow(c, chosen, rest)

    for c in colors:
        grow(c, (), tuple(points))
    return best


@dataclass
class ReductionResult:
    u: ChainEmbedding
    colors_used: int
    bound: int
    tower: tuple           # truncation sizes N = T_0 >= T_1 >= ... >= T_n
    step_colors: tuple     # constant color certified at each step, top down
    r_size: int

    def to_json(self):
        return {"u": list(self.u.map), "colors_used": self.colors_used,
                "bound": self.bound, "tower": list(self.tower),
                "step_colors": list(self.step_colors),
                "R_size": self.r_size}


def big_ramsey_reduce(a_star, chi, k, big_n, r_cap=DEFAULT_R_CAP):
    """Find u with at most 2^(s-1) colors on hat_E(u) . hom(A, hat_E(omega_N)).

    `chi` is a coloring of R = hom(A, hat_E(omega_N)) in canonical
    order, either a sequence of colors or a callable on embeddings. The
    returned colors_used is an independent recount: the copies of A in
    the final truncation are pushed through hat_E(u), located in R by
    their raw map tables, and their chi-colors collected directly.
    """
    m = a_star.monoid
    s = a_star.size
    lift = hat_E(omega(big_n), m)
    r = enumerate_embeddings(a_star, lift.lifted)
    if len(r) > r_cap:
        raise SizeOverflow("hom(A, hat_E(omega_N))", len(r), r_cap)
    colors = tuple(chi(f) for f in r) if callable(chi) else tuple(chi)
    if len(colors) != len(r):
        raise InputError(
            f"coloring has {len(colors)} entries for {len(r)} embeddings")
    if any(not (0 <= c < k) for c in colors):
        raise InputError("coloring value out of range")

    subs = subchains_containing_min(a_star.carrier_chain())
    n = len(subs)
    gamma = {}
    for f, c in zip(r, colors):
        rec = pi_star(f, lift)
        key = (rec.ell, rec.f_star.map)
        if key in gamma:
            raise InputError(f"reduction is not injective at {key}")
        gamma[key] = c

    # iterated finite pigeonhole, from the full-index subchain down
    outer = list(range(big_n))   # composite w_n . ... . w_{i+1} into omega_N
    tower = [big_n]
    step_colors = []
    for i in range(n - 1, -1, -1):
        arity = len(subs[i])

        def color_of(subset, i=i):
            return gamma.get((i, tuple(outer[x] for x in subset)), 0)

        mono = _max_mono_subset(range(len(outer)), arity, color_of)
        if len(mono) < s:
            raise TruncationTooSmall(
                i + 1, f"monochromatic subset has size {len(mono)} < {s}")
        step_colors.append(color_of(tuple(mono[:arity])))
        outer = [outer[x] for x in mono]
        tower.append(len(mono))

    u = ChainEmbedding(omega(len(outer)), omega(big_n), tuple(outer))

    # independent recount, bypassing gamma entirely
    lift_small = hat_E(omega(len(outer)), m)
    r_small = enumerate_embeddings(a_star, lift_small.lifted)
    if not r_small:
        raise TruncationTooSmall(
            0, "the final truncation contains no copy of A")
    eu = hat_E_map(u, lift_small, lift)
    index = {f.map: i for i, f in enumerate(r)}
    seen = {colors[index[tuple(eu.map[x] for x in f.map)]] for f in r_small}
    return ReductionResult(u, len(seen), n, tuple(tower),
                           tuple(reversed(step_colors)), len(r))


def random_coloring(size, k, seed):
    rng = random.Random(seed)
    return tuple(rng.randrange(k) for _ in range(size))


@dataclass
class AggregateBound:
    aggregate: int
    formula: int          # n! * 2^(n-1)
    within_formula: bool

    def to_json(self):
        return {"aggregate": self.aggregate, "formula": self.formula,
                "within_formula": self.within_formula}


def unordered_degree_bound(a, per_ordering):
    """Sum certified per-ordering color counts against n! * 2^(n-1).

    `per_ordering` maps order_key(A*) -> the certified bound for that
    ordering (from big_ramsey_reduce runs); the whole fiber of A must be
    covered (degree_sum_bound raises IncompleteFiber otherwise).
    """
    total = degree_sum_bound(a, per_ordering)
    formula = math.factorial(a.size) * 2 ** (a.size - 1)
    return AggregateBound(total, formula, total <= formula)
