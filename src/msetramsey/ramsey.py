"""The arrow relation C -> (B)^A_{k,t}: decision engine and degree probes.

A coloring of hom(A, C) is "bad" when every w in hom(B, C) sees more
than t colors on w . hom(A, B). The arrow holds iff no bad coloring
exists. The search below assigns colors to hom(A, C) positions one at a
time, in index order, on an explicit stack with an undo trail, so its
depth is not bounded by Python's recursion limit. After each assignment
it propagates forced colors: once some w needs a new color on each of
its uncolored positions, colors w has already seen are removed from
their domains, and a position left with one color is colored at once.
First occurrences of colors are forced into increasing order, which
cuts a k! symmetry factor. Propagation prunes only subtrees without a
bad coloring, so the search reports the lex-least bad coloring in that
canonical order. A cap on the branching assignments (search nodes)
bounds the work; a search that runs out is "inconclusive".
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, count, permutations

from .errors import _SearchCapReached
from .forests import forest_as_mset, height
from .monoid import truncated_powers
from .mset import MSet, _getter, embedding_maps

DEFAULT_SEARCH_CAP = 10 ** 6


class ChainContext:
    """Hom-sets of finite chains (strictly increasing injections)."""

    def hom(self, a, c):
        return list(combinations(range(len(c)), len(a)))

    def theory_degree_upper(self, a):
        # chains are a Ramsey category (Finite Ramsey Theorem)
        return 1, "finite_ramsey_theorem"


class MSetContext:
    """Hom-sets of M-sets, order-embeddings when the M-sets are ordered."""

    def hom(self, a, c):
        return embedding_maps(a, c)

    def theory_degree_upper(self, a):
        if a.order is not None:
            # ordered finite M-sets form a Ramsey category
            return 1, "ordered_msets_ramsey"
        return math.factorial(a.size), "order_expansion_sum"

    def objects(self, a, max_size):
        """M-sets over a's monoid up to a size, ordered iff `a` is, one
        per isomorphism class, on range(n).

        Unordered, `_all_actions` emits the lex-least table of each class.
        Ordered, every valid table is listed once under the identity
        order: relabelling the carrier by rank turns any order into the
        identity, and the only order-preserving bijection between two
        identity-ordered carriers is the identity.
        """
        return [MSet(a.monoid, tuple(range(n)), action,
                     None if a.order is None else tuple(range(n)))
                for n in range(1, max_size + 1)
                for action in _all_actions(a.monoid, n,
                                           one_per_class=a.order is None)]


def _all_actions(monoid, n, one_per_class=False):
    """Every valid action table of M on an n-element carrier, in lex order,
    or with `one_per_class` only the lex-least table of each isomorphism
    class. Without it, each table under the identity order is the one
    ordered M-set of its ordered isomorphism class on range(n).

    The rows of the non-identity elements are filled cell by cell, in
    index order, trying values in ascending order. After each assignment
    only the instances of table[m1][table[m2][a]] == table[m2*m1][a]
    that pass through the new cell and have all three cells known are
    checked, so a partial table is dropped at its first clash. Every
    instance is checked when the last of its cells is assigned.

    The class cut is the lex-leader rule. Relabelling the carrier by p
    sends table[m][x] = y to table[m][p[x]] = p[y]. alive[d] holds a
    triple (p, p^-1, k) for each non-identity p whose image ties with the
    table on its first k cells, as known before cell d is filled. After a
    value passes `consistent`, each alive p walks on from k while both
    the cell and its image are known: an image that is smaller there
    rejects the value (no completion is lex-least) and one that is
    larger drops p for the whole subtree. The relabellings alive at a
    leaf are the table's non-identity automorphisms.
    """
    size, e = monoid.size, monoid.identity
    mul = [[monoid.mul(m2, m1) for m1 in range(size)] for m2 in range(size)]
    factors = [[] for _ in range(size)]   # factors[m]: (m2, m1), m2*m1 = m
    for m2 in range(size):
        for m1 in range(size):
            factors[mul[m2][m1]].append((m2, m1))
    table = [[None] * n for _ in range(size)]
    table[e] = list(range(n))
    cells = [(m, x) for m in range(size) if m != e for x in range(n)]
    alive = [[] for _ in range(len(cells) + 1)]
    if one_per_class:
        alive[0] = [(p, tuple(sorted(range(n), key=p.__getitem__)), 0)
                    for p in permutations(range(n))][1:]   # not the identity

    def consistent(m, x, v):
        for m1 in range(size):              # (m2, a) = (m, x)
            lhs = table[m1][v]
            if lhs is not None and table[mul[m][m1]][x] not in (None, lhs):
                return False
        for m2 in range(size):              # m1 = m, table[m2][a] = x
            row, rhs = table[m2], table[mul[m2][m]]
            for a in range(n):
                if row[a] == x and rhs[a] not in (None, v):
                    return False
        for m2, m1 in factors[m]:           # m2*m1 = m, a = x
            y = table[m2][x]
            if y is not None and table[m1][y] not in (None, v):
                return False
        return True

    def lex_leader(depth):
        """Fill alive[depth + 1]; False if some relabelling is smaller."""
        survivors = []
        for p, inverse, k in alive[depth]:
            while k <= depth:
                m, x = cells[k]
                y = table[m][inverse[x]]
                if y is None:
                    survivors.append((p, inverse, k))
                    break
                if p[y] < table[m][x]:
                    return False
                if p[y] > table[m][x]:
                    break           # p can never be smaller: drop it
                k += 1
            else:
                survivors.append((p, inverse, k))
        alive[depth + 1] = survivors
        return True

    out = []
    depth = 0
    while depth >= 0:
        if depth == len(cells):
            out.append(tuple(tuple(row) for row in table))
            depth -= 1
            continue
        m, x = cells[depth]
        v = 0 if table[m][x] is None else table[m][x] + 1
        while v < n:
            table[m][x] = v
            if consistent(m, x, v) and lex_leader(depth):
                break
            v += 1
        if v < n:
            depth += 1
        else:
            table[m][x] = None
            depth -= 1
    return out


class ForestContext:
    """Hom-sets of (ordered) rooted forests: injective parent-preserving maps."""

    def hom(self, a, c):
        m = truncated_powers(max(height(a), height(c)))
        return embedding_maps(forest_as_mset(a, m), forest_as_mset(c, m))


def compose_map(w, f):
    """(w . f)[x] = w[f[x]] for positional map tables; the reference
    that composite_images is tested against."""
    return tuple(w[x] for x in f)


@dataclass
class Coloring:
    colors: tuple
    k: int

    def __post_init__(self):
        if any(not (0 <= c < self.k) for c in self.colors):
            raise ValueError("color out of range")


@dataclass
class ArrowVerdict:
    status: str                      # "holds" | "refuted" | "inconclusive"
    bad_coloring: Coloring = None
    reason: str = ""
    witness_stats: dict = field(default_factory=dict)

    def to_json(self):
        d = {"status": self.status, "reason": self.reason,
             "witness_stats": self.witness_stats}
        if self.bad_coloring is not None:
            d["bad_coloring"] = list(self.bad_coloring.colors)
        return d


def composite_images(a, b, c, ctx):
    """For each w in hom(B,C): indices of {w . f : f in hom(A,B)} in hom(A,C).

    w . f is _getter(f)(w), one getter per f.
    """
    hom_ac = ctx.hom(a, c)
    index = {f: i for i, f in enumerate(hom_ac)}.__getitem__
    hom_ab = ctx.hom(a, b)
    hom_bc = ctx.hom(b, c)
    getters = [_getter(f) for f in hom_ab]
    images = [tuple(sorted(set(map(index, [g(w) for g in getters]))))
              for w in hom_bc]
    return hom_ac, hom_ab, hom_bc, images


def coloring_is_bad(colors, images, t):
    """Naive oracle: every w sees more than t colors on its composites."""
    return all(len({colors[i] for i in image}) > t for image in images)


def _search_bad_coloring(n, k, t, images, cap=None):
    """Least bad coloring in canonical color order, or None.

    Positions 0..n-1 are colored in index order and colors are tried in
    ascending order; a position may take a color only up to one past the
    largest color used before it, so first occurrences of colors come in
    increasing order. Branching uses an explicit stack, and every change
    goes on a trail that is undone back to a mark on backtracking.

    Each position keeps a domain of allowed colors. After each
    assignment the colors it forces are propagated: when some w through
    the assigned position needs as many more colors (to exceed t) as it
    has unassigned positions, each of those may only take a color w has
    not seen yet. An empty domain fails the branch, and a position left
    with a single color is assigned at once and propagated in turn; the
    branching then passes over it. Propagation cuts only subtrees
    without a bad coloring, so the first coloring found is the lex-least
    canonical bad coloring. None is returned straight away when some w
    has fewer than t + 1 composites.

    A node is one call of `assign`, a color tried at a branch point;
    with a `cap`, _SearchCapReached is raised in place of node cap + 1.
    """
    need = t + 1
    images = [set(image) for image in images]
    if not images or need > k or min(map(len, images)) < need:
        return None
    pos_to_ws = [[] for _ in range(n)]
    for wi, image in enumerate(images):
        for p in image:
            pos_to_ws[p].append(wi)
    free = [len(image) for image in images]
    counts = [[0] * k for _ in images]   # per-color multiplicity
    seen = [0] * len(images)             # bitmask of the colors w sees
    full = (1 << k) - 1
    colors = [-1] * n
    domain = [full] * n                  # bitmask of the allowed colors
    assigned, narrowed = [], []          # trails: p, and (p, old domain)
    nodes = count()                      # next() is the node's index

    def assign(p, c):
        """Give p an allowed color c and propagate; False on a conflict.

        Once w needs as many new colors as it has free positions, those
        positions may take only colors w has not seen, so w never needs
        more new colors than it has free positions; a conflict shows as
        an empty domain. A position whose domain shrinks to one color is
        queued exactly once, and its domain stays that one color until
        it is assigned or a conflict is found.
        """
        if next(nodes) == cap:
            raise _SearchCapReached
        queue = [(p, c)]
        while queue:
            p, c = queue.pop()
            colors[p] = c
            assigned.append(p)
            for wi in pos_to_ws[p]:
                free[wi] -= 1
                counts[wi][c] += 1
                seen[wi] |= 1 << c
            for wi in pos_to_ws[p]:
                if not free[wi] or need - seen[wi].bit_count() != free[wi]:
                    continue
                allowed = full & ~seen[wi]
                for q in images[wi]:
                    if colors[q] >= 0:
                        continue
                    old = domain[q]
                    new = old & allowed
                    if new == old:
                        continue
                    if not new:
                        return False
                    narrowed.append((q, old))
                    domain[q] = new
                    if not new & (new - 1):
                        queue.append((q, new.bit_length() - 1))
        return True

    def undo(assigned_mark, narrowed_mark):
        while len(assigned) > assigned_mark:
            p = assigned.pop()
            c, colors[p] = colors[p], -1
            for wi in pos_to_ws[p]:
                free[wi] += 1
                counts[wi][c] -= 1
                if not counts[wi][c]:
                    seen[wi] ^= 1 << c
        while len(narrowed) > narrowed_mark:
            q, old = narrowed.pop()
            domain[q] = old

    stack = []   # branch points: (p, color, used, trail marks)
    p = used = c = 0
    while True:
        # No domain shrinks to one color before k - 1 colors are used, so
        # forced colors never break the canonical order.
        while p < n and colors[p] >= 0:
            used = max(used, colors[p] + 1)
            p += 1
        if p == n:
            return tuple(colors)
        top = min(used + 1, k)
        marks = len(assigned), len(narrowed)
        while c < top and not (domain[p] >> c & 1 and assign(p, c)):
            undo(*marks)
            c += 1
        if c < top:
            stack.append((p, c, used, marks))
            c = 0
            continue
        if not stack:
            return None
        p, c, used, marks = stack.pop()
        undo(*marks)
        c += 1


def holds_arrow(a, b, c, k, t, ctx, cap=DEFAULT_SEARCH_CAP):
    """Decide C -> (B)^A_{k,t} with a search of at most `cap` nodes.

    A search (module docstring) that would need more nodes gives
    "inconclusive", with reason search_nodes_exceed_cap_<cap> and the
    nodes used in witness_stats.
    """
    hom_ac, hom_ab, hom_bc, images = composite_images(a, b, c, ctx)
    n = len(hom_ac)
    if n == 0:
        return ArrowVerdict("holds", reason="empty_hom_A_C")
    if not hom_bc:
        bad = Coloring(tuple(0 for _ in range(n)), k)
        return ArrowVerdict("refuted", bad_coloring=bad,
                            reason="empty_hom_B_C")
    if t >= k:
        return ArrowVerdict("holds", reason="t_not_below_k")
    stats = {"hom_AC": n, "hom_BC": len(hom_bc), "hom_AB": len(hom_ab)}
    try:
        found = _search_bad_coloring(n, k, t, images, cap)
    except _SearchCapReached:
        return ArrowVerdict("inconclusive",
                            reason=f"search_nodes_exceed_cap_{cap}",
                            witness_stats=dict(stats, nodes=cap))
    if found is None:
        return ArrowVerdict("holds", reason="exhausted_with_pruning",
                            witness_stats=stats)
    return ArrowVerdict("refuted", bad_coloring=Coloring(found, k),
                        reason="bad_coloring_found")


def find_witness(a, b, k, t, ctx, candidates, cap=DEFAULT_SEARCH_CAP):
    """First C containing B whose arrow holds, else (None, number tried)."""
    bound = 0
    for c in candidates:
        bound += 1
        if not ctx.hom(b, c):
            continue   # the arrow could only hold vacuously
        verdict = holds_arrow(a, b, c, k, t, ctx, cap=cap)
        if verdict.status == "holds":
            return c, verdict
    return None, bound


@dataclass
class DegreeProbe:
    lower: int
    upper: int      # the context's theory bound
    evidence: dict = field(default_factory=dict)


@dataclass
class ProbeBudget:
    max_b_size: int = 3
    max_c_size: int = 4
    max_k: int = 3


SMALL_BUDGET = ProbeBudget()
TINY_BUDGET = ProbeBudget(2, 3, 2)


def probe_small_degree(a, ctx, budget=SMALL_BUDGET, cap=DEFAULT_SEARCH_CAP):
    """Bracket the small Ramsey degree of `a` inside a finite budget.

    lower: t is bumped past any value defeated within the budget, where
    "defeated" means some (B, k) admits a bad coloring for every
    candidate C that contains B. upper: the context's theory bound.
    The candidates are listed once, and only if upper and max_k leave
    lower room to rise; B ranges over those of size <= max_b_size.
    `ctx` provides `theory_degree_upper(a)` and, if that leaves room,
    `objects(a, max_size)`, both read off `a`: MSetContext provides both,
    ChainContext's bound is 1, and ForestContext provides neither.
    """
    upper, upper_src = ctx.theory_degree_upper(a)
    evidence = {"upper_source": upper_src, "defeats": []}
    top = min(upper, budget.max_k)
    if top <= 1:
        return DegreeProbe(1, upper, evidence)
    candidates = ctx.objects(a, budget.max_c_size)
    bs = [(b, len(ctx.hom(a, b))) for b in candidates
          if b.size <= budget.max_b_size]
    lower = 1
    while lower < top:
        defeat = _first_defeat(a, lower, bs, candidates, ctx, budget, cap)
        if defeat is None:
            break
        evidence["defeats"].append(defeat)
        lower += 1
    return DegreeProbe(lower, upper, evidence)


def _first_defeat(a, t, bs, candidates, ctx, budget, cap):
    """The first (B, k) refuted for every candidate C containing B."""
    for b, n_ab in bs:
        if n_ab <= t:
            continue  # w-images can never exceed t colors
        cs = [c for c in candidates if ctx.hom(b, c)]   # B is one of them
        for k in range(t + 1, budget.max_k + 1):
            if all(holds_arrow(a, b, c, k, t, ctx, cap=cap).status
                   == "refuted" for c in cs):
                return dict(t=t, k=k, B_size=b.size, candidates=len(cs))
    return None
