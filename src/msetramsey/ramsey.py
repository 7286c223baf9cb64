"""The arrow relation C -> (B)^A_{k,t}: decision engine and degree probes.

A coloring of hom(A, C) is "bad" when every w in hom(B, C) sees more
than t colors on w . hom(A, B), whose members are distinct since w is
injective. The arrow holds iff no bad coloring exists. The search below
assigns colors to hom(A, C) positions one at a time, in index order, on
the explicit stack of `_depth_first`, so its depth is not bounded by
Python's recursion limit; its undo trail holds the assigned positions
and the old value of each changed bitmask (of the colors a w sees or a
position may not take), so no state grows with k. After each assignment
it propagates forced colors: once some w needs a new color on each of
its uncolored positions, colors w has already seen are banned from them,
and a position left with one color is colored at once. First occurrences
of colors are forced into increasing order, which cuts a k! symmetry
factor. Propagation prunes only subtrees without a bad coloring, so the
search reports the lex-least bad coloring in that canonical order. A cap
on the branching assignments (search nodes) bounds the work; a search
that runs out is "inconclusive".
"""

import math
from itertools import combinations, count, permutations

from ._record import Record
from .errors import CapExceeded, _SearchCapReached
from .mset import MSet, _embeddings_along, _getter, embedding_maps

DEFAULT_SEARCH_CAP = 10 ** 6


def _depth_first(node, *root):
    """Walk node(*root)'s tree depth first: True once a node yields None,
    else False. node(*args) is a generator that yields the args of each
    child in turn and undoes its own changes before the next one."""
    stack = [node(*root)]
    while stack:
        child = next(stack[-1], False)
        if child is None:
            return True
        if child is False:
            stack.pop()
        else:
            stack.append(node(*child))
    return False


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

    The table is searched as `_search_bad_coloring` is: each
    `_depth_first` node takes the first unknown cell of the non-identity
    rows, in index order, tries its values in ascending order and undoes
    its trail between them. After each assignment the relation
    table[m1][table[m2][a]] == table[m2*m1][a] is propagated. Its three
    cells are the inner cell (m2, a), the outer cell (m1, y) for
    y = table[m2][a], and the composite cell (m2*m1, a). A cell set to v
    plays each role in turn:
    - inner, (m2, a) = (m, x): for each m1, a known outer cell (m1, v)
      forces the composite cell (m*m1, x), and a known composite cell
      forces the outer one;
    - outer, (m1, y) = (m, x): for each m2 and each a in the pre-image
      list of x under row m2, it forces the composite cell (m2*m, a);
    - composite, (m2*m1, a) = (m, x): for each such factor pair with the
      inner cell (m2, x) known as y, it forces the outer cell (m1, y).
    Instances with m1 or m2 the identity hold trivially and are skipped;
    a composite cell may lie in the fixed identity row. A forced value
    that clashes with a known one fails the branch, and a forced cell is
    propagated in turn. Once propagation stops, every instance whose
    inner cell is known has its outer and composite cells both unknown
    or both known and equal, so a full table passes every instance, and
    the table needs no check of its own. Propagation removes only
    partial tables without a valid completion, and a forced cell has
    one value in every completion below it, so each branch value leads
    exactly to the valid tables with that prefix, and the tables come
    out in lex order.

    The class cut is the lex-leader rule. Relabelling the carrier by p
    sends table[m][x] = y to table[m][p[x]] = p[y]. A branch point holds
    a triple (p, image cells, k) for each non-identity p whose image ties
    with the table on its first k cells. After a value propagates, each
    alive p walks on from k while both the cell and its image cell are
    known: an image that is smaller there rejects the value (no
    completion is lex-least) and one that is larger drops p for the
    whole subtree. A known cell keeps its value in every completion
    below the branch point, even when it lies past the branch cell, so
    the cut stays sound when propagation fills later cells first. At a
    leaf every cell is known, so each alive p walks to the end: the
    relabellings alive there are the table's non-identity automorphisms.
    """
    size, e = monoid.size, monoid.identity
    mul = monoid.table                    # mul[m2][m1] = m2*m1
    rows = [m for m in range(size) if m != e]
    # table[m][x] is val[m*n + x]; the identity row is known from the start
    val = [None] * (size * n)
    val[e * n:(e + 1) * n] = range(n)
    inner = [[(m1 * n, mul[m][m1] * n) for m1 in rows] for m in range(size)]
    outer = [[(m2, mul[m2][m] * n) for m2 in rows] for m in range(size)]
    factors = [[] for _ in range(size)]   # (m2*n, m1*n) with m2*m1 = m
    for m2 in rows:
        for m1 in rows:
            factors[mul[m2][m1]].append((m2 * n, m1 * n))
    # pre[m][y]: the a with table[m][a] = y, in the order they were set
    pre = [[[] for _ in range(n)] for _ in range(size)]
    cells = [m * n + x for m in rows for x in range(n)]
    end = len(cells)
    trail = []
    # (p, image, k): p relabels the value of cell image[k] into cells[k]
    alive = []
    if one_per_class:
        for p in list(permutations(range(n)))[1:]:   # not the identity
            inverse = sorted(range(n), key=p.__getitem__)
            alive.append((p, [i - i % n + inverse[i % n] for i in cells], 0))

    def assign(i, v):
        """Set cell i to v and propagate; False on a conflict."""
        queue = []

        def force(j, w):
            val[j] = w
            pre[j // n][w].append(j % n)
            trail.append(j)
            queue.append(j)

        force(i, v)
        while queue:
            i = queue.pop()
            m, x = divmod(i, n)
            v = val[i]
            for ob, cb in inner[m]:             # (m2, a) = (m, x)
                o, c = val[ob + v], val[cb + x]
                if o is None:
                    if c is not None:
                        force(ob + v, c)
                elif c is None:
                    force(cb + x, o)
                elif c != o:
                    return False
            for m2, cb in outer[m]:             # (m1, y) = (m, x)
                for a in pre[m2][x]:
                    c = val[cb + a]
                    if c is None:
                        force(cb + a, v)
                    elif c != v:
                        return False
            for ib, ob in factors[m]:           # (m2*m1, a) = (m, x)
                y = val[ib + x]
                if y is not None:
                    o = val[ob + y]
                    if o is None:
                        force(ob + y, v)
                    elif o != v:
                        return False
        return True

    def undo(mark):
        while len(trail) > mark:
            i = trail.pop()
            pre[i // n][val[i]].pop()
            val[i] = None

    def lex_leader(alive):
        """The relabellings still alive, or None if one is smaller."""
        survivors = []
        for p, image, k in alive:
            while k < end:
                y, t = val[image[k]], val[cells[k]]
                if y is None or t is None:
                    survivors.append((p, image, k))
                    break
                if p[y] != t:
                    if p[y] < t:
                        return None
                    break           # p can never be smaller: drop it
                k += 1
            else:
                survivors.append((p, image, k))
        return survivors

    out = []

    def branch(d, alive):
        """Branch on the first unknown cell from d, or list a full table."""
        while d < end and val[cells[d]] is not None:
            d += 1
        if d == end:
            out.append(tuple(tuple(val[m * n:(m + 1) * n])
                             for m in range(size)))
            return
        mark = len(trail)
        for v in range(n):
            if assign(cells[d], v):
                survivors = lex_leader(alive)
                if survivors is not None:
                    yield d + 1, survivors
            undo(mark)

    _depth_first(branch, 0, alive)
    return out


class ForestContext:
    """Hom-sets of (ordered) rooted forests: injective parent-preserving
    maps, `_embeddings_along` the rows identity, parent, ...,
    parent^(h+1) of both forests, h the source's height. The source's
    rows stop changing at parent^h, which sends each vertex to its root;
    the pair parent^h, parent^(h+1) makes each root's image a root, so
    later rows only repeat what that pair forces."""

    def hom(self, a, c):
        rows = [(tuple(range(a.size)), tuple(range(c.size)))]
        while True:
            r, s = rows[-1]
            rows.append((tuple(map(a.parent.__getitem__, r)),
                         tuple(map(c.parent.__getitem__, s))))
            if rows[-1][0] == r:
                return _embeddings_along(rows, a, c)


class Coloring(Record):
    __slots__ = ("colors", "k")

    def __init__(self, colors, k):
        self.colors = colors
        self.k = k
        if any(not (0 <= c < k) for c in colors):
            raise ValueError("color out of range")


class ArrowVerdict(Record):
    __slots__ = ("status",          # "holds" | "refuted" | "inconclusive"
                 "bad_coloring",    # a Coloring, or None
                 "reason", "witness_stats")

    def __init__(self, status, bad_coloring=None, reason="",
                 witness_stats=None):
        self.status = status
        self.bad_coloring = bad_coloring
        self.reason = reason
        self.witness_stats = {} if witness_stats is None else witness_stats

    def to_json(self):
        d = {"status": self.status, "reason": self.reason,
             "witness_stats": self.witness_stats}
        if self.bad_coloring is not None:
            d["bad_coloring"] = list(self.bad_coloring.colors)
        return d


def composite_images(a, b, c, ctx):
    """For each w in hom(B,C): the hom(A,C) indices of w . f, f in hom(A,B).

    w . f is _getter(f)(w). The composites are built column by column:
    one column per f holds the indices of w . f for every w, mapped at C
    level, and w's image is its row of the columns, in hom(A,B) order: w
    is injective, so distinct f give distinct w . f, and the search and
    `coloring_is_bad` read an image only as a set.
    """
    hom_ac = ctx.hom(a, c)
    index = dict(zip(hom_ac, range(len(hom_ac)))).__getitem__
    hom_ab = ctx.hom(a, b)
    hom_bc = ctx.hom(b, c)
    if not hom_ab:   # zip() over no columns would give no rows at all
        return hom_ac, hom_ab, hom_bc, [()] * len(hom_bc)
    columns = [map(index, map(_getter(f), hom_bc)) for f in hom_ab]
    return hom_ac, hom_ab, hom_bc, list(zip(*columns))


def coloring_is_bad(colors, images, t):
    """Naive oracle: every w sees more than t colors on its composites."""
    return all(len({colors[i] for i in image}) > t for image in images)


def _search_bad_coloring(n, k, t, images, cap=None):
    """Least bad coloring in canonical color order, or None.

    Positions 0..n-1 are colored in index order and colors are tried in
    ascending order; a position may take a color only up to one past the
    largest color used before it, so first occurrences of colors come in
    increasing order.

    Each w keeps a count of its free positions and a bitmask of the
    colors it sees, each position a bitmask of the colors banned from
    it; a mask holds only colors in use. Each branch point is a
    `_depth_first` node, and a trail of the assigned positions and of
    (masks, index, old mask) for each changed mask is undone back to the
    node's mark before its next color. Each assignment propagates the
    colors it forces (see `assign`): a position with every color banned
    fails the branch, and one left with a single color is assigned at
    once; the branching then passes over it. Propagation cuts only
    subtrees without a bad coloring, so the first coloring found is the
    lex-least canonical bad coloring. None is returned straight away
    when some w has fewer than t + 1 composites; each image lists
    distinct positions, in any order (propagation reaches one closure).

    A node is one call of `assign`, a color tried at a branch point;
    with a `cap`, _SearchCapReached is raised in place of node cap + 1.
    """
    need = t + 1
    if not images or need > k or min(map(len, images)) < need:
        return None
    pos_to_ws = [[] for _ in range(n)]
    for wi, image in enumerate(images):
        for p in image:
            pos_to_ws[p].append(wi)
    free = list(map(len, images))
    seen = [0] * len(images)             # bitmask of the colors w sees
    colors = [-1] * n
    banned = [0] * n                     # bitmask of the colors p may not take
    assigned, trail = [], []   # positions; (seen or banned, index, old)
    nodes = count()                      # next() is the node's index

    def assign(p, c):
        """Give p an allowed color c and propagate; False on a conflict.

        Once w needs as many new colors as it has free positions, those
        positions may take only colors w has not seen, so w never needs
        more new colors than it has free positions; a conflict shows as
        a position with every color banned. The pass over the w through
        p goes on after a conflict, so that `free` and `seen` undo
        exactly. A position left with one color is queued exactly once
        and keeps that color until it is assigned or a conflict is found.
        """
        if next(nodes) == cap:
            raise _SearchCapReached
        queue, ok = [(p, c)], True
        while ok and queue:
            p, c = queue.pop()
            colors[p] = c
            assigned.append(p)
            bit = 1 << c
            for wi in pos_to_ws[p]:
                left = free[wi] = free[wi] - 1
                s = seen[wi]
                if not s & bit:
                    trail.append((seen, wi, s))
                    s = seen[wi] = s | bit
                if not ok or not left or need - s.bit_count() != left:
                    continue
                for q in images[wi]:
                    if colors[q] >= 0:
                        continue
                    old = banned[q]
                    new = old | s
                    if new == old:
                        continue
                    allowed = k - new.bit_count()
                    if not allowed:
                        ok = False
                        break
                    trail.append((banned, q, old))
                    banned[q] = new
                    if allowed == 1:   # the lowest color not banned
                        queue.append((q, (~new & (new + 1)).bit_length() - 1))
        return ok

    def undo(assigned_mark, trail_mark):
        while len(assigned) > assigned_mark:
            p = assigned.pop()
            colors[p] = -1
            for wi in pos_to_ws[p]:
                free[wi] += 1
        while len(trail) > trail_mark:
            masks, i, old = trail.pop()
            masks[i] = old

    def branch(p, used):   # `used`: the colors in use before p
        # No position is left with one color before k - 1 colors are used,
        # so forced colors never break the canonical order.
        while p < n and colors[p] >= 0:
            used = max(used, colors[p] + 1)
            p += 1
        if p == n:
            yield None   # a bad coloring: the walk ends here
            return
        marks = len(assigned), len(trail)
        for c in range(min(used + 1, k)):
            if not banned[p] >> c & 1 and assign(p, c):
                yield p + 1, max(used, c + 1)
            undo(*marks)

    return tuple(colors) if _depth_first(branch, 0, 0) else None


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
    """The first of `candidates` that contains B and has C -> (B)^A_{k,t},
    or None; each arrow search has at most `cap` nodes.

    A C with an empty hom(B, C) is passed over: its arrow could only
    hold vacuously. An arrow met before the first that holds and ending
    inconclusive leaves the scan undecided, so it raises CapExceeded.
    """
    for c in candidates:
        if not ctx.hom(b, c):
            continue
        status = holds_arrow(a, b, c, k, t, ctx, cap=cap).status
        if status == "holds":
            return c
        if status == "inconclusive":
            raise CapExceeded(f"the arrow at t={t}, k={k}, |B|={b.size}, "
                              f"|C|={c.size} exceeds the search cap {cap}")
    return None


class DegreeProbe(Record):
    __slots__ = ("lower",
                 "upper",       # the context's theory bound
                 "evidence")

    def __init__(self, lower, upper, evidence=None):
        self.lower = lower
        self.upper = upper
        self.evidence = {} if evidence is None else evidence


class ProbeBudget(Record):
    __slots__ = ("max_b_size", "max_c_size", "max_k")

    def __init__(self, max_b_size=3, max_c_size=4, max_k=3):
        self.max_b_size = max_b_size
        self.max_c_size = max_c_size
        self.max_k = max_k


SMALL_BUDGET = ProbeBudget()
TINY_BUDGET = ProbeBudget(2, 3, 2)


class _HomMemo:
    """The hom-sets of a context, each listed once per pair of tables.

    Every object of a probe lives over A's monoid, so hom(a, c) depends
    only on the (positional) action tables and orders of a and c, and
    entries are keyed by these. Objects with equal tables share an
    entry, and the memo holds no object.
    """

    def __init__(self, ctx):
        self._hom = ctx.hom
        self._homs = {}

    def hom(self, a, c):
        key = a.action, a.order, c.action, c.order
        homs = self._homs.get(key)
        if homs is None:
            homs = self._homs[key] = self._hom(a, c)
        return homs


def probe_small_degree(a, ctx, budget=SMALL_BUDGET, cap=DEFAULT_SEARCH_CAP):
    """Bracket the small Ramsey degree of `a` inside a finite budget.

    lower: t is bumped past any value defeated within the budget, where
    "defeated" means no candidate C witnesses the arrow for some (B, k)
    (see `_first_defeat`); an arrow that reaches `cap` first raises its
    CapExceeded, prefixed "degree probe: ". upper: the context's theory
    bound. The candidates are listed once, and only if upper and max_k
    leave lower room to rise; B ranges over those of size <= max_b_size.
    `ctx` provides `theory_degree_upper(a)` and, if that leaves room,
    `objects(a, max_size)`, both read off `a`: MSetContext provides both,
    ChainContext's bound is 1, and ForestContext provides neither. Each
    hom-set is listed once per probe and pair of tables, through a memo
    dropped on return.
    """
    upper, upper_src = ctx.theory_degree_upper(a)
    evidence = {"upper_source": upper_src, "defeats": []}
    top = min(upper, budget.max_k)
    if top <= 1:
        return DegreeProbe(1, upper, evidence)
    candidates = ctx.objects(a, budget.max_c_size)
    ctx = _HomMemo(ctx)
    lower = 1
    while lower < top:
        try:
            defeat = _first_defeat(a, lower, candidates, ctx, budget, cap)
        except CapExceeded as exc:
            raise CapExceeded(f"degree probe: {exc}") from None
        if defeat is None:
            break
        evidence["defeats"].append(defeat)
        lower += 1
    return DegreeProbe(lower, upper, evidence)


def _first_defeat(a, t, candidates, ctx, budget, cap):
    """The first (B, k) with no witness among the candidates C that
    contain B, or None; hom(A, B) is listed once the loop reaches B.

    Each C' embeds in C' plus max_c_size - |C'| fixed points, a largest
    candidate C that still contains B, and a bad coloring chi of
    hom(A, C) restricts along an embedding e: C' -> C to the bad
    coloring f -> chi(e . f) of hom(A, C'). So every C' is refuted once
    every largest C is, and `find_witness` scans only the largest. If
    that scan raises CapExceeded, the scan over every C' decides
    instead, and raises in turn when an arrow reaches the cap before
    one holds.
    """
    for b in candidates:
        if b.size > budget.max_b_size or len(ctx.hom(a, b)) <= t:
            continue  # w-images can never exceed t colors
        cs = [c for c in candidates if ctx.hom(b, c)]   # B is one of them
        largest = [c for c in cs if c.size == budget.max_c_size]
        for k in range(t + 1, budget.max_k + 1):
            try:
                witness = find_witness(a, b, k, t, ctx, largest, cap)
            except CapExceeded:
                witness = find_witness(a, b, k, t, ctx, cs, cap)
            if witness is None:
                return dict(t=t, k=k, B_size=b.size, candidates=len(cs))
    return None
