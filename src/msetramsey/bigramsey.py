"""The truncated big-Ramsey experiment for ordered M-sets in a lex lift.

Every embedding f of an ordered M-set A into hat_E(omega_N) is reduced
to a chain embedding f* of a subchain of A: equal epsilon-values of the
component functions are merged (the equivalence rho) and the surviving
representatives map to those values. Since hat_E is cofree, f is fixed
by g = epsilon . f, so these embeddings are listed directly: the tie
patterns of g that A realizes, each times the chain embeddings of its
blocks. Each embedding is held as an integer key, its map table read as
one base-N^|M| number, so one sort of ints gives the canonical order;
each pattern's colors are read by key, linear in the image, on any
point set. Composing with hat_E of a chain embedding u found by
iterated chain-Ramsey searches, one per realized pattern, then bounds
the number of colors any coloring of hom(A, hat_E(omega_N)) takes on the
image hat_E(u) . R by the number of patterns A realizes, one color per
realized subchain containing the least element: at most 2^(|A|-1).

The infinitary pigeonhole steps are replaced by finite searches for a
maximum subset of the current truncation all of whose small subsets are
monochromatic; each run certifies its own instance and fails loudly
(TruncationTooSmall) when the truncation cannot sustain the tower.
"""

import functools
import math
import random
from itertools import combinations

from ._record import Record, _set
from .chains import Chain, ChainEmbedding, omega
from .errors import (CapExceeded, ColoringError, InputError, NoLeastElement,
                     NotAnEmbedding, SizeOverflow, TruncationTooSmall,
                     _SearchCapReached)
from .expansion import degree_sum_bound
from .mset import enumerate_embeddings
from .transport import hat_E

DEFAULT_R_CAP = 10 ** 5
DEFAULT_NODE_CAP = 10 ** 7   # search nodes per pigeonhole step


def subchains_containing_min(chain):
    """All subchains of a chain that contain its least element.

    Canonical order: by increasing subset bitmask over the remaining
    elements, so the singleton comes first and the full chain last.
    """
    labels = chain.labels
    if not labels:
        raise NoLeastElement("the empty chain has no least element")
    rest = labels[1:]
    out = []
    for mask in range(1 << len(rest)):
        subset = (labels[0],) + tuple(
            x for j, x in enumerate(rest) if mask >> j & 1)
        out.append(Chain(subset))
    return out


class ReductionRecord(Record, frozen=True):
    """The reduction f -> f* of one embedding into a lex lift.

    rho_blocks partitions the ranks 0..s-1 of the source order by equal
    epsilon-values, blocks listed by least member; subchain is the chain
    on the block representatives and ell its index among the subchains
    containing the least element; f_star embeds it into the base chain.
    """

    __slots__ = ("f", "rho_blocks", "ell", "subchain", "f_star")

    def __init__(self, f, rho_blocks, ell, subchain, f_star):
        _set(self, "f", f)
        _set(self, "rho_blocks", rho_blocks)
        _set(self, "ell", ell)
        _set(self, "subchain", subchain)
        _set(self, "f_star", f_star)


def _reduction_key(f_map, order, functions, e):
    """The key (ell, f*.map) of an embedding into a lex lift, from raw tables.

    `order` lists the source carrier in increasing order, `functions`
    reads a lift element as its function on the monoid and `e` is the
    identity. Equal epsilon-values are consecutive, so the rho-block
    representatives are the ranks where the value changes; ell sets bit
    i - 1 for each representative i > 0 (subchains_containing_min's
    index) and the image lists the block values.
    """
    eps = [functions[f_map[a]][e] for a in order]
    if any(eps[i] > eps[i + 1] for i in range(len(eps) - 1)):
        raise NotAnEmbedding(
            f"epsilon-values are not monotone along the order: {eps}")
    if len(set(f_map)) != len(f_map):
        raise NotAnEmbedding("map is not injective")
    ell, image = 0, eps[:1]
    for i in range(1, len(eps)):
        if eps[i] != eps[i - 1]:
            ell |= 1 << (i - 1)
            image.append(eps[i])
    return ell, tuple(image)


def _realizable_patterns(a_star):
    """The tie patterns of the embeddings of A into lex lifts of chains.

    Yields (ell, blk) for a nonempty A: ell marks rank i > 0 as the start
    of a new rho-block by bit i - 1, as in _reduction_key, and blk[a] is
    the block index of carrier element a. The identity leads the
    well-order, so an embedding f has g = epsilon . f nondecreasing
    along A's order, with g = image[blk] for a strictly increasing
    image. Two ranks in one block then compare by their blk-tuples
    (blk[w.a] for w in the well-order), so whether ell is realized
    depends on A alone.
    """
    order, act = a_star.order, a_star.action
    well_order = a_star.monoid.well_order
    for ell in range(1 << a_star.size >> 1):
        blk = [0] * a_star.size
        b = 0
        for i, a in enumerate(order):
            if i and ell >> (i - 1) & 1:
                b += 1
            blk[a] = b
        if all(blk[x] != blk[y] or [blk[act[w][x]] for w in well_order]
               < [blk[act[w][y]] for w in well_order]
               for x, y in zip(order, order[1:])):
            yield ell, blk


def lift_hom_size(a_star, big_n, r_cap=DEFAULT_R_CAP):
    """|hom(A, hat_E(omega_N))| in closed form, checked against r_cap.

    The sum over realizable patterns ell of C(N, blocks(ell)), and 1
    (the empty map) for an empty A; SizeOverflow above r_cap.
    """
    size = 1
    if a_star.size:
        size = sum(math.comb(big_n, ell.bit_count() + 1)
                   for ell, _ in _realizable_patterns(a_star))
    if size > r_cap:
        raise SizeOverflow("hom(A, hat_E(omega_N))", size, r_cap)
    return size


def _pattern_keys(a_star, n, msize):
    """The embeddings of A into the lex lift of omega_n, as integer keys.

    Returns (ell, W, keys) for each realizable pattern ell, the keys
    listed in combinations(range(n), blocks(ell)) order of the images.
    The map of an image is f(a) = sum_j image[blk[j.a]] * n^(msize-1-j),
    linear in the image, and its key reads the map table as one base-q
    integer, q = n^msize, with f(a_0) the leading digit; so keys compare
    as the map tables do lexicographically, and key = sum_b W_b * image[b].
    """
    q = n ** msize
    s = a_star.size
    act = a_star.action
    out = []
    for ell, blk in _realizable_patterns(a_star):
        weights = [0] * (ell.bit_count() + 1)   # W_b
        for a in range(s):
            for j in range(msize):
                weights[blk[act[j][a]]] += (n ** (msize - 1 - j)
                                            * q ** (s - 1 - a))
        out.append((ell, weights, _combination_sums(weights, range(n))))
    return out


def _combination_sums(weights, points):
    """sum_b weights[b] * c[b] for c in combinations(points, len(weights)).

    Built one block at a time from the last, for n increasing `points`:
    the combinations of size r above points[i] are the last C(n-1-i, r).
    """
    n = len(points)
    sums = [weights[-1] * y for y in points]
    for r, w in enumerate(reversed(weights[:-1]), 1):
        longer = []
        for i in range(n - r):
            head = w * points[i]
            longer += [head + t for t in sums[len(sums)
                                              - math.comb(n - 1 - i, r):]]
        sums = longer
    return sums


def _base_number(digits, base):
    """`digits`, leading digit first, read as one base-`base` integer."""
    value = 0
    for d in digits:
        value = value * base + d
    return value


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
    ell, image = _reduction_key(f.map, a_star.order, lift.functions,
                                lift.lifted.monoid.identity)
    reps = [i for i in range(s) if i == 0 or ell >> (i - 1) & 1]
    blocks = tuple(tuple(range(r, stop))
                   for r, stop in zip(reps, reps[1:] + [s]))
    labels = a_star.carrier_chain().labels
    subchain = Chain(tuple(labels[i] for i in reps))
    f_star = ChainEmbedding(subchain, lift.base, image)
    return ReductionRecord(f, blocks, ell, subchain, f_star)


def _max_mono_subset(points, arity, colors, cap=None):
    """Largest T within `points` whose arity-subsets share one color.

    `colors` lists the colors of the arity-subsets of the sorted points,
    in combinations order. The rule that picks among the candidates: the
    largest size first, then the least color, then the lex-least sorted
    set. Vacuous when there are fewer than `arity` points.

    For arity 2 this is a maximum clique in each color's graph, found in
    two phases. Phase 1 takes the colors in increasing order and finds
    each one's clique number by MCQ (Tomita & Seki 2003) on bitsets
    (BBMC, San Segundo et al. 2011): greedy color classes of the
    candidates bound the clique, branching runs from the highest class
    down, and the search is seeded with the best size so far, so a color
    counts only when it beats every earlier one. Phase 2 then takes the
    least color that reaches the maximum and returns the first set of
    exactly that size in include-first, least-candidate order, that is,
    the lex-least: a point joins the set when MCQ finds it extends the
    set to that size.

    For arity >= 3 it is a branch and bound over candidate bitsets in
    loop form (Carraghan & Pardalos 1990) with only the size bound. Bit
    y of masks[P] is set when P + (y,) has color c, for each
    (arity-1)-subset P of point positions and y > P[-1]; those colors
    are one contiguous run of `colors`, so masks is a flat list of the
    runs in combinations order of P. A mask is addressed by P's index
    in combinations order, a sum of one term per position and element:
    the index of S + (x,) is that of S's terms plus one of x.
    The search takes the candidates in increasing order, each as the
    next point of the set, and descends only into a set that can still
    beat the incumbent, so the first set of the largest size it meets is
    the lex-least; it tries the colors in increasing order and only
    strict size improvements replace the incumbent.

    A node is one point tried as the next point of a set; with a `cap`,
    _SearchCapReached is raised in place of node cap + 1.
    """
    points = sorted(points)
    if len(points) < arity:
        return points
    if arity == 1:
        classes = {}
        for x, c in zip(points, colors):
            classes.setdefault(c, []).append(x)
        best_color = max(classes, key=lambda c: (len(classes[c]), -c))
        return classes[best_color]
    if arity == 2:
        best = _max_mono_pairs(len(points), colors, cap)
    else:
        best = _max_mono_hyperedges(len(points), arity, colors, cap)
    return [points[i] for i in best]


def _color_flags(colors, palette):
    """Per color of the sorted `palette`: ASCII 0/1 flags of the entries
    of `colors` that equal it, as bytes int(..., 2) reads."""
    if palette[-1] < 256:
        raw = bytes(colors)
        for c in palette:
            table = bytearray(b"0" * 256)
            table[c] = ord("1")
            yield raw.translate(table)
    else:
        for c in palette:
            yield bytes([49 if x == c else 48 for x in colors])


def _pair_adjacency(n, flags):
    """Neighbor bitmasks of the graph whose edges are the flagged pairs.

    Row x of an n-by-n square of flags holds the pairs (x, y), y > x;
    column x of it holds the pairs (y, x), y < x.
    """
    rows, start = [], 0
    for x in range(n):
        stop = start + n - 1 - x
        rows.append(b"0" * (x + 1) + flags[start:stop])
        start = stop
    square = b"".join(rows)
    return [int(row[::-1], 2) | int(square[x::n][::-1], 2)
            for x, row in enumerate(rows)]


def _greedy_clique(adj, cand):
    """The clique that takes the least candidate until none is left."""
    out = []
    while cand:
        x = (cand & -cand).bit_length() - 1
        out.append(x)
        cand &= adj[x]
    return out


def _color_classes(cand, anti, least):
    """Greedy color classes of `cand`, the lowest vertex first (BBMC).

    `anti[v]` holds the vertices other than v that are not adjacent to
    it. Returns the vertices of the classes numbered above `least` and
    their class numbers, in class order.
    """
    vertices, numbers = [], []
    k = 0
    while cand:
        k += 1
        q = cand
        while q:
            low = q & -q
            cand ^= low
            v = low.bit_length() - 1
            q &= anti[v]
            if k > least:
                vertices.append(v)
                numbers.append(k)
    return vertices, numbers


def _clique_number(adj, anti, cand, best, nodes, cap, stop=None):
    """max(best, the clique number within `cand`) by MCQ, on a stack.

    A frame holds its candidates, its vertices numbered above what could
    still beat the incumbent, their class numbers and the size of its
    clique; it branches on its last vertex and stops once that vertex's
    class number cannot lift the clique past `best`. The search ends as
    soon as `best` reaches `stop`. Returns (value, nodes).
    """
    stack = [[cand, *_color_classes(cand, anti, best), 0]]
    while stack:
        frame = stack[-1]
        cand, vertices, numbers, size = frame
        if not vertices or size + numbers[-1] <= best:
            stack.pop()
            continue
        v = vertices.pop()
        numbers.pop()
        frame[0] = cand ^ (1 << v)
        if nodes == cap:
            raise _SearchCapReached
        nodes += 1
        size += 1
        child = cand & adj[v]
        if child:
            vertices, numbers = _color_classes(child, anti, best - size)
            if vertices:
                stack.append([child, vertices, numbers, size])
        elif size > best:
            best = size
            if best == stop:
                break
    return best, nodes


def _pair_graphs(n, colors):
    """Per color, in increasing order: the neighbor and non-neighbor
    bitmasks of its graph. With exactly two colors the second graph is
    the complement of the first, so its masks are the first's swapped."""
    full = (1 << n) - 1
    palette = sorted(set(colors))
    for flags in _color_flags(colors, palette):
        adj = _pair_adjacency(n, flags)
        anti = [full ^ row ^ (1 << v) for v, row in enumerate(adj)]
        yield adj, anti
        if len(palette) == 2:
            yield anti, adj
            return


def _max_mono_pairs(n, colors, cap):
    """The two-phase search of _max_mono_subset for arity 2."""
    full = (1 << n) - 1
    best, graph, nodes = 1, None, 0
    for adj, anti in _pair_graphs(n, colors):
        lower = max(best, len(_greedy_clique(adj, full)))
        value, nodes = _clique_number(adj, anti, full, lower, nodes, cap)
        if value > best:
            best, graph = value, (adj, anti)

    adj, anti = graph
    chosen, cand = [], full
    while True:
        need = best - len(chosen)
        greedy = _greedy_clique(adj, cand)
        if len(greedy) == need:
            return chosen + greedy
        low = cand & -cand
        x = low.bit_length() - 1
        cand ^= low
        if nodes == cap:
            raise _SearchCapReached
        nodes += 1
        rest = cand & adj[x]
        if rest.bit_count() >= need - 1:
            value, nodes = _clique_number(adj, anti, rest, need - 2, nodes,
                                          cap, need - 1)
            if value == need - 1:
                chosen.append(x)
                cand = rest


def _run_masks(n, colors, lengths):
    """Per color, in increasing order: the mask of each run of `colors`,
    the runs laid end to end with the given lengths; a run of length L
    holds the points n - L..n - 1. With exactly two colors each run's
    second mask is its full mask XOR the first."""
    palette = sorted(set(colors))
    for flags in _color_flags(colors, palette):
        # read backwards, a run of the points lo..n-1 is a binary numeral
        # whose digit of place y - lo is point y's flag
        flags = flags[::-1]
        masks, end = [], len(flags)
        for length in lengths:
            start = end - length
            masks.append(int(flags[start:end], 2) << (n - length))
            end = start
        yield masks
        if len(palette) == 2:
            yield [m ^ ((1 << n) - (1 << (n - length)))
                   for m, length in zip(masks, lengths)]
            return


def _max_mono_hyperedges(n, arity, colors, cap):
    """The loop-form search of _max_mono_subset for arity >= 3."""
    r = arity - 1
    # masks[i] is the run of the i-th (arity-1)-subset P of range(n - 1)
    # in combinations order: the colors of P + (y,), y > P[-1]
    lengths = [n - 1 - p[-1] for p in combinations(range(n - 1), r)]
    # P's index C(n - 1, r) - 1 - sum_i C(n - 2 - p_i, r - i) is a sum of
    # one weight per (position, element) pair; weights[0] holds the
    # constant, and off = weights[-1] is the last element's
    weights = [[-math.comb(n - 2 - y, r - i) for y in range(n - 1)]
               for i in range(r)]
    weights[0] = [w + math.comb(n - 1, r) - 1 for w in weights[0]]
    off, last = weights[-1], weights[-2]
    best, nodes = [], 0
    for masks in _run_masks(n, colors, lengths):
        size = len(best)
        # top: the partial indices of the (r-1)-subsets of chosen, each
        # completed to a mask index by adding off[x]; lower[j]: those of
        # its j-subsets, j < r - 1, built only when the frame first pushes
        # a child, whose top adds the subsets that hold its point. The
        # stack holds each ancestor's remaining candidates, top and lower.
        chosen, stack, depth = [], [], 0
        cand, top, lower = (1 << n) - 1, [], [[0]] + [[]] * (r - 2)
        while True:
            while depth + cand.bit_count() > size:
                low = cand & -cand
                x = low.bit_length() - 1
                cand ^= low
                if nodes == cap:
                    raise _SearchCapReached
                nodes += 1
                # x = n - 1 has no run, and leaves no candidate
                child = cand
                if child:
                    o = off[x]
                    for v in top:
                        child &= masks[v + o]
                        if not child:
                            break
                if depth + 1 + child.bit_count() <= size:
                    continue
                if not child:
                    best, size = chosen + [x], depth + 1
                    continue
                if lower is None:
                    y, above = chosen[-1], stack[-1][2]
                    lower = [[0]]
                    for j in range(1, r - 1):
                        w = weights[j - 1][y]
                        lower.append(above[j] + [v + w for v in above[j - 1]])
                stack.append((cand, top, lower))
                w = last[x]
                top = top + [v + w for v in lower[-1]]
                lower = None
                chosen.append(x)
                depth += 1
                cand = child
            if not stack:
                break
            cand, top, lower = stack.pop()
            chosen.pop()
            depth -= 1
    return best


class ReductionResult(Record):
    __slots__ = ("u", "colors_used", "bound",
                 "tower",        # N, then the truncation after each step
                 "step_colors",  # one color per realized pattern, by ell
                 "r_size")

    def __init__(self, u, colors_used, bound, tower, step_colors, r_size):
        self.u = u
        self.colors_used = colors_used
        self.bound = bound
        self.tower = tower
        self.step_colors = step_colors
        self.r_size = r_size

    def to_json(self):
        return {"u": list(self.u.map), "colors_used": self.colors_used,
                "bound": self.bound, "tower": list(self.tower),
                "step_colors": list(self.step_colors),
                "R_size": self.r_size}


def big_ramsey_reduce(a_star, chi, k, big_n, r_cap=DEFAULT_R_CAP,
                      cap=DEFAULT_NODE_CAP):
    """Find u with at most 2^(s-1) colors on hat_E(u) . hom(A, hat_E(omega_N)).

    `chi` is a sequence of colors of R = hom(A, hat_E(omega_N)) in
    canonical (lex map-table) order. R is listed by the cofree property,
    one increasing image per block count of each realizable tie pattern,
    each map as an integer key whose order is the map tables' lex order
    (_pattern_keys); r_cap is checked against the closed-form size
    first, and no lift of omega_N is built. One sort of the keys puts
    chi in place. One pigeonhole step runs per realized pattern ell, in
    decreasing ell (TruncationTooSmall names step ell + 1), reading its
    colors by key (sum_b W_b * image[b]) over the current points, so
    at most one color per realized pattern survives. Each step's search
    for a monochromatic subset may take `cap` nodes; one that would need
    more raises CapExceeded naming the step, its arity and the nodes.
    The returned colors_used is an independent recount by the generic
    engine: the copies of A in hat_E(omega_T) of the final truncation
    are enumerated by enumerate_embeddings and pushed through hat_E(u)
    coordinatewise, (u.h)(m) = u(h(m)); each pushed copy must be a key
    of R, and its chi-color is collected directly.
    """
    m = a_star.monoid
    s = a_star.size
    lift_hom_size(a_star, big_n, r_cap)
    if not s:
        raise NoLeastElement("the empty chain has no least element")
    patterns = _pattern_keys(a_star, big_n, m.size)
    keys = []
    for _, _, pk in patterns:
        keys += pk
    keys.sort()
    colors = tuple(chi)
    if len(colors) != len(keys):
        raise ColoringError(
            f"coloring has {len(colors)} entries for {len(keys)} embeddings")
    if colors and not (0 <= min(colors) and max(colors) < k):
        i, c = next((i, c) for i, c in enumerate(colors) if not 0 <= c < k)
        raise ColoringError(
            f"coloring value {c} at index {i} is out of range for k = {k}")
    color_by_key = dict(zip(keys, colors))
    if len(color_by_key) != len(keys):
        raise InputError("reduction is not injective")

    # iterated finite pigeonhole, one step per realized pattern, from the
    # full-index subchain (always realized) down
    outer = range(big_n)   # composite w_n . ... . w_{i+1} into omega_N
    tower = [big_n]
    step_colors = []
    for ell, weights, pk in reversed(patterns):
        arity = len(weights)   # the blocks of pattern ell
        if len(outer) < big_n:
            pk = _combination_sums(weights, outer)
        colors_i = list(map(color_by_key.__getitem__, pk))
        try:
            mono = _max_mono_subset(range(len(outer)), arity, colors_i, cap)
        except _SearchCapReached:
            raise CapExceeded(
                f"pigeonhole step {ell + 1} (arity {arity}, {len(outer)} "
                f"points) used {cap} search nodes, its cap") from None
        if len(mono) < s:
            raise TruncationTooSmall(
                ell + 1, f"monochromatic subset has size {len(mono)} < {s}")
        step_colors.append(color_by_key[sum(
            w * outer[x] for w, x in zip(weights, mono))])
        outer = [outer[x] for x in mono]
        tower.append(len(mono))

    u = ChainEmbedding(omega(len(outer)), omega(big_n), tuple(outer))

    # independent recount, bypassing the patterns entirely
    lift_small = hat_E(omega(len(outer)), m)
    r_small = enumerate_embeddings(a_star, lift_small.lifted)
    if not r_small:
        raise TruncationTooSmall(
            0, "the final truncation contains no copy of A")
    pushed = [_base_number((outer[v] for v in h), big_n)
              for h in lift_small.functions]
    q = big_n ** m.size
    seen = set()
    for f in r_small:
        table = tuple(pushed[x] for x in f.map)
        key = _base_number(table, q)
        if key not in color_by_key:
            raise InputError(f"recount: the pushed copy {table} is not in "
                             "hom(A, hat_E(omega_N))")
        seen.add(color_by_key[key])
    return ReductionResult(u, len(seen), 1 << (s - 1), tuple(tower),
                           tuple(reversed(step_colors)), len(keys))


def random_coloring(size, k, seed):
    """`size` colors below k: Random(seed).randrange(k), `size` times.

    randrange(k) takes the top k.bit_length() bits of one 32-bit word
    and draws another word while they reach k (CPython's _randbelow).
    For k < 256 those bits lie in the top byte of the word, which
    randbytes puts fourth in each group of four, so blocks of words are
    drawn at once and bytes.translate shifts and rejects their top bytes.
    """
    rng = random.Random(seed)
    if not 0 < k < 256:
        return tuple(rng.randrange(k) for _ in range(size))
    bits = k.bit_length()
    table, rejected = _top_bits(bits), bytes(range(k << 8 - bits, 256))
    out = b""
    while len(out) < size:
        words = ((size - len(out)) << bits) // k + 16
        out += rng.randbytes(4 * words)[3::4].translate(table, rejected)
    return tuple(out[:size])


@functools.cache
def _top_bits(bits):
    """The translation of a byte to its top `bits` bits."""
    return bytes(t >> 8 - bits for t in range(256))


class AggregateBound(Record):
    __slots__ = ("aggregate",
                 "formula",         # n! * 2^(n-1)
                 "within_formula")

    def __init__(self, aggregate, formula, within_formula):
        self.aggregate = aggregate
        self.formula = formula
        self.within_formula = within_formula

    def to_json(self):
        return {"aggregate": self.aggregate, "formula": self.formula,
                "within_formula": self.within_formula}


def unordered_degree_bound(a, per_ordering):
    """Sum certified per-ordering color counts against n! * 2^(n-1).

    `per_ordering` maps A*.order -> the certified bound for that
    ordering (from big_ramsey_reduce runs); its keys must be exactly the
    fiber of A (degree_sum_bound raises IncompleteFiber otherwise).
    """
    if not a.size:
        raise NoLeastElement("the empty M-set has no least element")
    total = degree_sum_bound(a, per_ordering)
    formula = math.factorial(a.size) * 2 ** (a.size - 1)
    return AggregateBound(total, formula, total <= formula)
