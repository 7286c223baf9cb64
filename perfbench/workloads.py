"""Seeded job lists for the benchmark workloads, with their answer checks.

A job drives ``msetramsey.cli.main`` with an argument list, or, for the
forest hom-sets the command line cannot reach, makes one public-API
call. Every input is a JSON file written here, before timing, from the
seed. The seed relabels chains, permutes M-set carriers into isomorphic
presentations, draws the ``bigramsey`` trial seeds and orders the jobs;
none of that changes a verdict.

Each job's ``check`` judges a report against answers known without the
program: small Ramsey numbers (Radziszowski, "Small Ramsey Numbers",
EJC dynamic survey DS1), the pigeonhole principle, brute-force recounts,
and, for M-set questions, verdicts recorded at the commit that
introduced this benchmark (``GOLDEN``).
"""

import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product


class WrongAnswer(Exception):
    """A report whose verdict disagrees with the known answer."""


@dataclass
class Job:
    name: str                 # the same for every seed
    check: object             # check(report, pkg) -> verdict summary
    argv: tuple = None        # CLI arguments; None for an API job
    api: object = None        # api(pkg) -> JSON-able result
    status_path: tuple = ()   # where a decision job's report keeps its status

    def status(self, report):
        """A decision job's verdict status; None for other jobs."""
        if not self.status_path:
            return None
        for key in self.status_path:
            report = report[key]
        return report


def _expect(got, want, what):
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")
    return got


# --- monoids, as multiplication tables with identity 0 ---------------------

TRIVIAL = [[0]]
Z2 = [[0, 1], [1, 0]]


def semilattice(n):
    return [[max(i, j) for j in range(n)] for i in range(n)]


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def left_zero(n):
    size = n + 1
    return [list(range(size))] + [[i] * size for i in range(1, size)]


def monoid_json(table):
    return {"size": len(table), "identity": 0, "table": table}


def lex_lift_z2(n):
    """hat_E(omega_n, Z2): pairs (h(e), h(g)), swapped by g, in lex order."""
    pairs = list(product(range(n), repeat=2))
    index = {h: i for i, h in enumerate(pairs)}
    swap = [index[(y, x)] for x, y in pairs]
    return [list(range(len(pairs))), swap], list(range(len(pairs)))


SWAP_PAIR = ([[0, 1], [1, 0]], [0, 1])
# carrier a1, b1, a2, b2 with g swapping each pair; a1 < a2 < b1 < b2
INTERLEAVED_PAIRS = ([[0, 1, 2, 3], [1, 0, 3, 2]], [0, 2, 1, 3])
# carrier a, b, c with g swapping a and b and fixing c; a < c < b
SWAP_PAIR_AND_FIXED = ([[0, 1, 2], [1, 0, 2]], [0, 2, 1])


class Inputs:
    """Writes one workload's seeded input files into a directory."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng
        self.count = 0

    def write(self, data):
        self.count += 1
        path = os.path.join(self.directory, f"{self.count:03d}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def chain(self, n):
        return self.write(self.rng.sample(range(10 ** 6), n))

    def mset(self, table, action, order=None, new=None):
        """An isomorphic presentation: permuted carrier, fresh labels.

        Old carrier index i becomes ``new[i]``; a random permutation
        unless ``new`` is given.
        """
        n = len(action[0])
        if new is None:
            new = list(range(n))
            self.rng.shuffle(new)
        labels = [f"x{v}" for v in self.rng.sample(range(10 ** 6), n)]
        moved = [[0] * n for _ in action]
        for m, row in enumerate(action):
            for i, x in enumerate(row):
                moved[m][new[i]] = new[x]
        data = {"monoid": monoid_json(table), "carrier": labels,
                "action": moved}
        if order is not None:
            data["order"] = [labels[new[i]] for i in order]
        return self.write(data)


# Verdicts recorded when this benchmark was written, for the jobs below
# that have no closed-form answer. Each is invariant under relabelling.
GOLDEN = {
    "arrow/ordered-msets/N5": "holds",
    "arrow/ordered-msets/N6": "holds",
    "arrow/ordered-msets/N7": "holds",
    "arrow/ordered-msets/N8": "holds",
    "probe/semilattice3/point": [1, 1],
    "probe/semilattice3/fixed-pair": [2, 2],
    "probe/cyclic3/point": [1, 1],
    "probe/cyclic3/fixed-pair": [2, 2],
    "probe/left-zero2/point": [1, 1],
    "probe/left-zero2/fixed-pair": [2, 2],
    "transport/z2-fixed-point/swap-pair+fixed":
        {"certified": "holds", "chain_witness_size": 5, "lift_size": 25},
    "transport/trivial-point/trivial-3-chain":
        {"certified": "holds", "chain_witness_size": 5, "lift_size": 5},
}


# --- arrow-search ------------------------------------------------------------

# (|A|, |B|, k, sizes of C, least |C| for which C -> (B)^A_k holds)
CHAIN_ARROWS = (
    (2, 3, 2, range(5, 11), 6),     # R(3,3) = 6
    (2, 4, 2, range(6, 10), 18),    # R(4,4) = 18
    (3, 4, 2, range(5, 8), 13),     # R(4,4;3) = 13
    (1, 3, 3, range(4, 9), 7),      # pigeonhole: 3 * (3 - 1) + 1
)
ARROW_MSET_SIZES = range(5, 9)
EXHAUSTIVE_CAP = 10 ** 6


def _chain_arrow_check(a, b, n, k, least):
    expected = "holds" if n >= least else "refuted"

    def check(report, pkg):
        verdict = report["verdicts"]
        _expect(verdict["status"], expected, "status")
        if expected == "refuted":
            hom_ac = list(combinations(range(n), a))
            index = {f: i for i, f in enumerate(hom_ac)}
            images = [sorted({index[tuple(w[x] for x in f)]
                              for f in combinations(range(b), a)})
                      for w in combinations(range(n), b)]
            colors = verdict["bad_coloring"]
            if len(colors) != len(hom_ac) or \
                    any(not 0 <= c < k for c in colors) or \
                    not pkg.ramsey.coloring_is_bad(colors, images, 1):
                raise WrongAnswer("the reported colouring is not bad")
        return expected

    return check


def _golden_check(name, extract):
    def check(report, pkg):
        return _expect(extract(report["verdicts"]), GOLDEN[name], "verdict")
    return check


def arrow_search(inputs, pkg):
    jobs = []
    for a, b, k, sizes, least in CHAIN_ARROWS:
        for n in sizes:
            argv = ("arrow-check", "--A", inputs.chain(a),
                    "--B", inputs.chain(b), "--C", inputs.chain(n),
                    "-k", str(k), "-t", "1", "--ctx", "chains",
                    "--cap", str(EXHAUSTIVE_CAP))
            jobs.append(Job(f"arrow/chains/{n}->({b})^{a}_{k}",
                            _chain_arrow_check(a, b, n, k, least), argv,
                            status_path=("verdicts", "status")))
    for n in ARROW_MSET_SIZES:
        name = f"arrow/ordered-msets/N{n}"
        lift_action, lift_order = lex_lift_z2(n)
        argv = ("arrow-check", "--A", inputs.mset(Z2, *SWAP_PAIR),
                "--B", inputs.mset(Z2, *INTERLEAVED_PAIRS),
                "--C", inputs.mset(Z2, lift_action, lift_order),
                "-k", "2", "-t", "1", "--ctx", "ordered-msets",
                "--cap", str(EXHAUSTIVE_CAP))
        jobs.append(Job(name, _golden_check(name, lambda v: v["status"]),
                        argv, status_path=("verdicts", "status")))
    return jobs


# --- bigramsey -------------------------------------------------------------

# (name, monoid table, action, order, N)
BIG_RAMSEY = (
    ("trivial-2-chain", TRIVIAL, [[0, 1]], [0, 1], 40),
    ("trivial-3-chain", TRIVIAL, [[0, 1, 2]], [0, 1, 2], 24),
    ("trivial-4-chain", TRIVIAL, [[0, 1, 2, 3]], [0, 1, 2, 3], 16),
    ("z2-swap-pair", Z2, *SWAP_PAIR, 30),
    ("z2-swap-pair+fixed", Z2, *SWAP_PAIR_AND_FIXED, 12),
    ("semilattice2-pair", semilattice(2), [[0, 1], [1, 1]], [0, 1], 40),
)
# One trial per job and many jobs: trial times spread about 3x within a
# configuration, and the tail is steady across seeds only when over a
# hundred independent trials make it up. How the carrier is listed moves
# a trial's time too (the two listings of the semilattice pair differ
# about 1.7x), so every configuration lists its carrier in each order
# equally often: 24 is a multiple of 2!, 3! and 4!.
BIG_RAMSEY_JOBS_EACH = 24


def _big_ramsey_check(size):
    bound = 2 ** (size - 1)

    def check(report, pkg):
        verdict = report["verdicts"]
        trials = verdict["trials"]
        if not trials or verdict["all_within_bound"] is not True or any(
                t["bound"] != bound or not 1 <= t["colors_used"] <= bound
                for t in trials):
            raise WrongAnswer(f"colours used exceed 2^(s-1) = {bound}")
        return {"all_within_bound": True, "bound": bound}

    return check


def big_ramsey(inputs, pkg):
    jobs = []
    for name, table, action, order, big_n in BIG_RAMSEY:
        listings = list(permutations(range(len(order))))
        listings *= BIG_RAMSEY_JOBS_EACH // len(listings)
        inputs.rng.shuffle(listings)
        for i, new in enumerate(listings):
            argv = ("bigramsey", "--A",
                    inputs.mset(table, action, order, new),
                    "--N", str(big_n), "--k", "2", "--trials", "1",
                    "--seed", str(inputs.rng.randrange(2 ** 31)))
            jobs.append(Job(f"bigramsey/{name}/N{big_n}/#{i}",
                            _big_ramsey_check(len(order)), argv))
    return jobs


# --- structures ------------------------------------------------------------

PROBE_MONOIDS = (("semilattice3", semilattice(3)), ("cyclic3", cyclic(3)),
                 ("left-zero2", left_zero(2)))
# the example forest of the paper's Figure 1: vertex -> parent
FIG1_PARENT = {"a": "d", "b": "h", "c": "b", "d": "d", "e": "g",
               "f": "b", "g": "g", "h": "d", "i": "g", "j": "g"}
FOREST_HOM_SIZES = (2, 3)


def _root_path(parent, x):
    path = [x]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path


def _forest_homs(a, c):
    """Injective, parent- and order-preserving maps, by brute force."""
    arank = {v: r for r, v in enumerate(a.order)}
    crank = {v: r for r, v in enumerate(c.order)}
    n = a.size
    out = []
    for f in product(range(c.size), repeat=n):
        if len(set(f)) == n and all(
                f[a.parent[j]] == c.parent[f[j]] for j in range(n)) and all(
                (arank[i] < arank[j]) == (crank[f[i]] < crank[f[j]])
                for i in range(n) for j in range(n)):
            out.append(list(f))
    return out


def _validate_check(size):
    def check(report, pkg):
        verdicts = report["verdicts"]
        _expect(len(verdicts), 1, "validated objects")
        (verdict,) = verdicts.values()
        return _expect(verdict, {"valid": True, "size": size}, "validate")
    return check


def _laws_check(report, pkg):
    return _expect(report["verdicts"]["all_pass"], True, "all_pass")


def structures(inputs, pkg):
    return _structure_commands(inputs) + _forest_hom_jobs(pkg)


def _structure_commands(inputs):
    rng = inputs.rng
    jobs = []

    def add(name, check, *argv, **kw):
        jobs.append(Job(name, check, argv, **kw))

    for mname, table in PROBE_MONOIDS:
        monoid_path = inputs.write(monoid_json(table))
        add(f"validate/monoid/{mname}", _validate_check(len(table)),
            "validate", "--monoid", monoid_path)
        add(f"laws/monoid_action/{mname}", _laws_check,
            "laws", "--functor", "monoid_action", "--monoid", monoid_path,
            "--size", "2")
        for shape, action in (("point", [[0]]), ("fixed-pair", [[0, 1]])):
            path = inputs.mset(table, action * len(table))
            name = f"probe/{mname}/{shape}"
            add(name, _golden_check(name, lambda v: [v["lower"], v["upper"]]),
                "degree-probe", "--A", path, "--ctx", "msets",
                "--budget", "small")
            add(f"validate/mset/{mname}/{shape}",
                _validate_check(len(action[0])), "validate", "--mset", path)
    add("laws/duplicate_free_list", _laws_check,
        "laws", "--functor", "duplicate_free_list", "--size", "3")
    add("laws/list", _laws_check,
        "laws", "--functor", "list", "--size", "2", "--max-length", "3")
    add("validate/chain", _validate_check(7),
        "validate", "--chain", inputs.chain(7))

    # the Figure 1 forest under fresh labels and a permuted carrier listing
    fresh = dict(zip(FIG1_PARENT, (f"v{x}" for x in
                                   rng.sample(range(10 ** 6), 10))))
    parent = {fresh[x]: fresh[p] for x, p in FIG1_PARENT.items()}
    order = [fresh[x] for x in sorted(FIG1_PARENT)]
    carrier = list(order)
    rng.shuffle(carrier)
    forest_path = inputs.write({"carrier": carrier, "parent": parent,
                                "order": order})
    paths = [_root_path(parent, x) for x in carrier]
    coalgebra_path = inputs.write({"carrier": carrier, "structure": paths,
                                   "order": order})
    add("validate/forest", _validate_check(10),
        "validate", "--forest", forest_path)

    def encode_check(report, pkg):
        coalg = report["verdicts"]["coalgebra"]
        _expect(coalg["carrier"], carrier, "carrier")
        _expect(coalg["structure"], paths, "root paths")
        return sorted(len(p) for p in paths)

    def decode_check(report, pkg):
        forest = report["verdicts"]["forest"]
        _expect(forest["order"], order, "order")
        _expect(forest["parent"], parent, "parent")
        return sorted(len(p) for p in paths)

    add("forest/encode", encode_check, "forest", "--encode", forest_path)
    add("forest/decode", decode_check, "forest", "--decode", coalgebra_path)

    for name, table, u, v in (
            ("transport/z2-fixed-point/swap-pair+fixed", Z2,
             ([[0], [0]], [0]), SWAP_PAIR_AND_FIXED),
            ("transport/trivial-point/trivial-3-chain", TRIVIAL,
             ([[0]], [0]), ([[0, 1, 2]], [0, 1, 2]))):
        add(name, _golden_check(name, lambda v: {
                k: v[k] for k in ("certified", "chain_witness_size",
                                  "lift_size")}),
            "transport", "--U", inputs.mset(table, *u),
            "--V", inputs.mset(table, *v), "-k", "2",
            status_path=("verdicts", "certified"))

    size = len(SWAP_PAIR_AND_FIXED[1])
    degrees = [{"order": list(p), "degree": 2 ** (size - 1)}
               for p in permutations(range(size))]
    formula = math.factorial(size) * 2 ** (size - 1)

    def degree_bound_check(report, pkg):
        return _expect(report["verdicts"], {
            "aggregate": len(degrees) * 2 ** (size - 1), "formula": formula,
            "within_formula": True}, "degree bound")

    add("degree-bound/z2-swap-pair+fixed", degree_bound_check,
        "degree-bound", "--A", inputs.mset(Z2, SWAP_PAIR_AND_FIXED[0]),
        "--ordered-degrees", inputs.write(degrees), "--big")
    return jobs


def _forest_hom_jobs(pkg):
    """ForestContext.hom has no subcommand: these jobs call the API."""
    jobs = []
    fig1 = pkg.forests.fig1_forest()
    for n in FOREST_HOM_SIZES:
        for i, forest in enumerate(pkg.forests.enumerate_forests(n)):
            def api(pkg, forest=forest):
                homs = pkg.ramsey.ForestContext().hom(forest, fig1)
                return [list(f) for f in homs]

            def check(result, pkg, forest=forest):
                return len(_expect(result, _forest_homs(forest, fig1),
                                   "forest hom-set"))

            jobs.append(Job(f"api/forest-hom/n{n}/#{i}", check, api=api))
    return jobs


WORKLOADS = {"arrow-search": arrow_search, "bigramsey": big_ramsey,
             "structures": structures}


def build(workload, seed, directory, pkg):
    """Write the workload's inputs for `seed`; return its jobs in run order."""
    inputs = Inputs(directory, random.Random(f"{workload}/{seed}"))
    jobs = WORKLOADS[workload](inputs, pkg)
    inputs.rng.shuffle(jobs)
    return jobs
