"""Command-line entry point orchestrating the workbench experiments.

Every run emits a JSON report (stdout, or --out) containing the command,
input paths with content hashes, every parameter that shapes the
verdicts (seeds included), and the verdicts. Reports are byte-identical
across runs with the same inputs and parameters; wall-clock timing is
only included when --timing is passed, since it would break that
guarantee.

Exit codes: 0 for a completed run (even when the mathematical verdict is
"refuted"), 1 for input errors (usage errors, out-of-range parameters and
input or --out paths that cannot be read or written included), 2 for cap
overflows and for a truncation or witness budget that is too small.

A plain argv is read without argparse (see `_read_plain`): the
subcommand name, then only that subcommand's exact option strings, each
followed by a value that does not start with "-" and that the option's
type and choices accept, with every required option given. The
namespace is the one argparse would return, so the run and its report
are identical; every other argv goes to argparse.

Each subcommand `cmd_x(args, load)` returns (parameters, verdicts) and
reads its files through `load`, so `main` alone records the inputs and
writes the report. `load` opens each file once, in an `io.read_scope`:
an input's hash is the SHA-256 of the bytes it was parsed from.
"""

import argparse
import functools
import math
import sys
import time

from . import io
from .bigramsey import (DEFAULT_NODE_CAP, DEFAULT_R_CAP, big_ramsey_reduce,
                        lift_hom_size, random_coloring,
                        unordered_degree_bound)
from .comonad import (DistinctListFunctor, ListFunctor, MonoidActionFunctor,
                      check_comonad_laws)
from .errors import (CapExceeded, ColoringError, IncompleteFiber,
                     InputError, NoChainWitnessInBudget, NoLeastElement,
                     TruncationTooSmall)
from .expansion import degree_sum_bound, forget_order
from .forests import encode_forest
from .ramsey import (ChainContext, DEFAULT_SEARCH_CAP, MSetContext,
                     SMALL_BUDGET, TINY_BUDGET, holds_arrow,
                     probe_small_degree)
from .transport import DEFAULT_LIFT_CAP, transport_witness


LOADERS = {"monoid": io.load_monoid, "mset": io.load_mset,
           "chain": io.load_chain, "forest": io.load_forest,
           "unary": io.load_unary_algebra}


def cmd_validate(args, load):
    kinds = [k for k in LOADERS if getattr(args, k) is not None]
    if not kinds:
        raise InputError("validate: give one of --monoid/--mset/--chain/"
                         "--forest/--unary")
    return {}, {kind: {"valid": True, "size": load(kind, LOADERS[kind]).size}
                for kind in kinds}


def cmd_laws(args, load):
    if args.functor == "monoid_action":
        if args.monoid is None:
            raise InputError("laws: monoid_action requires --monoid")
        functor = MonoidActionFunctor(load("monoid", io.load_monoid))
    elif args.functor == "duplicate_free_list":
        functor = DistinctListFunctor()
    else:
        functor = ListFunctor(max_length=args.max_length)
    report = check_comonad_laws(functor, range(args.size))
    params = {"functor": args.functor, "size": args.size}
    if args.functor == "list":
        params["max_length"] = args.max_length
    return params, {"all_pass": report.all_pass, "laws": report.to_json()}


def _load_arrow_objects(args, load, names):
    """The context --ctx names and the objects, which must fit it and
    live over the first object's monoid."""
    if args.ctx == "chains":
        return ChainContext(), [load(name, io.load_chain) for name in names]
    ordered = args.ctx == "ordered-msets"
    objects = []
    for name in names:
        obj = load(name, io.load_mset)
        path = getattr(args, name)
        if (obj.order is not None) != ordered:
            raise InputError(
                f"--ctx {args.ctx} but {name} ({path}) is "
                f"{'unordered' if ordered else 'ordered'}")
        if objects:
            _require_same_monoid(args, (names[0], objects[0]), (name, obj))
        objects.append(obj)
    return MSetContext(), objects


def _require_same_monoid(args, first, other):
    """InputError, naming both files, unless the (option name, M-set)
    pair `other` lives over the monoid of `first`."""
    if other[1].monoid != first[1].monoid:
        raise InputError(
            f"{other[0]} ({getattr(args, other[0])}) lives over another "
            f"monoid than {first[0]} ({getattr(args, first[0])})")


def _load_ordered(args, load, name, loader, path=None):
    """Load as `load` does an object that must carry an order."""
    path = getattr(args, name) if path is None else path
    obj = load(name, loader, path)
    if obj.order is None:
        raise InputError(f"{args.command}: {name} must carry an order, but "
                         f"{path} has none")
    return obj


def cmd_arrow_check(args, load):
    ctx, (a, b, c) = _load_arrow_objects(args, load, ("A", "B", "C"))
    verdict = holds_arrow(a, b, c, args.k, args.t, ctx, cap=args.cap)
    params = {"k": args.k, "t": args.t, "ctx": args.ctx, "cap": args.cap}
    return params, verdict.to_json()


def cmd_degree_probe(args, load):
    ctx, (a,) = _load_arrow_objects(args, load, ("A",))
    budget = SMALL_BUDGET if args.budget == "small" else TINY_BUDGET
    probe = probe_small_degree(a, ctx, budget=budget, cap=args.cap)
    params = {"ctx": args.ctx, "budget": args.budget, "cap": args.cap}
    return params, {"lower": probe.lower, "upper": probe.upper,
                    "evidence": probe.evidence}


def cmd_transport(args, load):
    u_star = _load_ordered(args, load, "U", io.load_mset)
    v_star = _load_ordered(args, load, "V", io.load_mset)
    _require_same_monoid(args, ("U", u_star), ("V", v_star))
    result = transport_witness(u_star, v_star, args.k,
                               chain_witness_budget=args.budget,
                               certify_cap=args.certify_cap,
                               lift_cap=args.lift_cap)
    params = {"k": args.k, "budget": args.budget,
              "certify_cap": args.certify_cap, "lift_cap": args.lift_cap}
    return params, {"chain_witness_size": len(result.chain_witness),
                    "lift_size": result.lift.lifted.size,
                    "certified": result.certified,
                    "verdict": result.verdict.to_json()}


def cmd_bigramsey(args, load):
    if args.coloring is not None and (args.trials is not None
                                      or args.seed is not None):
        raise InputError("bigramsey: --trials and --seed set random "
                         "trials, which --coloring replaces")
    n_trials = 1 if args.trials is None else args.trials
    first_seed = 0 if args.seed is None else args.seed
    a_star = _load_ordered(args, load, "A", io.load_mset)
    params = {"N": args.N, "k": args.k, "trials": n_trials,
              "seed": first_seed, "r_cap": args.r_cap}
    trials = []
    with io.naming(args.A, NoLeastElement):
        if args.coloring is not None:
            chi = load("coloring", io.load_coloring)
            with io.naming(args.coloring, ColoringError):
                result = big_ramsey_reduce(a_star, chi, args.k, args.N,
                                           r_cap=args.r_cap, cap=args.cap)
            trials.append(dict(result.to_json(), seed=None))
        else:
            r_size = lift_hom_size(a_star, args.N, args.r_cap)
            for t in range(n_trials):
                seed = first_seed + t
                result = big_ramsey_reduce(
                    a_star, random_coloring(r_size, args.k, seed), args.k,
                    args.N, r_cap=args.r_cap, cap=args.cap)
                trials.append(dict(result.to_json(), seed=seed))
    return params, {"trials": trials,
                    "max_colors_used": max(t["colors_used"] for t in trials),
                    "bound": trials[0]["bound"],
                    "all_within_bound": all(
                        t["colors_used"] <= t["bound"] for t in trials)}


def cmd_degree_bound(args, load):
    a = forget_order(load("A", io.load_mset))
    degrees = load("ordered_degrees", io.load_degrees)
    with io.naming(args.A, NoLeastElement), \
            io.naming(args.ordered_degrees, IncompleteFiber):
        if args.big:
            verdicts = unordered_degree_bound(a, degrees).to_json()
        else:
            verdicts = {"bound": degree_sum_bound(a, degrees),
                        "fiber_size": math.factorial(a.size)}
    return {"big": args.big}, verdicts


def cmd_forest(args, load):
    if args.encode is None and args.decode is None:
        raise InputError("forest: give --encode or --decode")
    verdicts = {}
    if args.encode is not None:
        forest = _load_ordered(args, load, "forest", io.load_forest,
                               args.encode)
        verdicts["coalgebra"] = encode_forest(forest).to_json()
    if args.decode is not None:
        forest = load("coalgebra", io.load_coalgebra_forest, args.decode)
        verdicts["forest"] = forest.to_json()
    return {}, verdicts


def _int_at_least(low):
    """An argparse type: an int no smaller than `low`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


@functools.cache
def _parsers():
    """The top-level parser, and for each subcommand name its option
    table: its option strings, each mapped to (dest, type, choices,
    takes no value); the dests it requires; and the values a namespace
    starts from, the defaults in the order the parser sets them and then
    `func`. Every option stores its value, or True for a flag, and no
    string default has a type to convert it."""
    parser = argparse.ArgumentParser(
        prog="msetramsey",
        description="Finite-scale Ramsey workbench for monoid actions")
    common = argparse.ArgumentParser(add_help=False)
    common_actions = [
        common.add_argument("--out", default=None,
                            help="write the JSON report here instead of "
                                 "stdout"),
        common.add_argument("--timing", action="store_true",
                            help="include wall-clock timing in the report")]
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, help):
        """Add subcommand `name`; its `add_argument`, which records the
        action it adds."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        actions = list(common_actions)
        commands[name] = actions, func

        def add_argument(*args, **kwargs):
            actions.append(p.add_argument(*args, **kwargs))
        return add_argument

    add = command("validate", cmd_validate, "validate an input file")
    for kind in LOADERS:
        add(f"--{kind}")

    add = command("laws", cmd_laws, "check comonad laws exhaustively")
    add("--functor", required=True,
        choices=["monoid_action", "duplicate_free_list", "list"])
    add("--monoid")
    add("--size", type=_int_at_least(0), required=True,
        help="carrier size for the exhaustive check")
    add("--max-length", type=_int_at_least(0), default=3)

    ctx_choices = ["chains", "msets", "ordered-msets"]

    add = command("arrow-check", cmd_arrow_check,
                  "decide the arrow C -> (B)^A_{k,t}")
    add("--A", required=True)
    add("--B", required=True)
    add("--C", required=True)
    add("-k", type=_int_at_least(1), required=True)
    add("-t", type=_int_at_least(0), default=1)
    add("--ctx", choices=ctx_choices, default="chains")
    add("--cap", type=_int_at_least(0), default=DEFAULT_SEARCH_CAP)

    add = command("degree-probe", cmd_degree_probe,
                  "bracket a small Ramsey degree")
    add("--A", required=True)
    add("--ctx", choices=ctx_choices, default="msets")
    add("--budget", choices=["small", "tiny"], default="small")
    add("--cap", type=_int_at_least(0), default=DEFAULT_SEARCH_CAP)

    add = command("transport", cmd_transport,
                  "transport a chain witness through the lex lift")
    add("--U", required=True)
    add("--V", required=True)
    add("-k", type=_int_at_least(1), required=True)
    add("--budget", type=_int_at_least(0), default=8,
        help="largest chain size searched for a witness")
    add("--certify-cap", type=_int_at_least(0), default=DEFAULT_SEARCH_CAP)
    add("--lift-cap", type=_int_at_least(0), default=DEFAULT_LIFT_CAP)

    add = command("bigramsey", cmd_bigramsey,
                  "run the truncated big-Ramsey experiment")
    add("--A", required=True)
    add("--N", type=_int_at_least(0), required=True)
    add("--k", type=_int_at_least(1), required=True)
    add("--trials", type=_int_at_least(1), default=None,
        help="random trials (default 1)")
    add("--seed", type=int, default=None,
        help="seed of the first random trial (default 0)")
    add("--coloring", default=None,
        help="JSON coloring file, run instead of random trials")
    add("--r-cap", type=_int_at_least(0), default=DEFAULT_R_CAP)
    add("--cap", type=_int_at_least(0), default=DEFAULT_NODE_CAP,
        help="search nodes per pigeonhole step")

    add = command("degree-bound", cmd_degree_bound,
                  "sum per-ordering degrees over the fiber")
    add("--A", required=True)
    add("--ordered-degrees", required=True)
    add("--big", action="store_true",
        help="compare against the n!*2^(n-1) aggregate formula")

    add = command("forest", cmd_forest,
                  "encode/decode rooted forests as coalgebras")
    add("--encode", default=None)
    add("--decode", default=None)

    tables = {}
    for name, (actions, func) in commands.items():
        options = {option: (a.dest, a.type, a.choices, a.nargs == 0)
                   for a in actions for option in a.option_strings}
        required = frozenset(a.dest for a in actions if a.required)
        start = {a.dest: a.default for a in actions}
        start["func"] = func
        tables[name] = options, required, start
    return parser, tables


def build_parser():
    return _parsers()[0]


def _read_plain(argv):
    """The namespace `build_parser().parse_args(argv)` returns, when argv
    is plain: a subcommand name and then only that subcommand's exact
    option strings, each option that takes a value followed by one that
    does not start with "-" and that its type and choices accept, and
    every required option given. None for any other argv."""
    table = _parsers()[1].get(argv[0]) if argv else None
    if table is None:
        return None
    options, required, values = table
    values = dict(values)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None:
            return None
        dest, convert, choices, no_value = option
        if no_value:
            value = True
        else:
            value = next(tokens, "-")     # "-" when the value is missing
            if value.startswith("-"):
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        given.add(dest)
    if not required <= given:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv):
    """`build_parser().parse_args(argv)`. A plain argv (see
    `_read_plain`) is read from the subcommand's option table, to the
    same namespace in a third to an eighth of argparse's time; every
    other argv (help, abbreviations, `--opt=value` and attached values,
    values starting with "-", unknown options, every usage error) goes
    to argparse itself."""
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None):
    started = time.monotonic()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means cap overflow here
        return 1 if exc.code else 0
    inputs = {}

    def load(name, loader, path=None):
        """Load `path`, by default option `name`'s, and record its path
        and hash under `name` in the report's inputs."""
        path = getattr(args, name) if path is None else path
        # load first, so an unreadable path is the loader's InputError;
        # the hash is of the bytes the loader parsed
        with io.read_scope():
            obj = loader(path)
            inputs[name] = {"path": path, "sha256": io.file_sha256(path)}
        return obj

    try:
        parameters, verdicts = args.func(args, load)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (TruncationTooSmall, NoChainWitnessInBudget) as exc:
        print(f"budget too small: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    report = {"command": args.command, "inputs": inputs,
              "parameters": parameters, "verdicts": verdicts}
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    try:
        io.dump_report(report, args.out)
    except OSError as exc:
        print(f"output error: cannot write {args.out}: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
