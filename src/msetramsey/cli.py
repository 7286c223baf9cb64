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

Each subcommand `cmd_x(args, load)` returns (parameters, verdicts) and
reads its files through `load`, so `main` alone records the inputs and
writes the report.
"""

import argparse
import functools
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
from .expansion import degree_sum_bound, fibers, forget_order
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
        if objects and obj.monoid != objects[0].monoid:
            raise InputError(
                f"{name} ({path}) lives over another monoid than "
                f"{names[0]} ({getattr(args, names[0])})")
        objects.append(obj)
    return MSetContext(), objects


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
    a_star = _load_ordered(args, load, "A", io.load_mset)
    params = {"N": args.N, "k": args.k, "trials": args.trials,
              "seed": args.seed, "r_cap": args.r_cap}
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
            for t in range(args.trials):
                seed = args.seed + t
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
                        "fiber_size": len(fibers(a))}
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
    """The top-level parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="msetramsey",
        description="Finite-scale Ramsey workbench for monoid actions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate an input file")
    for kind in LOADERS:
        p.add_argument(f"--{kind}")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("laws", parents=[common],
                       help="check comonad laws exhaustively")
    p.add_argument("--functor", required=True,
                   choices=["monoid_action", "duplicate_free_list", "list"])
    p.add_argument("--monoid")
    p.add_argument("--size", type=_int_at_least(0), required=True,
                   help="carrier size for the exhaustive check")
    p.add_argument("--max-length", type=_int_at_least(0), default=3)
    p.set_defaults(func=cmd_laws)

    ctx_choices = ["chains", "msets", "ordered-msets"]

    p = sub.add_parser("arrow-check", parents=[common],
                       help="decide the arrow C -> (B)^A_{k,t}")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("-k", type=_int_at_least(1), required=True)
    p.add_argument("-t", type=_int_at_least(0), default=1)
    p.add_argument("--ctx", choices=ctx_choices, default="chains")
    p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_SEARCH_CAP)
    p.set_defaults(func=cmd_arrow_check)

    p = sub.add_parser("degree-probe", parents=[common],
                       help="bracket a small Ramsey degree")
    p.add_argument("--A", required=True)
    p.add_argument("--ctx", choices=ctx_choices, default="msets")
    p.add_argument("--budget", choices=["small", "tiny"], default="small")
    p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_SEARCH_CAP)
    p.set_defaults(func=cmd_degree_probe)

    p = sub.add_parser("transport", parents=[common],
                       help="transport a chain witness through the lex lift")
    p.add_argument("--U", required=True)
    p.add_argument("--V", required=True)
    p.add_argument("-k", type=_int_at_least(1), required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=8,
                   help="largest chain size searched for a witness")
    p.add_argument("--certify-cap", type=_int_at_least(0),
                   default=DEFAULT_SEARCH_CAP)
    p.add_argument("--lift-cap", type=_int_at_least(0),
                   default=DEFAULT_LIFT_CAP)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("bigramsey", parents=[common],
                       help="run the truncated big-Ramsey experiment")
    p.add_argument("--A", required=True)
    p.add_argument("--N", type=_int_at_least(0), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coloring", default=None,
                   help="JSON coloring file (overrides random trials)")
    p.add_argument("--r-cap", type=_int_at_least(0), default=DEFAULT_R_CAP)
    p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_NODE_CAP,
                   help="search nodes per pigeonhole step")
    p.set_defaults(func=cmd_bigramsey)

    p = sub.add_parser("degree-bound", parents=[common],
                       help="sum per-ordering degrees over the fiber")
    p.add_argument("--A", required=True)
    p.add_argument("--ordered-degrees", required=True)
    p.add_argument("--big", action="store_true",
                   help="compare against the n!*2^(n-1) aggregate formula")
    p.set_defaults(func=cmd_degree_bound)

    p = sub.add_parser("forest", parents=[common],
                       help="encode/decode rooted forests as coalgebras")
    p.add_argument("--encode", default=None)
    p.add_argument("--decode", default=None)
    p.set_defaults(func=cmd_forest)

    return parser, sub.choices


def build_parser():
    return _parsers()[0]


def _parse_args(argv):
    """`build_parser().parse_args(argv)`. An argv that starts with a
    subcommand name goes to that subcommand's parser alone, which takes
    about half the time; the rest are left to the top-level parser."""
    parser, subparsers = _parsers()
    if not argv or argv[0] not in subparsers:
        return parser.parse_args(argv)
    args, extras = subparsers[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


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
        # load first, so an unreadable path is the loader's InputError
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
