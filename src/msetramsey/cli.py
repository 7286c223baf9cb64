"""Command-line entry point orchestrating the workbench experiments.

Every run emits a JSON report (stdout, or --out) containing the command,
input paths with content hashes, every parameter that shapes the
verdicts (seeds included), and the verdicts. Reports are byte-identical
across runs with the same inputs and parameters; wall-clock timing is
only included when --timing is passed, since it would break that
guarantee.

Exit codes: 0 for a completed run (even when the mathematical verdict is
"refuted"), 1 for input errors (usage errors and out-of-range parameters
included), 2 for cap overflows and for a truncation or witness budget
that is too small.
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
from .errors import (CapExceeded, InputError, NoChainWitnessInBudget,
                     TruncationTooSmall)
from .expansion import degree_sum_bound, fibers, forget_order
from .forests import decode_coalgebra, encode_forest
from .ramsey import (ChainContext, DEFAULT_SEARCH_CAP, MSetContext,
                     SMALL_BUDGET, TINY_BUDGET, holds_arrow,
                     probe_small_degree)
from .transport import DEFAULT_LIFT_CAP, transport_witness


def _input_entry(path):
    return {"path": path, "sha256": io.file_sha256(path)}


def _report(args, inputs, parameters, verdicts, started):
    report = {"command": args.command,
              "inputs": inputs,
              "parameters": parameters,
              "verdicts": verdicts}
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    io.dump_report(report, args.out)
    return 0


def _load_object(kind, path):
    loaders = {"monoid": io.load_monoid, "mset": io.load_mset,
               "chain": io.load_chain, "forest": io.load_forest,
               "unary": io.load_unary_algebra}
    return loaders[kind](path)


def cmd_validate(args, started):
    kinds = [k for k in ("monoid", "mset", "chain", "forest", "unary")
             if getattr(args, k) is not None]
    if not kinds:
        raise InputError("validate: give one of --monoid/--mset/--chain/"
                         "--forest/--unary")
    inputs, verdicts = {}, {}
    for kind in kinds:
        path = getattr(args, kind)
        inputs[kind] = _input_entry(path)
        obj = _load_object(kind, path)
        verdicts[kind] = {"valid": True, "size": obj.size}
    return _report(args, inputs, {}, verdicts, started)


def cmd_laws(args, started):
    inputs = {}
    with_counit = True
    if args.functor == "monoid_action":
        if args.monoid is None:
            raise InputError("laws: monoid_action requires --monoid")
        inputs["monoid"] = _input_entry(args.monoid)
        functor = MonoidActionFunctor(io.load_monoid(args.monoid))
    elif args.functor == "duplicate_free_list":
        functor = DistinctListFunctor()
        with_counit = False   # no counit claim for this functor
    else:
        functor = ListFunctor(max_length=args.max_length)
    report = check_comonad_laws(functor, range(args.size),
                                with_counit=with_counit)
    verdicts = {"all_pass": report.all_pass, "laws": report.to_json()}
    params = {"functor": args.functor, "size": args.size}
    if args.functor == "list":
        params["max_length"] = args.max_length
    return _report(args, inputs, params, verdicts, started)


def _arrow_context(args, objects):
    if args.ctx == "chains":
        return ChainContext()
    a = objects[0]
    ordered = a.order is not None
    want_ordered = args.ctx == "ordered-msets"
    if ordered != want_ordered:
        raise InputError(
            f"--ctx {args.ctx} but the loaded objects are "
            f"{'ordered' if ordered else 'unordered'}")
    return MSetContext(a.monoid, ordered=ordered)


def _load_arrow_objects(args, names):
    loader = io.load_chain if args.ctx == "chains" else io.load_mset
    inputs, objects = {}, []
    for name in names:
        path = getattr(args, name)
        inputs[name] = _input_entry(path)
        objects.append(loader(path))
    return inputs, objects


def cmd_arrow_check(args, started):
    inputs, (a, b, c) = _load_arrow_objects(args, ("A", "B", "C"))
    ctx = _arrow_context(args, (a, b, c))
    verdict = holds_arrow(a, b, c, args.k, args.t, ctx, cap=args.cap)
    params = {"k": args.k, "t": args.t, "ctx": args.ctx, "cap": args.cap}
    return _report(args, inputs, params, verdict.to_json(), started)


def cmd_degree_probe(args, started):
    inputs, (a,) = _load_arrow_objects(args, ("A",))
    ctx = _arrow_context(args, (a,))
    budget = SMALL_BUDGET if args.budget == "small" else TINY_BUDGET
    probe = probe_small_degree(a, ctx, budget=budget, cap=args.cap)
    verdicts = {"lower": probe.lower, "upper": probe.upper,
                "evidence": probe.evidence}
    params = {"ctx": args.ctx, "budget": args.budget, "cap": args.cap}
    return _report(args, inputs, params, verdicts, started)


def cmd_transport(args, started):
    inputs = {"U": _input_entry(args.U), "V": _input_entry(args.V)}
    u_star, v_star = io.load_mset(args.U), io.load_mset(args.V)
    for name, obj in (("U", u_star), ("V", v_star)):
        if obj.order is None:
            raise InputError(f"transport: {name} must carry an order")
    result = transport_witness(u_star, v_star, args.k,
                               chain_witness_budget=args.budget,
                               certify_cap=args.certify_cap,
                               lift_cap=args.lift_cap)
    verdicts = {"chain_witness_size": len(result.chain_witness),
                "lift_size": result.lift.lifted.size,
                "certified": result.certified,
                "verdict": result.verdict.to_json()}
    params = {"k": args.k, "budget": args.budget,
              "certify_cap": args.certify_cap, "lift_cap": args.lift_cap}
    return _report(args, inputs, params, verdicts, started)


def cmd_bigramsey(args, started):
    inputs = {"A": _input_entry(args.A)}
    a_star = io.load_mset(args.A)
    if a_star.order is None:
        raise InputError("bigramsey: A must carry an order")
    params = {"N": args.N, "k": args.k, "trials": args.trials,
              "seed": args.seed, "r_cap": args.r_cap}
    trials = []
    if args.coloring is not None:
        inputs["coloring"] = _input_entry(args.coloring)
        chi = io.load_coloring(args.coloring)
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
    verdicts = {"trials": trials,
                "max_colors_used": max(t["colors_used"] for t in trials),
                "bound": trials[0]["bound"],
                "all_within_bound": all(
                    t["colors_used"] <= t["bound"] for t in trials)}
    return _report(args, inputs, params, verdicts, started)


def cmd_degree_bound(args, started):
    inputs = {"A": _input_entry(args.A),
              "ordered_degrees": _input_entry(args.ordered_degrees)}
    a = forget_order(io.load_mset(args.A))
    degrees = io.load_degrees(args.ordered_degrees)
    if args.big:
        verdicts = unordered_degree_bound(a, degrees).to_json()
    else:
        verdicts = {"bound": degree_sum_bound(a, degrees),
                    "fiber_size": len(fibers(a))}
    params = {"big": args.big}
    return _report(args, inputs, params, verdicts, started)


def cmd_forest(args, started):
    inputs, verdicts = {}, {}
    if args.encode is None and args.decode is None:
        raise InputError("forest: give --encode or --decode")
    if args.encode is not None:
        inputs["forest"] = _input_entry(args.encode)
        forest = io.load_forest(args.encode)
        coalg = encode_forest(forest)
        verdicts["coalgebra"] = coalg.to_json()
    if args.decode is not None:
        inputs["coalgebra"] = _input_entry(args.decode)
        coalg, order = io.load_coalgebra(args.decode)
        try:
            forest = decode_coalgebra(coalg, order)
        except InputError as exc:
            raise io._in_file(exc, args.decode)
        verdicts["forest"] = forest.to_json()
    return _report(args, inputs, {}, verdicts, started)


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
def build_parser():
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
    for kind in ("monoid", "mset", "chain", "forest", "unary"):
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

    return parser


def main(argv=None):
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means cap overflow here
        return 1 if exc.code else 0
    try:
        return args.func(args, started)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (TruncationTooSmall, NoChainWitnessInBudget) as exc:
        print(f"budget too small: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
