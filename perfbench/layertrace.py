"""Outside-in layer tracer for the msetramsey package.

The tracer wraps named functions and ``hom`` methods of the package from
the outside: every module namespace of the package that binds a target
function gets the same wrapper, so a call is seen whichever module it
goes through (``enumerate_embeddings`` is bound in ``mset``, ``ramsey``,
``transport``, ``bigramsey`` and the package itself). Spans are kept in
memory; a span's self time is its duration minus the time of the spans
it caused. A target the package no longer defines is reported as
missing rather than as zero.
"""

import sys
from time import perf_counter

PACKAGE = "msetramsey"


def _length(result):
    return len(result)


def _found(result):
    return result is not None


def _composite_count(result):
    _hom_ac, hom_ab, hom_bc, _images = result
    return len(hom_ab) * len(hom_bc)


def _tables_tried(args, kwargs):
    monoid, n = args[0], args[1]
    return n ** (n * (monoid.size - 1))


class Target:
    """One traced function: where it lives and which work it counts.

    ``counts`` maps a counter name to a function of the result;
    ``arg_counts`` maps one to a function of (args, kwargs).
    """

    def __init__(self, metric, module, name, owner=None, counts=None,
                 arg_counts=None):
        self.metric = metric
        self.module = module
        self.name = name
        self.owner = owner          # class name for a method, else None
        self.counts = counts or {}
        self.arg_counts = arg_counts or {}


def _hom(owner):
    return Target("ramsey.hom", "ramsey", "hom", owner,
                  counts={"results": _length})


# The layers are the package's modules; each metric name starts with
# the module that defines the function.
TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("io.load_json", "io", "load_json"),
    Target("io.file_sha256", "io", "file_sha256"),
    Target("io.dump_report", "io", "dump_report",
           counts={"bytes": _length}),
    Target("monoid.validate_monoid", "monoid", "validate_monoid"),
    Target("chains.enumerate_chain_embeddings", "chains",
           "enumerate_chain_embeddings", counts={"results": _length}),
    Target("mset.validate_mset", "mset", "validate_mset"),
    Target("mset.validate_morphism", "mset", "validate_morphism"),
    Target("mset.enumerate_embeddings", "mset", "enumerate_embeddings",
           counts={"results": _length}),
    Target("comonad.check_comonad_laws", "comonad", "check_comonad_laws"),
    Target("forests.encode_forest", "forests", "encode_forest"),
    Target("forests.decode_coalgebra", "forests", "decode_coalgebra"),
    Target("expansion.fibers", "expansion", "fibers",
           counts={"orderings": _length}),
    Target("ramsey.holds_arrow", "ramsey", "holds_arrow",
           counts={"verdict." + s: (lambda v, s=s: v.status == s)
                   for s in ("holds", "refuted", "inconclusive")}),
    Target("ramsey.composite_images", "ramsey", "composite_images",
           counts={"compositions": _composite_count}),
    Target("ramsey._search_bad_coloring", "ramsey", "_search_bad_coloring",
           counts={"found": _found}),
    Target("ramsey._all_actions", "ramsey", "_all_actions",
           counts={"tables_valid": _length},
           arg_counts={"tables_tried": _tables_tried}),
    _hom("ChainContext"),
    _hom("MSetContext"),
    Target("ramsey.ForestContext.hom", "ramsey", "hom", "ForestContext",
           counts={"results": _length}),
    Target("transport.hat_E", "transport", "hat_E",
           counts={"carrier": lambda lift: lift.lifted.size}),
    Target("transport.hat_E_map", "transport", "hat_E_map"),
    Target("transport.transport_witness", "transport", "transport_witness"),
    Target("bigramsey.big_ramsey_reduce", "bigramsey", "big_ramsey_reduce"),
    Target("bigramsey.pi_star", "bigramsey", "pi_star"),
    Target("bigramsey.subchains_containing_min", "bigramsey",
           "subchains_containing_min"),
    Target("bigramsey._max_mono_subset", "bigramsey", "_max_mono_subset",
           counts={"kept": _length},
           arg_counts={"points": lambda args, kwargs: len(args[0])}),
)

METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS))


class Tracer:
    """Install wrappers, record spans, and sum self time and work counts.

    Use as a context manager around the traced pass; ``spans`` holds
    (metric, start, end, parent span index or -1, job index) tuples.
    """

    def __init__(self):
        self.spans = []
        self.self_s = dict.fromkeys(METRICS, 0.0)
        self.calls = dict.fromkeys(METRICS, 0)
        self.errors = dict.fromkeys(METRICS, 0)
        self.counts = {}
        self.count_failures = set()
        self.job = -1
        self.present = set()
        self._stack = []            # [span index, child seconds]
        self._restore = []          # (namespace, attribute, original)

    def _wrap(self, target, original):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.errors[target.metric] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[target.metric] += duration - frame[1]
                tracer.calls[target.metric] += 1
                tracer.spans[index] = (target.metric, start, end, parent,
                                       tracer.job)
            tracer._count(target, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.name)
        wrapper.__qualname__ = getattr(original, "__qualname__", target.name)
        return wrapper

    def _count(self, target, args, kwargs, result):
        for name, fn in target.arg_counts.items():
            self._add(target.metric + "." + name, fn, args, kwargs)
        for name, fn in target.counts.items():
            self._add(target.metric + "." + name, fn, result)

    def _add(self, key, fn, *inputs):
        try:
            value = int(fn(*inputs))
        except (TypeError, ValueError, AttributeError, IndexError):
            # the function changed shape: report the counter as missing
            self.count_failures.add(key)
            return
        self.counts[key] = self.counts.get(key, 0) + value

    def __enter__(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = {}
        for target in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{target.module}")
            holder = home
            if target.owner is not None:
                holder = getattr(home, target.owner, None)
            fn = vars(holder).get(target.name) if holder is not None else None
            if not callable(fn):
                continue
            self.present.add(target.metric)
            wrapper = self._wrap(target, fn)
            originals[id(fn)] = fn
            if target.owner is not None:
                self._replace(holder, target.name, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)
        self._assert_no_original(modules, originals)
        return self

    def _replace(self, namespace, attr, wrapper):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    @staticmethod
    def _assert_no_original(modules, originals):
        for mod in modules:
            spaces = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)]
            for space in spaces:
                for attr, value in vars(space).items():
                    if id(value) in originals and \
                            originals[id(value)] is value:
                        raise RuntimeError(
                            f"{mod.__name__}.{attr} still holds an "
                            "unwrapped traced function")

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()
        return False

    @property
    def missing(self):
        """Metrics none of whose functions the package defines."""
        return [m for m in METRICS if m not in self.present]

    def work_counts(self):
        """Deterministic counts: calls, errors and per-target counters."""
        out = {}
        for metric in METRICS:
            if metric not in self.present:
                continue
            out[metric + ".calls"] = self.calls[metric]
            out[metric + ".errors"] = self.errors[metric]
        for target in TARGETS:
            if target.metric not in self.present:
                continue
            for name in (*target.arg_counts, *target.counts):
                key = target.metric + "." + name
                if key not in self.count_failures:
                    out[key] = self.counts.get(key, 0)
        return out
