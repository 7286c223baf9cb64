"""Generated inputs at the CLI boundary: every run exits 0, 1 or 2, lets
no other exception escape, and reruns to the same bytes."""

import contextlib
import io
import json
import os
import random
import tempfile
from itertools import permutations

from hypothesis import example, given, settings, strategies as st

from cli_files import FILE_OPTIONS, with_file, write_files
from msetramsey.bigramsey import lift_hom_size
from msetramsey.cli import main
from msetramsey.monoid import (chain_semilattice, cyclic_group,
                               left_zero_monoid, trivial_monoid, z2)
from msetramsey.mset import validate_mset
from msetramsey.ramsey import _all_actions

MONOIDS = (trivial_monoid(), z2(), cyclic_group(3), chain_semilattice(2),
           left_zero_monoid(2))

# entries no coloring may hold: k <= 4, so 4 and up are out of range
NOT_A_COLOR = st.one_of(
    st.integers(-3, -1), st.integers(4, 300), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 3), max_size=2))


@st.composite
def bigramsey_argv(draw):
    """(files to write, argv) for one bigramsey run."""
    m = draw(st.sampled_from(MONOIDS))
    # sampled_from leans to its first entries, integers to 0
    n = draw(st.sampled_from((2, 3, 1, 0)))
    labels = [f"x{i}" for i in range(n)]
    valid = draw(st.sampled_from((True, True, True, False)))
    if valid:
        action = draw(st.sampled_from(list(_all_actions(m, n))))
    else:   # any table of the right shape, mostly not an action
        action = draw(st.lists(st.lists(st.integers(-1, n), min_size=n,
                                        max_size=n),
                               min_size=m.size, max_size=m.size))
    order = draw(st.permutations(labels))
    big_n, k = draw(st.sampled_from(range(8, -1, -1))), draw(st.integers(1, 4))
    files = {"a.json": {"monoid": m.to_json(), "carrier": labels,
                        "action": [list(row) for row in action],
                        "order": order}}
    argv = ["bigramsey", "--A", "a.json", "--N", str(big_n), "--k", str(k)]
    if draw(st.booleans()):
        size = draw(st.integers(0, 40))
        if valid and draw(st.sampled_from((True, True, True, False))):
            size = lift_hom_size(validate_mset(m, labels, action, order),
                                 big_n)
        size = max(0, size + draw(st.sampled_from((0, 0, 0, -1, 1))))
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        colors = [rng.randrange(k) for _ in range(size)]
        for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if colors else 0):
            colors[draw(st.integers(0, size - 1))] = draw(NOT_A_COLOR)
        files["coloring.json"] = colors
        argv += ["--coloring", "coloring.json"]
    else:
        argv += ["--trials", str(draw(st.integers(1, 2))),
                 "--seed", str(draw(st.integers(0, 9)))]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--r-cap", str(draw(st.integers(0, 30)))]
    return files, argv


@st.composite
def mset_arrow_argv(draw):
    """(files to write, argv) for one arrow-check run on M-set files: A,
    B and C of up to 2, 2 and 3 elements, ordered for --ctx ordered-msets.
    Now and then one file has a fault: an order where none belongs or
    none where one does, an order label outside the carrier or repeated,
    a table that is mostly not an action, or another monoid."""
    ctx = draw(st.sampled_from(("ordered-msets", "msets")))
    m = draw(st.sampled_from(MONOIDS))
    faulty = draw(st.sampled_from((None, None, None, "A", "B", "C")))
    fault = draw(st.sampled_from(("flipped", "outside", "repeated",
                                  "action", "monoid")))
    files = {}
    for name, sizes in (("A", (1, 2, 0)), ("B", (2, 1)), ("C", (3, 2, 1))):
        here = fault if name == faulty else None
        mc = draw(st.sampled_from(MONOIDS)) if here == "monoid" else m
        n = draw(st.sampled_from(sizes))
        labels = [f"x{i}" for i in range(n)]
        if here == "action":
            action = draw(st.lists(st.lists(st.integers(-1, n), min_size=n,
                                            max_size=n),
                                   min_size=mc.size, max_size=mc.size))
        else:
            action = draw(st.sampled_from(list(_all_actions(mc, n))))
        obj = {"monoid": mc.to_json(), "carrier": labels,
               "action": [list(row) for row in action]}
        if (ctx == "ordered-msets") != (here == "flipped"):
            order = draw(st.permutations(labels))
            if here == "outside":
                order.insert(draw(st.integers(0, n)), "y")
            elif here == "repeated" and order:
                order[draw(st.integers(0, n - 1))] = draw(
                    st.sampled_from(labels))
            obj["order"] = order
        files[f"{name}.json"] = obj
    argv = ["arrow-check", "--ctx", ctx, "--A", "A.json", "--B", "B.json",
            "--C", "C.json", "-k", str(draw(st.integers(1, 3))),
            "-t", str(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--cap", str(draw(st.integers(0, 5)))]
    return files, argv


# values an int slot of a monoid or M-set file may hold instead of an int
NOT_AN_INT = st.one_of(
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2), st.lists(st.integers(0, 2), max_size=2))


def _int_slots(monoid):
    """(container, key) of every int slot of a monoid file's object."""
    slots = [(monoid, "size"), (monoid, "identity")]
    slots += [(row, j) for row in monoid["table"] for j in range(len(row))]
    order = monoid["well_order"]
    return slots + [(order, j) for j in range(len(order))]


@st.composite
def validate_argv(draw):
    """(files to write, argv, whether an int slot holds a boolean) for one
    validate --monoid or validate --mset run."""
    m = draw(st.sampled_from(MONOIDS))
    monoid = m.to_json()
    slots = _int_slots(monoid)
    if draw(st.booleans()):
        n = draw(st.sampled_from((2, 1, 3, 0)))
        labels = [f"x{i}" for i in range(n)]
        action = [list(row) for row in
                  draw(st.sampled_from(list(_all_actions(m, n))))]
        obj = {"monoid": monoid, "carrier": labels, "action": action,
               "order": draw(st.permutations(labels))}
        slots += [(row, j) for row in action for j in range(n)]
        kind = "--mset"
    else:
        obj, kind = monoid, "--monoid"
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(NOT_AN_INT)
    has_bool = any(type(c[key]) is bool for c, key in slots)
    return {"input.json": obj}, ["validate", kind, "input.json"], has_bool


# values a degree may hold instead of an int >= 1 or null
NOT_A_DEGREE = st.one_of(
    st.integers(-3, 0), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2), st.lists(st.integers(1, 3), max_size=2))


@st.composite
def degree_bound_argv(draw):
    """(files to write, argv, whether a degree is a bool or an int below 1,
    whether A is empty and --big is given) for one degree-bound run."""
    m = draw(st.sampled_from(MONOIDS))
    n = draw(st.sampled_from((2, 1, 3, 0)))
    action = draw(st.sampled_from(list(_all_actions(m, n))))
    a = {"monoid": m.to_json(), "carrier": [f"x{i}" for i in range(n)],
         "action": [list(row) for row in action]}
    entries = [{"order": list(p), "degree": draw(st.integers(1, 4))}
               for p in permutations(range(n))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        entry = draw(st.sampled_from(entries))
        part = draw(st.sampled_from(("degree", "degree", "null", "order")))
        if part == "degree":
            entry["degree"] = draw(NOT_A_DEGREE)
        elif part == "null":
            entry["degree"] = None
        else:
            entry["order"] = draw(st.lists(st.integers(-1, n), max_size=n))
    if len(entries) > 1 and draw(st.integers(0, 4)) == 0:
        entries.pop(draw(st.integers(0, len(entries) - 1)))
    below_one = any(type(e["degree"]) is bool or (
        type(e["degree"]) is int and e["degree"] < 1) for e in entries)
    argv = ["degree-bound", "--A", "a.json",
            "--ordered-degrees", "degrees.json"]
    big = draw(st.booleans())
    if big:
        argv.append("--big")
    files = {"a.json": a, "degrees.json": entries}
    return files, argv, below_one, big and not n


SCALAR = st.one_of(
    st.text(max_size=2), st.integers(-2, 9), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False))
# JSON values no label may be: arrays (a chain label may be a flat array
# of scalars, so some of these nest one) and objects
NOT_A_LABEL = st.one_of(
    st.lists(SCALAR, max_size=2),
    st.lists(st.lists(SCALAR, max_size=1), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=1), SCALAR, max_size=1))


def _is_scalar(x):
    return not isinstance(x, (list, dict))


def _labels(draw, n):
    """n labels, mostly distinct strings, some scalars of other types and
    now and then an array or an object."""
    labels = [f"x{i}" for i in range(n)]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if n else 0):
        labels[draw(st.integers(0, n - 1))] = draw(
            st.one_of(SCALAR, NOT_A_LABEL))
    return labels


@st.composite
def chain_argv(draw):
    """(files to write, argv, whether an entry is neither a scalar nor a
    flat array of scalars) for one validate --chain run."""
    labels = _labels(draw, draw(st.integers(0, 4)))
    bad = not all(_is_scalar(x) or isinstance(x, list)
                  and all(map(_is_scalar, x)) for x in labels)
    return {"chain.json": labels}, ["validate", "--chain", "chain.json"], bad


@st.composite
def forest_argv(draw, validate=False):
    """(files to write, argv, whether a carrier label, parent or root-path
    entry is not a scalar) for one forest --encode or --decode run: a
    forest of up to 4 vertices (a parent choice may close a cycle), as a
    forest file or as its root-path coalgebra, now and then with a label
    swapped for another value. With `validate`, one validate --forest
    run on the forest file."""
    n = draw(st.integers(0, 4))
    labels = _labels(draw, n)
    parent = [draw(st.integers(0, i)) for i in range(n)]
    if n and draw(st.integers(0, 4)) == 0:
        parent[0] = n - 1   # may close a cycle through vertex 0
    order = draw(st.permutations(labels))
    if not validate and draw(st.booleans()):
        paths = []
        for i in range(n):
            path, seen = [i], {i}
            while parent[path[-1]] not in seen:
                path.append(parent[path[-1]])
                seen.add(path[-1])
            paths.append([labels[j] for j in path])
        if paths and draw(st.integers(0, 2)) == 0:
            path = draw(st.sampled_from(paths))
            path[draw(st.integers(0, len(path) - 1))] = draw(
                st.one_of(SCALAR, NOT_A_LABEL))
        obj = {"carrier": labels, "structure": paths, "order": order}
        bad = not all(map(_is_scalar, labels + sum(paths, [])))
        argv = ["forest", "--decode", "input.json"]
    else:
        values = [labels[j] for j in parent]
        if values and draw(st.integers(0, 2)) == 0:
            values[draw(st.integers(0, n - 1))] = draw(
                st.one_of(SCALAR, NOT_A_LABEL))
        obj = {"carrier": labels, "order": order,
               "parent": {str(x): y for x, y in zip(labels, values)}}
        bad = not all(map(_is_scalar, labels + values))
        argv = ["validate", "--forest", "input.json"] if validate else [
            "forest", "--encode", "input.json"]
    if draw(st.integers(0, 4)) == 0:
        del obj["order"]
    return {"input.json": obj}, argv, bad


# any JSON value a field may hold: scalars (booleans included), arrays
# and objects
ANY_VALUE = st.one_of(SCALAR, NOT_A_LABEL)


def _spoil(draw, obj, fields):
    """Now and then delete one of `fields` from `obj` or swap its value
    for any JSON value; return the fields deleted."""
    deleted = []
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        name = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            obj.pop(name, None)
            deleted.append(name)
        else:
            obj[name] = draw(ANY_VALUE)
    return [name for name in deleted if name not in obj]


@st.composite
def unary_argv(draw):
    """(files to write, argv, whether the file must be rejected) for one
    validate --unary run: up to 3 generators acting on up to 3 elements,
    now and then with a label swapped for another value, a row for a
    symbol that may lie outside the alphabet, a repeated symbol, an
    "order" field, or a field deleted or swapped for any JSON value. A
    file with a non-scalar or repeated alphabet symbol, a row for a
    symbol outside the alphabet, an "order" field or no alphabet or
    generator actions must be rejected."""
    n = draw(st.integers(0, 3))
    alphabet = _labels(draw, draw(st.integers(0, 3)))
    if alphabet and draw(st.integers(0, 4)) == 0:
        alphabet.append(draw(st.sampled_from(alphabet)))
    rows = {str(x): [draw(st.integers(-1, n)) for _ in range(n)]
            for x in alphabet if _is_scalar(x)}
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.sampled_from(("x0", "g")))] = [
            draw(st.integers(-1, n)) for _ in range(n)]
    obj = {"alphabet": alphabet, "generator_actions": rows}
    if draw(st.booleans()):
        obj["carrier"] = _labels(draw, n)
    if draw(st.integers(0, 4)) == 0:
        obj["order"] = draw(st.one_of(ANY_VALUE, st.permutations(
            obj.get("carrier", list(range(n))))))
    deleted = _spoil(draw, obj, ["alphabet", "generator_actions",
                                 "carrier"])
    alphabet, rows = obj.get("alphabet"), obj.get("generator_actions")
    listed = isinstance(alphabet, list)
    scalars = listed and all(map(_is_scalar, alphabet))
    bad = bool(deleted and deleted != ["carrier"]) or "order" in obj or (
        listed and not scalars) or (
        scalars and len(set(alphabet)) < len(alphabet)) or (
        listed and isinstance(rows, dict)
        and any(s not in alphabet for s in rows))
    return {"input.json": obj}, ["validate", "--unary", "input.json"], bad


@st.composite
def degree_probe_argv(draw):
    """(files to write, argv) for one degree-probe --budget tiny run on
    an M-set file of up to 3 elements, ordered for --ctx ordered-msets.
    Now and then the file has an order where none belongs or none where
    one does, a table that is mostly not an action, a label swapped for
    another value, or a field deleted or swapped for any JSON value."""
    ctx = draw(st.sampled_from(("msets", "msets", "ordered-msets")))
    m = draw(st.sampled_from(MONOIDS))
    n = draw(st.sampled_from((2, 1, 3, 0)))
    labels = _labels(draw, n)
    if draw(st.integers(0, 4)):
        action = draw(st.sampled_from(list(_all_actions(m, n))))
    else:
        action = draw(st.lists(st.lists(st.integers(-1, n), min_size=n,
                                        max_size=n),
                               min_size=m.size, max_size=m.size))
    obj = {"monoid": m.to_json(), "carrier": labels,
           "action": [list(row) for row in action]}
    if (ctx == "ordered-msets") != (draw(st.integers(0, 4)) == 0):
        obj["order"] = draw(st.permutations(labels))
    _spoil(draw, obj, ["monoid", "carrier", "action", "order"])
    argv = ["degree-probe", "--ctx", ctx, "--budget", "tiny",
            "--A", "a.json"]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--cap", str(draw(st.integers(0, 5)))]
    return {"a.json": obj}, argv


@st.composite
def coalgebra_argv(draw):
    """(files to write, argv, whether a carrier or structure field is
    missing) for one forest --decode run on the root-path coalgebra of
    a chain of up to 3 vertices, now and then with a field deleted or
    swapped for any JSON value."""
    labels = [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    obj = {"carrier": labels,
           "structure": [labels[i::-1] for i in range(len(labels))],
           "order": draw(st.permutations(labels))}
    deleted = _spoil(draw, obj, ["carrier", "structure", "order"])
    missing = bool(set(deleted) & {"carrier", "structure"})
    return {"input.json": obj}, ["forest", "--decode", "input.json"], missing


@st.composite
def chain_arrow_argv(draw):
    """(files to write, argv) for one arrow-check --ctx chains run on
    chains A, B and C of up to 3, 4 and 7 labels, with a --cap of at
    most 200 search nodes. Now and then a file has a label swapped for
    another value or repeated, or is any JSON value instead of a chain."""
    files = {}
    for name, most in (("A", 3), ("B", 4), ("C", 7)):
        labels = _labels(draw, draw(st.integers(0, most)))
        fault = draw(st.sampled_from((None,) * 8 + ("repeat", "value")))
        if fault == "repeat" and labels:
            labels[draw(st.integers(0, len(labels) - 1))] = draw(
                st.sampled_from(labels))
        elif fault == "value":
            labels = draw(ANY_VALUE)
        files[f"{name}.json"] = labels
    argv = ["arrow-check", "--ctx", "chains", "--A", "A.json",
            "--B", "B.json", "--C", "C.json",
            "-k", str(draw(st.integers(1, 3))),
            "-t", str(draw(st.integers(0, 2))),
            "--cap", str(draw(st.integers(0, 200)))]
    return files, argv


@st.composite
def laws_argv(draw):
    """(files to write, argv) for one laws --functor monoid_action run
    over a carrier of up to 4 elements. Now and then the monoid file has
    an int slot swapped for another value or int, or a field deleted or
    swapped for any JSON value, or --monoid is left out."""
    monoid = draw(st.sampled_from(MONOIDS)).to_json()
    fault = draw(st.sampled_from((None, None, "slot", "field")))
    if fault == "slot":
        container, key = draw(st.sampled_from(_int_slots(monoid)))
        container[key] = draw(st.one_of(NOT_AN_INT, st.integers(-1, 4)))
    elif fault == "field":
        _spoil(draw, monoid, ["size", "identity", "table", "well_order"])
    argv = ["laws", "--functor", "monoid_action",
            "--size", str(draw(st.integers(0, 4)))]
    if draw(st.sampled_from((True,) * 9 + (False,))):
        argv += ["--monoid", "monoid.json"]
    return {"monoid.json": monoid}, argv


@st.composite
def laws_list_argv(draw):
    """(files to write, argv) for one laws --functor list or
    duplicate_free_list run over a carrier of up to 5 elements, lists of
    up to 5 entries; now and then a number is out of range or not an
    int, or a stray --monoid file is given."""
    functor = draw(st.sampled_from(("list", "duplicate_free_list")))
    number = st.one_of(st.integers(0, 4), st.integers(0, 4),
                       st.integers(-2, 5), st.sampled_from(("x", "2.5", "")))
    argv = ["laws", "--functor", functor, "--size", str(draw(number))]
    if draw(st.booleans()):
        argv += ["--max-length", str(draw(number))]
    files = {}
    if draw(st.integers(0, 4)) == 0:
        files["monoid.json"] = draw(st.sampled_from(MONOIDS)).to_json()
        argv += ["--monoid", "monoid.json"]
    return files, argv


@st.composite
def transport_argv(draw):
    """(files to write, argv) for one transport run on ordered M-set
    files U and V of up to 2 elements, with a chain witness budget of at
    most 4 and caps of at most 200 search nodes and lift elements. Now
    and then one file has a fault: no order, an order label outside the
    carrier, a table that is mostly not an action, or another monoid."""
    m = draw(st.sampled_from(MONOIDS))
    faulty = draw(st.sampled_from((None, None, None, "U", "V")))
    fault = draw(st.sampled_from(("unordered", "outside", "action",
                                  "monoid")))
    files = {}
    for name, sizes in (("U", (1, 2, 0)), ("V", (2, 1, 0))):
        here = fault if name == faulty else None
        mc = draw(st.sampled_from(MONOIDS)) if here == "monoid" else m
        n = draw(st.sampled_from(sizes))
        labels = [f"x{i}" for i in range(n)]
        if here == "action":
            action = draw(st.lists(st.lists(st.integers(-1, n), min_size=n,
                                            max_size=n),
                                   min_size=mc.size, max_size=mc.size))
        else:
            action = draw(st.sampled_from(list(_all_actions(mc, n))))
        obj = {"monoid": mc.to_json(), "carrier": labels,
               "action": [list(row) for row in action]}
        if here != "unordered":
            obj["order"] = draw(st.permutations(labels))
            if here == "outside":
                obj["order"].insert(draw(st.integers(0, n)), "y")
        files[f"{name}.json"] = obj
    argv = ["transport", "--U", "U.json", "--V", "V.json",
            "-k", str(draw(st.integers(1, 3))),
            "--budget", str(draw(st.integers(0, 4))),
            "--certify-cap", str(draw(st.integers(0, 200)))]
    if draw(st.integers(0, 2)) == 0:
        argv += ["--lift-cap", str(draw(st.integers(0, 200)))]
    return files, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_twice(files, argv, named=False):
    """Write `files` to a fresh directory and run argv on them twice; the
    run exits 0, 1 or 2, reports iff it exits 0, prints no traceback and
    reruns to the same bytes. With `named`, an exit 1 prints the path of
    the one input file. Returns its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(obj, fh)
        argv = [os.path.join(tmp, x) if x in files else x for x in argv]
        first = _run(argv)
        assert first[0] in (0, 1, 2)
        assert first == _run(argv)
        paths = [os.path.join(tmp, name) for name in files]
    code, out, err = first
    assert (code == 0) == bool(out) and "Traceback" not in err
    if named and code == 1:
        path, = paths
        assert path in err
    return code


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bigramsey_argv())
def test_bigramsey_exits_0_1_or_2_and_reruns_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mset_arrow_argv())
def test_arrow_check_on_msets_exits_0_1_or_2_and_reruns_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(validate_argv())
def test_validate_exits_0_1_or_2_and_rejects_booleans(case):
    files, argv, has_bool = case
    code = _run_twice(files, argv, named=True)
    assert code == 1 or not has_bool


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(degree_bound_argv())
def test_degree_bound_exits_0_1_or_2_and_rejects_degrees_below_1(case):
    files, argv, below_one, empty_big = case
    code = _run_twice(files, argv)
    assert code == 1 or not (below_one or empty_big)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chain_argv())
def test_validate_chain_exits_0_1_or_2_and_rejects_non_labels(case):
    files, argv, has_non_label = case
    code = _run_twice(files, argv, named=True)
    assert code == 1 or not has_non_label


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(forest_argv())
def test_forest_exits_0_1_or_2_and_rejects_non_labels(case):
    files, argv, has_non_label = case
    code = _run_twice(files, argv, named=True)
    assert code == 1 or not has_non_label


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(unary_argv())
@example(({"input.json": {"alphabet": ["f", "f"], "carrier": ["x", "y"],
                          "generator_actions": {"f": [1, 1]}}},
          ["validate", "--unary", "input.json"], True))
def test_validate_unary_exits_0_1_or_2_and_rejects_bad_fields(case):
    files, argv, bad = case
    code = _run_twice(files, argv, named=True)
    assert code == 1 or not bad


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(degree_probe_argv())
def test_degree_probe_exits_0_1_or_2_and_reruns_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(coalgebra_argv())
def test_forest_decode_exits_0_1_or_2_and_rejects_missing_fields(case):
    files, argv, missing = case
    code = _run_twice(files, argv, named=True)
    assert code == 1 or not missing


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chain_arrow_argv())
def test_arrow_check_on_chains_exits_0_1_or_2_and_reruns_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws_argv())
def test_laws_monoid_action_exits_0_1_or_2_and_reruns_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(laws_list_argv())
def test_laws_list_functors_exit_0_1_or_2_and_rerun_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(transport_argv())
def test_transport_exits_0_1_or_2_and_reruns_identically(case):
    _run_twice(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(forest_argv(validate=True))
def test_validate_forest_exits_0_1_or_2_and_rejects_non_labels(case):
    files, argv, has_non_label = case
    code = _run_twice(files, argv, named=True)
    assert code == 1 or not has_non_label


def _is_json_text(data):
    try:
        json.loads(data.decode("utf-8"))
    except ValueError:   # UnicodeDecodeError and JSONDecodeError alike
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FILE_OPTIONS)),
       st.one_of(st.binary(), st.text().map(str.encode))
       .filter(lambda data: not _is_json_text(data)))
def test_bytes_that_are_not_json_exit_1_naming_the_file_once(option, data):
    """Any file option given bytes that are not a UTF-8 JSON text, invalid
    UTF-8 included; the other inputs are valid."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = with_file(write_files(tmp), FILE_OPTIONS[option], path)
        code, out, err = _run(argv)
    assert code == 1 and not out
    assert err.startswith(f"input error: {path}: ") and err.count(path) == 1
    assert "Traceback" not in err
