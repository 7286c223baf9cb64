"""JSON file formats for monoids, M-sets, chains, forests and colorings.

Formats:
  monoid: { "size": n, "identity": i, "table": [[...]], "well_order": [...]? }
  mset:   { "monoid": <monoid object>, "carrier": [...],
            "action": [[...]], "order": [...]? }
  unary algebra: { "alphabet": [...], "carrier": [...]?,
                   "generator_actions": { "f": [...] } }
  chain:  [label, label, ...]
  forest: { "carrier": [...], "parent": {label: label}, "order": [...]? }
  coalgebra (a forest's): { "carrier": [...], "structure": [[label, ...]],
                            "order": [...]? }, one root path per element
  coloring: [int, int, ...]
  degrees: [ { "order": [int, ...], "degree": int >= 1 or null }, ... ]

Labels are JSON scalars, used as-is (a chain label may also be a flat
array of scalars, read as a tuple); every loader rejects any other
carrier label, and any two carrier labels Python holds equal, such as
"a" and "a", 1 and true, or 1 and 1.0. Every loader routes through the
corresponding validator so malformed files surface the same
witness-carrying errors as programmatic construction. An M-set's monoid
is an inline object, so that every file a verdict reads is one that the
report hashes. `naming` is the one place that puts a file's path before
an error on its contents, for each load_x = _from_file(parser) and the CLI.

`dump_report` writes the bytes of json.dumps(report, indent=2,
sort_keys=True) and a newline. It lays them out itself, since with an
indent json runs its pure-Python encoder, which takes 1.4-1.6x as long
on the benchmark's reports (CPython 3.11).
"""

import contextlib
import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _encode_string

from .chains import Chain
from .comonad import Coalgebra, DistinctListFunctor
from .errors import InputError
from .forests import decode_coalgebra, make_forest
from .monoid import validate_monoid
from .mset import UnaryAlgebra, order_positions, validate_mset


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


@contextlib.contextmanager
def naming(path, error=InputError):
    """Put `path` before the message of an `error` raised inside."""
    try:
        yield
    except error as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _from_file(parse):
    """load_x(path): `parse` run on the file's JSON data, under `naming`."""
    def load(path):
        data = load_json(path)
        with naming(path):
            return parse(data)
    return load


def _require(data, field, array=False):
    if not isinstance(data, dict) or field not in data:
        raise InputError(f"missing field {field!r}")
    if array and not isinstance(data[field], list):
        raise InputError(f"field {field!r} is not a JSON array")
    return data[field]


def _is_int(x):
    # bool is a subclass of int, but true and false are not ints in a file
    return type(x) is int


def _is_label(x):
    # a label is a JSON scalar: a string, a number, true, false or null
    return x is None or isinstance(x, (str, int, float))


def _require_labels(labels, field):
    """InputError on the first of `labels`, read from `field`, that is not
    a label."""
    for x in labels:
        if not _is_label(x):
            raise InputError(f"field {field!r} holds {x!r}, which is not a "
                             "JSON scalar label")


def _require_distinct(labels, what):
    """InputError on the first two of `labels`, read from `what`, that
    Python holds equal."""
    first = {}
    for x in labels:
        if x in first:
            raise InputError(f"{what} holds {first[x]!r} and {x!r}, which "
                             "are equal labels")
        first[x] = x


def _require_carrier(carrier):
    """InputError unless `carrier` holds distinct labels."""
    _require_labels(carrier, "carrier")
    _require_distinct(carrier, "field 'carrier'")


def _int_rows(rows):
    return all(isinstance(row, list) and all(map(_is_int, row))
               for row in rows)


def _require_table(data, field):
    """A field that holds a JSON array of arrays of ints."""
    table = _require(data, field, array=True)
    if not _int_rows(table):
        raise InputError(f"field {field!r} is not a JSON array of int arrays")
    return table


def _monoid(data):
    size = _require(data, "size")
    table = _require_table(data, "table")
    identity = _require(data, "identity")
    for name, value in (("size", size), ("identity", identity)):
        if not _is_int(value):
            raise InputError(f"field {name!r} is not an int")
    well_order = data.get("well_order")
    if well_order is not None and not _int_rows([well_order]):
        raise InputError("field 'well_order' is not a JSON array of ints")
    return validate_monoid(size, table, identity, well_order)


def _mset(data):
    monoid = _require(data, "monoid")
    if not isinstance(monoid, dict):
        raise InputError("field 'monoid' is not a JSON object")
    monoid = _monoid(monoid)
    carrier = tuple(_require(data, "carrier", array=True))
    _require_carrier(carrier)
    action = _require_table(data, "action")
    return validate_mset(monoid, carrier, action, data.get("order"))


def _unary_algebra(data):
    alphabet = tuple(_require(data, "alphabet", array=True))
    _require_labels(alphabet, "alphabet")
    if "order" in data:
        raise InputError("field 'order' is not part of the unary algebra "
                         "format")
    rows = _require(data, "generator_actions")
    if not isinstance(rows, dict) or not _int_rows(rows.values()):
        raise InputError("field 'generator_actions' is not a JSON object of "
                         "int arrays")
    actions = {s: tuple(row) for s, row in rows.items()}
    if not actions:
        raise InputError("no generator actions")
    carrier = data.get("carrier")
    if carrier is None:
        carrier = list(range(len(next(iter(actions.values())))))
    elif not isinstance(carrier, list):
        raise InputError("field 'carrier' is not a JSON array")
    _require_carrier(carrier)
    return UnaryAlgebra(alphabet, tuple(carrier), actions)


def _chain(data):
    if not isinstance(data, list):
        raise InputError("a chain file is a JSON array")
    for x in data:   # a flat array of scalars is one label, read as a tuple
        if not (_is_label(x)
                or isinstance(x, list) and all(map(_is_label, x))):
            raise InputError(f"chain label {x!r} is neither a JSON scalar "
                             "nor a JSON array of scalars")
    labels = tuple(tuple(x) if isinstance(x, list) else x for x in data)
    _require_distinct(labels, "the chain")
    return Chain(labels)


def _forest(data):
    carrier = tuple(_require(data, "carrier", array=True))
    _require_carrier(carrier)
    parent_map = _require(data, "parent")
    if not isinstance(parent_map, dict):
        raise InputError("parent is a JSON object")
    _require_labels(parent_map.values(), "parent")
    index = {}   # JSON object keys are strings, so labels are keyed by str()
    for i, x in enumerate(carrier):
        if str(x) in index:
            raise InputError(
                f"carrier labels {carrier[index[str(x)]]!r} and {x!r} have "
                f"the same JSON key {str(x)!r}")
        index[str(x)] = i
    parent = []
    for x in carrier:
        key = str(x)
        if key not in parent_map:
            raise InputError(f"no parent for element {x!r}")
        if str(parent_map[key]) not in index:
            raise InputError(f"parent {parent_map[key]!r} of {x!r} is not in "
                             "the carrier")
        parent.append(index[str(parent_map[key])])
    order = data.get("order")
    if order is not None:
        order = order_positions(carrier, order)
    return make_forest(carrier, parent, order)


def _coalgebra_forest(data):
    """The forest that a coalgebra file (a forest's encoding) decodes to."""
    if not isinstance(data, dict):
        raise InputError("a coalgebra file is a JSON object")
    carrier = _require(data, "carrier")
    structure = _require(data, "structure")
    if not isinstance(carrier, list) or not isinstance(structure, list) \
            or any(not isinstance(v, list) for v in structure):
        raise InputError("the carrier is a JSON array and the structure is "
                         "a JSON array of root paths")
    _require_carrier(carrier)
    for v in structure:
        _require_labels(v, "structure")
    if len(carrier) != len(structure):
        raise InputError("carrier and structure sizes differ")
    carrier = tuple(carrier)
    order = data.get("order")
    coalg = Coalgebra(DistinctListFunctor(), carrier,
                      tuple(tuple(v) for v in structure))
    if order is not None:
        order = order_positions(carrier, order)
    return decode_coalgebra(coalg, order)


def _coloring(data):
    if not _int_rows([data]):
        raise InputError("a coloring file is a JSON array of ints")
    return tuple(data)


def _degrees(entries):
    """The ordered degrees file: order key -> degree (None if unknown)."""
    if not isinstance(entries, list):
        raise InputError('the degrees file is a JSON array of {"order": '
                         '[int, ...], "degree": n} objects')
    degrees = {}
    for entry in entries:
        if not (isinstance(entry, dict)
                and _int_rows([entry.get("order")])
                and "degree" in entry
                and (entry["degree"] is None
                     or _is_int(entry["degree"]) and entry["degree"] >= 1)):
            raise InputError(f"entry {entry!r} is not an "
                             '{"order": [int, ...], "degree": n} object')
        degrees[tuple(entry["order"])] = entry["degree"]
    return degrees


load_monoid = _from_file(_monoid)
load_mset = _from_file(_mset)
load_unary_algebra = _from_file(_unary_algebra)
load_chain = _from_file(_chain)
load_forest = _from_file(_forest)
load_coalgebra_forest = _from_file(_coalgebra_forest)
load_coloring = _from_file(_coloring)
load_degrees = _from_file(_degrees)


def _key(key):
    """A dict key as json.dumps writes it: a scalar key as a string."""
    if isinstance(key, str):
        return _encode_string(key)
    if isinstance(key, (int, float)) or key is None:
        return _encode_string(_layout(key, ""))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _layout(value, indent):
    """`value` as json.dumps(value, indent=2, sort_keys=True) writes it,
    where `indent` is the line break and the spaces that start each line
    at `value`'s depth. The types are tried in json's order."""
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join(
            [_layout(v, inner) for v in value]) + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return ("{" + inner + ("," + inner).join(
            [_key(k) + ": " + _layout(v, inner)
             for k, v in sorted(value.items())]) + indent + "}")
    raise TypeError(f"Object of type {value.__class__.__name__} is not "
                    "JSON serializable")


def dump_report(report, out=None):
    """Write and return json.dumps(report, indent=2, sort_keys=True) and
    a newline, to stdout or to the file `out`."""
    text = _layout(report, "\n") + "\n"
    if out is None:
        print(text, end="")
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return text
