"""JSON file formats for monoids, M-sets, chains, forests and colorings.

Formats:
  monoid: { "size": n, "identity": i, "table": [[...]], "well_order": [...]? }
  mset:   { "monoid": <monoid object or path string>, "carrier": [...],
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
witness-carrying errors as programmatic construction, with the file's
path put before the message.
"""

import hashlib
import json
import os

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


def _in_file(exc, where):
    """Put `where` before the message of `exc`, an InputError a validator
    raised on a file's contents, and return `exc` to be raised again."""
    exc.args = (f"{where}: {exc}",)
    return exc


def _require(data, field, where, array=False):
    if not isinstance(data, dict) or field not in data:
        raise InputError(f"{where}: missing field {field!r}")
    if array and not isinstance(data[field], list):
        raise InputError(f"{where}: field {field!r} is not a JSON array")
    return data[field]


def _is_int(x):
    # bool is a subclass of int, but true and false are not ints in a file
    return type(x) is int


def _is_label(x):
    # a label is a JSON scalar: a string, a number, true, false or null
    return x is None or isinstance(x, (str, int, float))


def _require_labels(labels, field, where):
    """InputError on the first of `labels`, read from `field`, that is not
    a label."""
    for x in labels:
        if not _is_label(x):
            raise InputError(f"{where}: field {field!r} holds {x!r}, which "
                             "is not a JSON scalar label")


def _require_distinct(labels, what, where):
    """InputError on the first two of `labels`, read from `what`, that
    Python holds equal."""
    first = {}
    for x in labels:
        if x in first:
            raise InputError(f"{where}: {what} holds {first[x]!r} and {x!r}, "
                             "which are equal labels")
        first[x] = x


def _require_carrier(carrier, where):
    """InputError unless `carrier` holds distinct labels."""
    _require_labels(carrier, "carrier", where)
    _require_distinct(carrier, "field 'carrier'", where)


def _int_rows(rows):
    return all(isinstance(row, list) and all(map(_is_int, row))
               for row in rows)


def _require_table(data, field, where):
    """A field that holds a JSON array of arrays of ints."""
    table = _require(data, field, where, array=True)
    if not _int_rows(table):
        raise InputError(
            f"{where}: field {field!r} is not a JSON array of int arrays")
    return table


def monoid_from_json(data, where="monoid"):
    if isinstance(data, str):
        return monoid_from_json(load_json(data), where=data)
    size = _require(data, "size", where)
    table = _require_table(data, "table", where)
    identity = _require(data, "identity", where)
    for name, value in (("size", size), ("identity", identity)):
        if not _is_int(value):
            raise InputError(f"{where}: field {name!r} is not an int")
    well_order = data.get("well_order")
    if well_order is not None and not _int_rows([well_order]):
        raise InputError(
            f"{where}: field 'well_order' is not a JSON array of ints")
    try:
        return validate_monoid(size, table, identity, well_order)
    except InputError as exc:
        raise _in_file(exc, where)


def load_monoid(path):
    return monoid_from_json(load_json(path), where=path)


def mset_from_json(data, where="mset", base_dir="."):
    monoid = _require(data, "monoid", where)
    if isinstance(monoid, str):
        monoid = os.path.join(base_dir, monoid)
    monoid = monoid_from_json(monoid, where=f"{where}.monoid")
    carrier = tuple(_require(data, "carrier", where, array=True))
    _require_carrier(carrier, where)
    action = _require_table(data, "action", where)
    try:
        return validate_mset(monoid, carrier, action, data.get("order"))
    except InputError as exc:
        raise _in_file(exc, where)


def load_mset(path):
    return mset_from_json(load_json(path), where=path,
                          base_dir=os.path.dirname(path) or ".")


def unary_algebra_from_json(data, where="unary algebra"):
    alphabet = tuple(_require(data, "alphabet", where, array=True))
    _require_labels(alphabet, "alphabet", where)
    if "order" in data:
        raise InputError(f"{where}: field 'order' is not part of the unary "
                         "algebra format")
    rows = _require(data, "generator_actions", where)
    if not isinstance(rows, dict) or not _int_rows(rows.values()):
        raise InputError(f"{where}: field 'generator_actions' is not a "
                         "JSON object of int arrays")
    actions = {s: tuple(row) for s, row in rows.items()}
    if not actions:
        raise InputError(f"{where}: no generator actions")
    carrier = data.get("carrier")
    if carrier is None:
        carrier = list(range(len(next(iter(actions.values())))))
    elif not isinstance(carrier, list):
        raise InputError(f"{where}: field 'carrier' is not a JSON array")
    _require_carrier(carrier, where)
    try:
        return UnaryAlgebra(alphabet, tuple(carrier), actions)
    except InputError as exc:
        raise _in_file(exc, where)


def load_unary_algebra(path):
    return unary_algebra_from_json(load_json(path), where=path)


def chain_from_json(data, where="chain"):
    if not isinstance(data, list):
        raise InputError(f"{where}: a chain file is a JSON array")
    for x in data:   # a flat array of scalars is one label, read as a tuple
        if not (_is_label(x)
                or isinstance(x, list) and all(map(_is_label, x))):
            raise InputError(f"{where}: chain label {x!r} is neither a JSON "
                             "scalar nor a JSON array of scalars")
    labels = tuple(tuple(x) if isinstance(x, list) else x for x in data)
    _require_distinct(labels, "the chain", where)
    return Chain(labels)


def load_chain(path):
    return chain_from_json(load_json(path), where=path)


def forest_from_json(data, where="forest"):
    carrier = tuple(_require(data, "carrier", where, array=True))
    _require_carrier(carrier, where)
    parent_map = _require(data, "parent", where)
    if not isinstance(parent_map, dict):
        raise InputError(f"{where}: parent is a JSON object")
    _require_labels(parent_map.values(), "parent", where)
    index = {}   # JSON object keys are strings, so labels are keyed by str()
    for i, x in enumerate(carrier):
        if str(x) in index:
            raise InputError(
                f"{where}: carrier labels {carrier[index[str(x)]]!r} and "
                f"{x!r} have the same JSON key {str(x)!r}")
        index[str(x)] = i
    parent = []
    for x in carrier:
        key = str(x)
        if key not in parent_map:
            raise InputError(f"{where}: no parent for element {x!r}")
        if str(parent_map[key]) not in index:
            raise InputError(f"{where}: parent {parent_map[key]!r} of "
                             f"{x!r} is not in the carrier")
        parent.append(index[str(parent_map[key])])
    order = data.get("order")
    try:
        if order is not None:
            order = order_positions(carrier, order)
        return make_forest(carrier, parent, order)
    except InputError as exc:
        raise _in_file(exc, where)


def load_forest(path):
    return forest_from_json(load_json(path), where=path)


def load_coalgebra_forest(path):
    """The forest that a coalgebra file (a forest's encoding) decodes to."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: a coalgebra file is a JSON object")
    carrier = _require(data, "carrier", path)
    structure = _require(data, "structure", path)
    if not isinstance(carrier, list) or not isinstance(structure, list) \
            or any(not isinstance(v, list) for v in structure):
        raise InputError(f"{path}: the carrier is a JSON array and the "
                         "structure is a JSON array of root paths")
    _require_carrier(carrier, path)
    for v in structure:
        _require_labels(v, "structure", path)
    if len(carrier) != len(structure):
        raise InputError(f"{path}: carrier and structure sizes differ")
    carrier = tuple(carrier)
    order = data.get("order")
    coalg = Coalgebra(DistinctListFunctor(), carrier,
                      tuple(tuple(v) for v in structure))
    try:
        if order is not None:
            order = order_positions(carrier, order)
        return decode_coalgebra(coalg, order)
    except InputError as exc:
        raise _in_file(exc, path)


def load_coloring(path):
    data = load_json(path)
    if not _int_rows([data]):
        raise InputError(f"{path}: a coloring file is a JSON array of ints")
    return tuple(data)


def load_degrees(path):
    """The ordered degrees file: order key -> degree (None if unknown)."""
    entries = load_json(path)
    if not isinstance(entries, list):
        raise InputError(f"{path}: the degrees file is a JSON array of "
                         '{"order": [int, ...], "degree": n} objects')
    degrees = {}
    for entry in entries:
        if not (isinstance(entry, dict)
                and _int_rows([entry.get("order")])
                and "degree" in entry
                and (entry["degree"] is None
                     or _is_int(entry["degree"]) and entry["degree"] >= 1)):
            raise InputError(f"{path}: entry {entry!r} is not an "
                             '{"order": [int, ...], "degree": n} object')
        degrees[tuple(entry["order"])] = entry["degree"]
    return degrees


def dump_report(report, out=None):
    """Serialize a report deterministically (sorted keys, fixed layout)."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        print(text, end="")
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return text
