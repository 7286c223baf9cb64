"""The report writer lays a report out byte for byte as
json.dumps(report, indent=2, sort_keys=True) does, and the loaders
refuse what their formats rule out."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from msetramsey.errors import InputError
from msetramsey.io import dump_report, load_unary_algebra

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40), st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf,
                     2 ** 70]),
    st.text(),
    st.sampled_from(["é", "日本", "\U0001f600", "\ud800", "\x00\x1f\x7f",
                     '"\\/', "\b\f\n\r\t", "\u2028"]))


def _containers(children):
    """Lists, tuples and dicts whose keys sort against each other, as
    json.dumps sorts keys before it coerces them to strings."""
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.one_of(st.booleans(), st.integers(), st.floats()),
                        children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1))


REPORTS = st.recursive(SCALARS, _containers, max_leaves=25)


def _dump(report):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        text = dump_report(report)
    assert out.getvalue() == text
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(REPORTS)
def test_dump_report_writes_the_json_dumps_bytes(report):
    assert _dump(report) == json.dumps(report, indent=2,
                                       sort_keys=True) + "\n"


@pytest.mark.parametrize("report", [
    {"a": {1, 2}}, [object()], {(1, 2): 0}, {"a": 0, 1: 0},
], ids=["set", "object", "tuple-key", "mixed-keys"])
def test_dump_report_rejects_what_json_dumps_rejects(report):
    with pytest.raises(TypeError) as want:
        json.dumps(report, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _dump(report)
    assert str(got.value) == str(want.value)


def test_unary_loader_rejects_a_repeated_alphabet_symbol(tmp_path):
    path = tmp_path / "unary.json"
    unary = {"alphabet": ["f", "g"], "carrier": ["x", "y"],
             "generator_actions": {"f": [1, 1], "g": [0, 0]}}
    path.write_text(json.dumps(unary))
    assert load_unary_algebra(str(path)).alphabet == ("f", "g")
    path.write_text(json.dumps(dict(unary, alphabet=["f", "g", "f"])))
    with pytest.raises(InputError, match="field 'alphabet' holds 'f' and "
                                         "'f', which are equal labels"):
        load_unary_algebra(str(path))
