"""File formats: what hydiag writes loads back, and malformed input is
rejected with ModelFormatError.

hydiag writes each file as one line of compact JSON; the loaders accept
any whitespace, so the same data indented loads back equal too.

One test replaces one JSON value of a valid file, at every position in
it, by values of every JSON type; another feeds arbitrary JSON documents
built from the schemas' key names.  Loading must then succeed or raise
the documented format or validation error, never anything else.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydiag.diagnoser import dumps_diagnoser, load_diagnoser, loads_diagnoser, synthesize
from hydiag.errors import ModelFormatError, TAValidationError
from hydiag.estimator import (
    _STATE_SCHEMA,
    _TRANSITION_SCHEMA,
    EstimatorGraph,
    _parse_graph_json,
    build_estimator,
    dumps_estimator,
)
from hydiag.oracle import random_models
from hydiag.quotient import (
    _ACTION_SCHEMA,
    _CLASS_SCHEMA,
    _EDGE_SCHEMA,
    _TIME_SCHEMA,
    _TYPE_NAMES,
    _require_keys,
    _rows,
    dumps_model,
    load_model,
    loads_model,
)
from hydiag.regions import load_ta, parse_ta, region_quotient

from .conftest import FIXTURES
from .helpers import q1_model, q2_model, q3_model


def loads_estimator(text):
    return EstimatorGraph(*_parse_graph_json(json.loads(text), "estimator"))


def fields(written):
    """What a file holds of a model or graph: all but the backing model."""
    if isinstance(written, EstimatorGraph):
        return {k: v for k, v in written._asdict().items() if k != "model"}
    return written


WRITERS = {
    "quotient": (lambda model: model, dumps_model, loads_model),
    "estimator": (build_estimator, dumps_estimator, loads_estimator),
    "diagnoser": (lambda model: synthesize(build_estimator(model)), dumps_diagnoser,
                  loads_diagnoser),
}
MODELS = [q1_model(), q2_model(), q3_model(), region_quotient(load_ta(FIXTURES / "ta1.ta.json")),
          *random_models(20, 0)]


@pytest.mark.parametrize("kind", WRITERS)
class TestWrittenFiles:
    def test_one_line(self, kind):
        build, dumps, _ = WRITERS[kind]
        for model in MODELS:
            text = dumps(build(model))
            assert text.count("\n") == 1 and text.endswith("\n")

    def test_loads_back_equal(self, kind):
        build, dumps, loads = WRITERS[kind]
        for model in MODELS:
            written = build(model)
            assert fields(loads(dumps(written))) == fields(written)

    def test_indented_loads_back_equal(self, kind):
        build, dumps, loads = WRITERS[kind]
        for model in MODELS:
            written = build(model)
            indented = json.dumps(json.loads(dumps(written)), indent=2) + "\n"
            assert indented.count("\n") > 1
            assert fields(loads(indented)) == fields(written)


VALUES = [5, -1, 10**30, 1.5, True, None, "x", "0", "x<1", [], [5], [[1]], {}, {"a": 1}]


def positions(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from positions(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from positions(item, path + (i,))


def replaced(data, path, value):
    if not path:
        return value
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def quotient_file():
    data = json.loads(dumps_model(q2_model()))
    data["time"] = [{"src": 2, "dst": 2}]
    return data


def automaton_file():
    return json.loads((FIXTURES / "ta1.ta.json").read_text())


def diagnoser_file():
    return json.loads(dumps_diagnoser(synthesize(build_estimator(q2_model()))))


@pytest.mark.parametrize(
    "data, load",
    [
        (quotient_file(), loads_model),
        (automaton_file(), parse_ta),
        (diagnoser_file(), loads_diagnoser),
    ],
    ids=["quotient", "automaton", "diagnoser"],
)
def test_every_replaced_value_loads_or_is_rejected(data, load):
    load(json.dumps(data))
    rejected = 0
    for path in positions(data):
        for value in VALUES:
            try:
                load(json.dumps(replaced(data, path, value)))
            except (ModelFormatError, TAValidationError):
                rejected += 1
    assert rejected > 0


# Objects carry one schema's exact key set, or arbitrary keys, so that
# documents get past the key checks and reach the loaders' deeper checks.
KEY_SETS = [
    ("classes", "actions", "edges", "time"),
    ("id", "faulty", "initial", "obs"),
    ("name", "kind"),
    ("src", "action", "dst"),
    ("src", "dst"),
    ("locations", "clocks", "edges", "observation"),
    ("name", "faulty", "initial", "invariant"),
    ("internal", "external"),
    ("src", "dst", "action", "kind", "guard", "resets"),
    ("id", "pred"),
    ("states", "initials", "transitions", "output"),
    ("id", "members", "class"),
    ("src", "action", "obs", "dst"),
]
STRINGS = ["external", "internal", "fault", "x", "x<1", "!(x<1)", "true", "tick",
           "faulty", "nonfaulty", "indeterminate", "yes", "no", "maybe"]
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(allow_nan=False)
    | st.sampled_from(STRINGS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.sampled_from(KEY_SETS).flatmap(
        lambda keys: st.fixed_dictionaries({k: inner for k in keys})
    )
    | st.dictionaries(st.sampled_from(["0", "1", "x"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=40,
)


@pytest.mark.parametrize(
    "load, keys",
    [(loads_model, KEY_SETS[0]), (parse_ta, KEY_SETS[5]), (loads_diagnoser, KEY_SETS[10])],
    ids=["quotient", "automaton", "diagnoser"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_documents_load_or_are_rejected(load, keys, data):
    doc = data.draw(JSON_DOCS | st.fixed_dictionaries({k: JSON_DOCS for k in keys}))
    try:
        load(json.dumps(doc))
    except (ModelFormatError, TAValidationError):
        pass


@pytest.mark.parametrize("load", [loads_model, parse_ta, loads_diagnoser],
                         ids=["quotient", "automaton", "diagnoser"])
def test_broken_json_gives_one_message(load):
    with pytest.raises(ModelFormatError) as info:
        load('{\n  "classes": [1,\n}')
    assert str(info.value) == "invalid JSON at line 3, column 1: Expecting value"


@pytest.mark.parametrize("load", [loads_model, parse_ta, loads_diagnoser],
                         ids=["quotient", "automaton", "diagnoser"])
@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000,
                                  '{"a":' * 100_000 + "1" + "}" * 100_000],
                         ids=["open", "closed", "objects"])
def test_deeply_nested_document_is_rejected(load, text):
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        load(text)


@pytest.mark.parametrize("load", [load_model, load_ta, load_diagnoser],
                         ids=["quotient", "automaton", "diagnoser"])
def test_file_that_is_not_utf8_is_rejected(load, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes("{}".encode("utf-16"))  # starts with the bytes ff fe
    with pytest.raises(ModelFormatError, match=re.escape(f"{path} is not UTF-8 text")):
        load(path)


@pytest.mark.parametrize("shift", [0, 1], ids=["same-target", "other-target"])
def test_repeated_transition_is_rejected(shift):
    data = diagnoser_file()
    first, n = data["transitions"][0], len(data["transitions"])
    data["transitions"].append({**first, "dst": (first["dst"] + shift) % len(data["states"])})
    with pytest.raises(ModelFormatError) as info:
        loads_diagnoser(json.dumps(data))
    assert str(info.value) == f"transitions[{n}] repeats the move of transitions[0]"


@pytest.mark.parametrize(
    "data, load, path, value, message",
    [
        (quotient_file(), loads_model, ("classes", 0, "faulty"), 1,
         "classes[0].faulty must be a boolean, got int"),
        (automaton_file(), parse_ta, ("locations", 0, "initial"), None,
         "locations[0].initial must be a boolean, got NoneType"),
        (diagnoser_file(), loads_diagnoser, ("transitions", 0, "obs"), "1",
         "transitions[0].obs must be an integer, got str"),
        (diagnoser_file(), loads_diagnoser, ("states", 0, "class"), "x",
         "states[0].class must be one of faulty|nonfaulty|indeterminate"),
        (automaton_file(), parse_ta, ("edges", 0, "kind"), "x",
         "edges[0].kind must be one of external|internal|fault"),
    ],
    ids=["quotient-bool", "automaton-bool", "diagnoser-int", "diagnoser-enum", "automaton-enum"],
)
def test_malformed_field_message(data, load, path, value, message):
    with pytest.raises(ModelFormatError) as info:
        load(json.dumps(replaced(data, path, value)))
    assert str(info.value) == message


def reference_rows(value, what, schema):
    """``_rows`` as one pass over the rows, checking each row's keys and
    then its values in schema order, and raising at the first bad one."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a list, got {type(value).__name__}")
    rows = []
    for i, obj in enumerate(value):
        _require_keys(obj, schema.keys(), f"{what}[{i}]")
        for key, expected in schema.items():
            if type(obj[key]) is not expected:
                raise ModelFormatError(
                    f"{what}[{i}].{key} must be {_TYPE_NAMES[expected]}, "
                    f"got {type(obj[key]).__name__}"
                )
        rows.append(tuple(obj[key] for key in schema))
    return rows


def outcome(rows, *args):
    try:
        return rows(*args)
    except ModelFormatError as e:
        return str(e)


ROW_LISTS = [
    (quotient_file()["classes"], "classes", _CLASS_SCHEMA),
    (quotient_file()["actions"], "actions", _ACTION_SCHEMA),
    (quotient_file()["edges"], "edges", _EDGE_SCHEMA),
    (quotient_file()["time"], "time", _TIME_SCHEMA),
    (diagnoser_file()["states"], "states", _STATE_SCHEMA),
    (diagnoser_file()["transitions"], "transitions", _TRANSITION_SCHEMA),
]


@pytest.mark.parametrize("objs, what, schema", ROW_LISTS, ids=[r[1] for r in ROW_LISTS])
def test_rows_check_in_bulk_as_row_by_row(objs, what, schema):
    """The bulk checks of ``_rows`` pass exactly the lists a row-by-row scan
    passes, and a failing list gets the row-by-row message of its first
    bad row."""
    key = next(iter(schema))
    broken = [[], {}, "x", None]  # no rows, and rows that are not lists
    for i, obj in enumerate(objs):
        for value in [*VALUES, 0.0, False]:
            broken.append(replaced(objs, (i, key), value))
            broken.append(replaced(objs, (i, list(schema)[-1]), value))
            broken.append(replaced(objs, (i,), value))
        renamed = {("x" if k == key else k): v for k, v in obj.items()}
        for row in [renamed, {**obj, "x": 1}, {k: v for k, v in obj.items() if k != key}]:
            broken.append(replaced(objs, (i,), row))
    # Two bad rows: the first one is reported.
    broken.append(replaced(objs + [None], (0, key), None))
    assert outcome(_rows, objs, what, schema) == reference_rows(objs, what, schema)
    for value in broken:
        assert outcome(_rows, value, what, schema) == outcome(reference_rows, value, what, schema)
