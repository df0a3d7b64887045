"""File formats: what hydiag writes loads back, and malformed input is
rejected with ModelFormatError.

hydiag writes each file as one line of compact JSON; the loaders accept
any whitespace, so the same data indented loads back equal too.

One test replaces one JSON value of a valid file, at every position in
it, by values of every JSON type; another feeds arbitrary JSON documents
built from the schemas' key names.  Loading must then succeed or raise
the documented format or validation error, never anything else.
"""

import functools
import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydiag.diagnoser import dumps_diagnoser, load_diagnoser, loads_diagnoser, synthesize
from hydiag.errors import ModelFormatError, TAValidationError
from hydiag.estimator import EstimatorGraph, build_estimator, dumps_estimator
from hydiag.fileformat import (
    _STATE_SCHEMA,
    _TRANSITION_SCHEMA,
    _TYPE_NAMES,
    _parse_graph_json,
    _require_keys,
    _rows,
)
from hydiag.oracle import random_model, random_models
from hydiag.quotient import (
    _ACTION_SCHEMA,
    _CLASS_SCHEMA,
    _EDGE_SCHEMA,
    _TIME_SCHEMA,
    ActionLabel,
    ClassInfo,
    QuotientModel,
    dumps_model,
    load_model,
    loads_model,
)
from hydiag.regions import load_ta, parse_ta, region_quotient

from .conftest import FIXTURES
from .helpers import (
    ROW_KEYS,
    array_path,
    benchmark_families,
    legacy_diagnoser_data,
    q1_model,
    q2_model,
    q3_model,
    random_progressive_ta,
    reference_dumps_estimator,
    reference_dumps_model,
    reference_parse_graph_json,
    spelled_as_objects,
)


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
    data["time"] = [[2, 2]]
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
    (src, action, obs, dst), n = data["transitions"][0], len(data["transitions"])
    data["transitions"].append([src, action, obs, (dst + shift) % len(data["states"])])
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
    """A written file's rows are arrays, and the message names the key of
    the bad value all the same; in the rows of earlier versions' files,
    objects, the key is the one that holds it."""
    cases = [(data, path)]
    if load is not parse_ta:
        cases = [(data, array_path(path)), (spelled_as_objects(data), path)]
    for spelled, at in cases:
        with pytest.raises(ModelFormatError) as info:
            load(json.dumps(replaced(spelled, at, value)))
        assert str(info.value) == message


@pytest.mark.parametrize(
    "table, row, message",
    [
        ("edges", [0, "tick"], "edges[0] must have 3 values, got 2"),
        ("edges", [0, "tick", 1, 1], "edges[0] must have 3 values, got 4"),
        ("time", [], "time[0] must have 2 values, got 0"),
        ("classes", 5, "classes[0] must be an object or an array, got int"),
        ("classes", "x", "classes[0] must be an object or an array, got str"),
    ],
)
def test_row_of_the_wrong_shape_message(table, row, message):
    data = quotient_file()
    for spelled in (data, spelled_as_objects(data)):
        with pytest.raises(ModelFormatError) as info:
            loads_model(json.dumps(replaced(spelled, (table, 0), row)))
        assert str(info.value) == message


SPELLING_MODELS = [
    *(loads_model((FIXTURES / f"{name}.quot.json").read_text()) for name in ("q1", "q2", "bad-d1")),
    *(region_quotient(load_ta(FIXTURES / f"{name}.ta.json")) for name in ("ta1", "kclock2")),
    *random_models(150, 0),
    *random_models(150, 1),
]


@pytest.mark.parametrize("kind", WRITERS)
def test_rows_spelled_as_objects_load_equal(kind):
    """A file whose rows are spelled as objects, as earlier versions wrote
    them, all or every other one, loads as the file written now does."""
    build, dumps, loads = WRITERS[kind]
    for model in SPELLING_MODELS:
        written = build(model)
        data = json.loads(dumps(written))
        assert all(type(row) is list for table in ROW_KEYS for row in data.get(table, ()))
        assert fields(loads(dumps(written))) == fields(written)
        for which in (lambda i: True, lambda i: i % 2 == 1):
            spelled = spelled_as_objects(data, which)
            assert fields(loads(json.dumps(spelled))) == fields(written)


def test_automaton_rows_as_arrays_load_equal():
    """A timed automaton's rows may be arrays too, in the key order of its
    objects, as every loader reads rows."""
    for name in ("ta1", "kclock2"):
        data = json.loads((FIXTURES / f"{name}.ta.json").read_text())
        arrays = {k: [list(row.values()) for row in v] if isinstance(v, list) else v
                  for k, v in data.items()}
        assert arrays["locations"][0][0] == data["locations"][0]["name"]
        assert dumps_model(region_quotient(parse_ta(json.dumps(arrays)))) == dumps_model(
            region_quotient(parse_ta(json.dumps(data)))
        )


def reference_rows(value, what, schema):
    """``_rows`` as one pass over the rows, checking each row's length or
    keys and then its values in schema order, and raising at the first
    bad one."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a list, got {type(value).__name__}")
    rows = []
    for i, obj in enumerate(value):
        if isinstance(obj, list):
            if len(obj) != len(schema):
                raise ModelFormatError(f"{what}[{i}] must have {len(schema)} values, got {len(obj)}")
            obj = dict(zip(schema, obj))
        elif not isinstance(obj, dict):
            raise ModelFormatError(
                f"{what}[{i}] must be an object or an array, got {type(obj).__name__}"
            )
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
        return list(map(tuple, rows(*args)))
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


@pytest.mark.parametrize("arrays, what, schema", ROW_LISTS, ids=[r[1] for r in ROW_LISTS])
def test_rows_check_in_bulk_as_row_by_row(arrays, what, schema):
    """The bulk checks of ``_rows`` pass exactly the lists a row-by-row scan
    passes, with rows spelled as arrays, as objects or mixed, and a
    failing list gets the row-by-row message of its first bad row."""
    keys = list(schema)
    objs = [dict(zip(keys, row)) for row in arrays]
    mixed = [obj if i % 2 else row for i, (row, obj) in enumerate(zip(arrays, objs))]
    broken = [[], {}, "x", None]  # no rows, and rows that are not lists
    for rows, first, last in [(arrays, 0, -1), (objs, keys[0], keys[-1])]:
        for i in range(len(rows)):
            for value in [*VALUES, 0.0, False]:
                broken.append(replaced(rows, (i, first), value))
                broken.append(replaced(rows, (i, last), value))
                broken.append(replaced(rows, (i,), value))
        # Two bad rows: the first one is reported.
        broken.append(replaced(rows + [None], (0, first), None))
    for i, (row, obj) in enumerate(zip(arrays, objs)):
        renamed = {("x" if k == keys[0] else k): v for k, v in obj.items()}
        for bad in [renamed, {**obj, "x": 1}, {k: v for k, v in obj.items() if k != keys[0]},
                    row[1:], [*row, 1]]:
            broken.append(replaced(arrays, (i,), bad))
            broken.append(replaced(objs, (i,), bad))
    for rows in (arrays, objs, mixed):
        assert outcome(_rows, rows, what, schema) == reference_rows(arrays, what, schema)
    for value in broken:
        assert outcome(_rows, value, what, schema) == outcome(reference_rows, value, what, schema)


# Diagnoser files: the fixtures' and the benchmark's kclock_ta(3, 4), whose
# 1,383 states and 6,121 transitions are the largest a workload loads.
GRAPH_FILES = ["q1", "q2", "ta1", "kclock2", "kclock_ta(3,4)"]


@functools.cache
def graph_file(name):
    if name == "kclock_ta(3,4)":
        model = region_quotient(parse_ta(json.dumps(benchmark_families().kclock_ta(3, 4))))
    elif name.startswith("q"):
        model = loads_model((FIXTURES / f"{name}.quot.json").read_text())
    else:
        model = region_quotient(load_ta(FIXTURES / f"{name}.ta.json"))
    return legacy_diagnoser_data(json.loads(dumps_diagnoser(synthesize(build_estimator(model)))))


def edited(data, table, row, fields):
    """``data`` with the values of ``fields``, a map of keys, in one row of
    ``table``, spelled as the row is."""
    rows = list(data[table])
    if type(rows[row]) is dict:
        rows[row] = {**rows[row], **fields}
    else:
        rows[row] = [fields.get(key, value) for key, value in zip(ROW_KEYS[table], rows[row])]
    return {**data, table: rows}


def graph_edits(data):
    """Copies of ``data`` with one or two rows broken past the type checks:
    each edit alone at the first and the last row, and each ordered pair
    of different edits at two rows, in both orders."""
    n, moves = len(data["states"]), spelled_as_objects(data)["transitions"]
    edits = {
        "states": [lambda i: {"id": i + 1}, lambda i: {"members": [0, True]},
                   lambda i: {"class": "x"}],
        "transitions": [lambda i: {"src": n}, lambda i: {"dst": -1},
                        lambda i: moves[i - 1]],  # repeats the move of the row before
    }
    for table, table_edits in edits.items():
        last = len(data[table]) - 1
        for edit, row in itertools.product(table_edits, {0, last}):
            yield edited(data, table, row, edit(row))
        if last < 2:
            continue
        for (first, second), (a, b) in itertools.product(
            itertools.permutations(table_edits, 2), [(1, last), (last, 1)]
        ):
            yield edited(edited(data, table, a, first(a)), table, b, second(b))


def graph_outcome(parse, data):
    try:
        states, initials, transitions = parse(data, "diagnoser", {"output"})
    except ModelFormatError as e:
        return str(e)
    return states, initials, list(transitions.items())


@pytest.mark.parametrize("name", GRAPH_FILES)
def test_graph_loader_checks_in_bulk_as_row_by_row(name):
    """``_parse_graph_json`` loads a good file as the row-by-row loader
    does, and gives a broken one the message of its first bad row, with
    its rows spelled as arrays or as objects.  The file is a diagnoser
    file as earlier versions wrote it, ``output`` included."""
    written = graph_file(name)
    loaded = graph_outcome(_parse_graph_json, written)
    assert len(loaded[0]) == len(written["states"])
    assert len(loaded[2]) == len(written["transitions"])
    for data in (written, spelled_as_objects(written)):
        assert graph_outcome(_parse_graph_json, data) == loaded
        assert graph_outcome(reference_parse_graph_json, data) == loaded
        broken = list(graph_edits(data))
        assert len(broken) >= 12
        for case in broken:
            message = graph_outcome(_parse_graph_json, case)
            assert isinstance(message, str)
            assert message == graph_outcome(reference_parse_graph_json, case)


# Action names the file writers must escape as the json module does.
AWKWARD_NAMES = ['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\t", "é", "\u2028", "☃",
                 "\U0001f600", "\ud800", "%s", "%"]
NAME_CHARS = st.one_of(st.characters(), st.sampled_from("".join(AWKWARD_NAMES)))


def with_names(model, names, int_flags):
    """``model`` with its actions renamed to ``names``, and with class 0's
    flags as ints when ``int_flags``."""
    label = {a.name: ActionLabel(new, a.kind) for a, new in zip(model.actions, names)}
    classes = list(model.classes)
    if int_flags:
        c = classes[0]
        classes[0] = ClassInfo(c.id, int(c.faulty), int(c.initial), c.obs)
    edges = [(src, label[a.name], dst) for src, a, dst in model.edges]
    return QuotientModel(classes, label.values(), edges, model.time)


def assert_written_as_the_json_encoder(model):
    est = build_estimator(model)
    assert dumps_model(model) == reference_dumps_model(model)
    assert dumps_estimator(est) == reference_dumps_estimator(est)
    assert dumps_diagnoser(synthesize(est)) == reference_dumps_estimator(est)


@pytest.mark.parametrize("int_flags", [False, True])
def test_writers_escape_as_the_json_encoder(int_flags):
    for model in [q1_model(), q2_model(), region_quotient(load_ta(FIXTURES / "kclock2.ta.json"))]:
        names = [AWKWARD_NAMES[i] * (i + 1) for i in range(len(model.actions))]
        assert_written_as_the_json_encoder(with_names(model, names, int_flags))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_writers_write_as_the_json_encoder(data):
    """Every file hydiag writes is what ``json.dumps`` writes for the same
    data: on random models and random timed automata's region quotients,
    with arbitrary action names and, on some, int flags."""
    if data.draw(st.booleans(), label="region quotient"):
        model = region_quotient(random_progressive_ta(data.draw(st.integers(0, 99), label="ta")))
    else:
        model = random_model(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    names = data.draw(
        st.lists(st.text(NAME_CHARS, max_size=6), min_size=len(model.actions),
                 max_size=len(model.actions), unique=True),
        label="names",
    )
    assert_written_as_the_json_encoder(with_names(model, names, data.draw(st.booleans())))
