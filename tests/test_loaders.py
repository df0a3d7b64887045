"""Every file format rejects malformed input with ModelFormatError.

Each test replaces one JSON value of a valid file, at every position in
it, by values of every JSON type; loading must then succeed or raise the
documented format or validation error, never anything else.
"""

import json

import pytest

from hydiag.diagnoser import dumps_diagnoser, loads_diagnoser, synthesize
from hydiag.errors import ModelFormatError, TAValidationError
from hydiag.estimator import build_estimator
from hydiag.quotient import dumps_model, loads_model
from hydiag.regions import parse_ta

from .conftest import FIXTURES
from .helpers import q2_model

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


def diagnoser_file():
    return json.loads(dumps_diagnoser(synthesize(build_estimator(q2_model()))))


@pytest.mark.parametrize(
    "data, load",
    [
        (quotient_file(), loads_model),
        (json.loads((FIXTURES / "ta1.ta.json").read_text()), parse_ta),
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
