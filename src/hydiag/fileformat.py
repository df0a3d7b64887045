"""The JSON file layer: reading and checking input files, and the
estimator-graph records and their file format.  A diagnoser file is an
estimator-graph file, so ``hydiag run`` needs no other layer of hydiag
but ``errors``.
"""

import json
import sys
from collections import namedtuple
from enum import Enum
from itertools import chain
from operator import itemgetter

from .errors import ModelFormatError

# Most classes of a region quotient; here so ``--help`` loads no model layer.
DEFAULT_MAX_CLASSES = 100_000


def _read_text(path):
    """The contents of an input file, which must be UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path} is not UTF-8 text") from None


def _loads_json(text):
    """Decode a JSON document, reporting a syntax error as a format error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise ModelFormatError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ModelFormatError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


# Files are written as ``json.dumps(data, separators=(",", ":")) + "\n"``
# would write them, one row at a time from a fixed ``%`` template whose
# ``%s`` slots take each field's JSON text.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _columns(rows, width):
    """The ``width`` columns of a sequence of equal-length rows."""
    return tuple(zip(*rows)) or ((),) * width


def _json_texts(values, exact):
    """The JSON text of each of ``values``, for ``%s`` slots.  A column
    whose values are all exactly of type ``exact`` is converted in bulk:
    an int is its own text, and equal values of any other type (a bool,
    a str, a str enum member) share one text, encoded once.  Any other
    column is encoded value by value."""
    if set(map(type, values)) <= {exact}:
        if exact is int:
            return values
        distinct = dict.fromkeys(values)
        return map(dict(zip(distinct, map(_encode, distinct))).__getitem__, values)
    return map(_encode, values)


def _json_rows(template, *columns):
    """The rows of a JSON list or object, comma-separated: ``template`` is
    one row's text with a ``%s`` slot per column, and ``columns`` hold the
    slots' texts."""
    fields = tuple(chain.from_iterable(zip(*columns)))
    return ",".join([template] * (len(fields) // len(columns))) % fields


def _as_object(value, what):
    if not isinstance(value, dict):
        raise ModelFormatError(f"{what} must be an object")
    return value


def _require_keys(obj, keys, what):
    if _as_object(obj, what).keys() == keys:
        return
    extra = sorted(set(obj) - keys)
    if extra:
        names = ", ".join(_excerpt(k, 0) for k in extra[:3])
        more = f" and {len(extra) - 3} more" if len(extra) > 3 else ""
        raise ModelFormatError(f"{what} has unknown keys: [{names}]{more}")
    missing = keys - set(obj)
    if missing:
        raise ModelFormatError(f"{what} is missing keys: {sorted(missing)}")


def _int_literal(digits, what):
    """``int(digits)`` for a string of decimal digits, reporting one longer
    than the interpreter converts (``sys.get_int_max_str_digits``) as a
    format error."""
    try:
        return int(digits)
    except ValueError:
        raise ModelFormatError(
            f"{what} has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _excerpt(text, pos, width=30):
    """At most ``2 * width`` characters of ``text`` around index ``pos``, quoted.

    Error messages quote this, not the whole input, which may be long.
    """
    start = max(0, min(pos - width, len(text) - 2 * width))
    return repr(text[start : start + 2 * width])


def _as_list(value, what):
    if not isinstance(value, list):
        raise ModelFormatError(f"{what} must be a list, got {type(value).__name__}")
    return value


_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list"}


def _rows(value, what, schema):
    """Each row of the list ``value`` as the sequence of its fields in
    ``schema`` order.  A row is an array of those fields, as hydiag writes
    it, or an object of them, as earlier versions wrote it; one list may
    mix both.

    ``schema`` maps every key a row must have to the exact type of its
    value: ``int``, ``bool``, ``str`` or ``list`` (a bool is not an int).
    It has at least two keys.  The list is checked in bulk first: every
    row an array of the schema's length or a dict of exactly its keys,
    then each column's value types.  Only if that fails is it rescanned
    row by row, to report the first bad row.  No message is built unless
    a check fails.
    """
    keys = schema.keys()
    fields = itemgetter(*keys)
    items = _as_list(value, what)
    kinds = set(map(type, items))
    if kinds <= {list, dict} and set(map(len, items)) <= {len(keys)}:
        try:
            rows = items if kinds == {list} else [
                row if type(row) is list else fields(row) for row in items
            ]
        except KeyError:
            pass  # an object lacks a key: the rescan names it
        else:
            columns = zip(zip(*rows), schema.values())
            if all(set(map(type, column)) <= {expected} for column, expected in columns):
                return rows
    types = tuple(schema.values())
    rows = []
    for i, row in enumerate(items):
        if type(row) is dict:
            if row.keys() != keys:
                _require_keys(row, keys, f"{what}[{i}]")
            row = fields(row)
        elif type(row) is not list:
            raise ModelFormatError(
                f"{what}[{i}] must be an object or an array, got {type(row).__name__}"
            )
        elif len(row) != len(keys):
            raise ModelFormatError(f"{what}[{i}] must have {len(keys)} values, got {len(row)}")
        if tuple(map(type, row)) != types:
            for key, item, expected in zip(keys, row, types):
                if type(item) is not expected:
                    raise ModelFormatError(
                        f"{what}[{i}].{key} must be {_TYPE_NAMES[expected]}, "
                        f"got {type(item).__name__}"
                    )
        rows.append(row)
    return rows


def _member(enum, value, what):
    """The member of ``enum`` whose value is ``value``."""
    try:
        return enum(value)
    except ValueError:
        names = "|".join(m.value for m in enum)
        raise ModelFormatError(f"{what} must be one of {names}") from None


# ---------------------------------------------------------------------------
# Estimator graphs and their file format (JSON)


class Classification(str, Enum):
    FAULTY = "faulty"
    NONFAULTY = "nonfaulty"
    INDETERMINATE = "indeterminate"


class EstimatorState(namedtuple("EstimatorState", "members classification")):
    """Canonical estimator state: sorted member classes plus their kind."""

    __slots__ = ()


class EstimatorGraph(namedtuple("EstimatorGraph", "states initials transitions model",
                                defaults=(None,))):
    """Reachable fragment of the estimator.

    ``states`` is indexed by state id (discovery order, hence canonical),
    ``initials`` maps an observable to the state estimated before any
    action, and ``transitions`` maps (state id, action name, observable)
    to the successor state id.  ``model`` is the quotient the graph was
    built from, or None for a hand-built or loaded graph; the fault product
    needs it, so ``detection_delay_bound`` and ``check_diagnosable`` on a
    cyclic graph raise ValueError without it.  Immutable by convention
    once built.
    """

    __slots__ = ()

    def __repr__(self):
        return (f"EstimatorGraph(states={self.states!r}, initials={self.initials!r}, "
                f"transitions={self.transitions!r})")


def _dumps_graph(graph):
    """The estimator file of ``graph``, written row by row; a diagnoser
    file is the same file."""
    members, classes = _columns(graph.states, 2)
    classes = tuple(_json_texts(classes, Classification))
    # Members are class ids, so the encoded rows split where one ends.
    members = _encode(members)[2:-2].split("],[")
    keys, dsts = _columns(sorted(graph.transitions.items()), 2)
    srcs, actions, observables = _columns(keys, 3)
    return '{"states":[%s],"initials":%s,"transitions":[%s]}\n' % (
        _json_rows("[%s,[%s],%s]", range(len(classes)), members, classes),
        _encode({str(obs): sid for obs, sid in sorted(graph.initials.items())}),
        _json_rows(
            "[%s,%s,%s,%s]", _json_texts(srcs, int), _json_texts(actions, str),
            _json_texts(observables, int), _json_texts(dsts, int),
        ),
    )


def _key_int(key, what):
    """A non-negative integer written as a JSON object key, in canonical form."""
    if not (key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")):
        raise ModelFormatError(f"{what} key must be an integer, got {_excerpt(key, 0)}")
    return _int_literal(key, f"{what} key")


def _state_id(value, n, table, key):
    """``value``, the state id that ``table[key]`` names, checked against ``n`` states."""
    if type(value) is not int:
        raise ModelFormatError(
            f"{table}[{_excerpt(key, 0)}] must be an integer, got {type(value).__name__}"
        )
    if not 0 <= value < n:
        raise ModelFormatError(f"{table}[{_excerpt(key, 0)}] out of range")
    return value


_STATE_SCHEMA = {"id": int, "members": list, "class": str}
_TRANSITION_SCHEMA = {"src": int, "action": str, "obs": int, "dst": int}
_CLASSIFICATIONS = {c.value: c for c in Classification}


def _parse_graph_json(data, what, extra_keys=frozenset()):
    """Shared loader for the estimator schema (also used by diagnoser files).

    Each list is checked by column first: the state ids count up from 0,
    every member is an integer, every class is a Classification value,
    the smallest and largest ``src`` and ``dst`` are state ids, and no
    move repeats.  Only if a check fails are its rows rescanned one by
    one, to report the first bad row.
    """
    _require_keys(data, {"states", "initials", "transitions"} | extra_keys, what)

    rows = _rows(data["states"], "states", _STATE_SCHEMA)
    n = len(rows)
    ids, members, classes = zip(*rows) if rows else ((), (), ())
    if (ids != tuple(range(n)) or set(map(type, chain.from_iterable(members))) - {int}
            or not set(classes) <= _CLASSIFICATIONS.keys()):
        for i, (sid, row_members, cls) in enumerate(rows):
            if sid != i:
                raise ModelFormatError(f"states[{i}].id must be {i}")
            if set(map(type, row_members)) - {int}:
                raise ModelFormatError(f"states[{i}].members must be integers")
            _member(Classification, cls, f"states[{i}].class")
    states = list(map(EstimatorState, map(tuple, members),
                      map(_CLASSIFICATIONS.__getitem__, classes)))

    initials = {}
    for obs, sid in _as_object(data["initials"], "initials").items():
        initials[_key_int(obs, "initials")] = _state_id(sid, n, "initials", obs)

    rows = _rows(data["transitions"], "transitions", _TRANSITION_SCHEMA)
    if not rows:
        return states, initials, {}
    srcs, actions, observables, dsts = zip(*rows)
    transitions = dict(zip(zip(srcs, actions, observables), dsts))
    if (len(transitions) != len(rows) or min(srcs) < 0 or max(srcs) >= n
            or min(dsts) < 0 or max(dsts) >= n):
        moves = {}  # (src, action, obs) -> the row that first moves so
        for i, (src, action, obs, dst) in enumerate(rows):
            if not (0 <= src < n and 0 <= dst < n):
                raise ModelFormatError(f"transitions[{i}] out of range")
            first = moves.setdefault((src, action, obs), i)
            if first != i:
                raise ModelFormatError(f"transitions[{i}] repeats the move of transitions[{first}]")
    return states, initials, transitions
