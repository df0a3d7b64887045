"""Finite time-abstract quotient models of hybrid systems with faults.

A quotient is a finite labeled transition system whose nodes are
equivalence classes of system states.  Classes are split into faulty and
non-faulty, carry the observable (partition cell) their states fall in,
and are connected by discrete edges (external, internal, or the single
distinguished fault action) and by time edges abstracting continuous
evolution.  Time edges are kept as the declared generators: continuous
flow from a class reaches exactly what the reflexive-transitive closure
of those pairs reaches, and every consumer (the unobservable closure,
the progress check, the estimator and the oracle) already explores that
reach by search, so the closure itself is never stored.

A time self-pair (c, c) marks class c as genuinely time-divergent: the
system can let time pass there forever.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .errors import ModelFormatError

# Most classes of a region quotient; here so ``--help`` needs no ``regions``.
DEFAULT_MAX_CLASSES = 100_000


class Kind(str, Enum):
    """Visibility of a discrete action."""

    EXTERNAL = "external"
    INTERNAL = "internal"
    FAULT = "fault"


class ActionLabel(namedtuple("ActionLabel", "name kind")):
    __slots__ = ()


class ClassInfo(namedtuple("ClassInfo", "id faulty initial obs")):
    """One equivalence class: dense id, fault status, initiality, observable."""

    __slots__ = ()


class UTrace(namedtuple("UTrace", "head steps", defaults=((),))):
    """Untimed observation trace: head observable, then (action, observable) steps."""

    __slots__ = ()

    def extend(self, action, obs):
        return UTrace(self.head, self.steps + ((action, int(obs)),))

    def pretty(self):
        parts = [f"o{self.head}"]
        for action, obs in self.steps:
            parts.append(action)
            parts.append(f"o{obs}")
        return " ".join(parts)

    def to_json(self):
        return {"head": self.head, "steps": [[a, o] for a, o in self.steps]}

    @classmethod
    def from_json(cls, data, what="trace"):
        """Read ``to_json``'s form with exact types: the head and each
        observable an int (a bool is not one), each action a str."""
        _require_keys(data, {"head", "steps"}, what)
        head = data["head"]
        if type(head) is not int:
            raise ModelFormatError(f"{what}.head must be an integer, got {type(head).__name__}")
        steps = _as_list(data["steps"], f"{what}.steps")
        for i, step in enumerate(steps):
            if type(step) is not list or list(map(type, step)) != [str, int]:
                raise ModelFormatError(
                    f"{what}.steps[{i}] must be a list [action, obs] of a string and an integer"
                )
        return cls(head, tuple(map(tuple, steps)))


class Lasso(namedtuple("Lasso", "prefix cycle")):
    """A finite prefix plus a repeatable cycle of observations."""

    __slots__ = ()

    @classmethod
    def from_steps(cls, head, prefix_steps, cycle_steps):
        """The lasso whose cycle starts in the observable the prefix ends in."""
        prefix = UTrace(head, tuple((a, int(o)) for a, o in prefix_steps))
        cycle_head = prefix.steps[-1][1] if prefix.steps else head
        return cls(prefix, UTrace(cycle_head, tuple((a, int(o)) for a, o in cycle_steps)))

    def attached(self):
        """Does the cycle start in the observable the prefix ends in, as in
        the lasso ``from_steps`` makes of the same steps?"""
        return self == Lasso.from_steps(self.prefix.head, self.prefix.steps, self.cycle.steps)

    def to_json(self):
        return {"prefix": self.prefix.to_json(), "cycle": self.cycle.to_json()}

    @classmethod
    def from_json(cls, data):
        _require_keys(data, {"prefix", "cycle"}, "lasso")
        return cls(
            UTrace.from_json(data["prefix"], "lasso.prefix"),
            UTrace.from_json(data["cycle"], "lasso.cycle"),
        )


class Violation(namedtuple("Violation", "rule subject message")):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "ok violations")):
    __slots__ = ()

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "subject": v.subject, "message": v.message}
                for v in self.violations
            ],
        }


class QuotientModel:
    """Immutable quotient transition system.

    ``classes`` is a sequence of ClassInfo with dense ids 0..n-1,
    ``actions`` a sequence of ActionLabel with exactly one fault action,
    ``edges`` an iterable of (src, action-name-or-label, dst) and ``time``
    an iterable of (src, dst) pairs, kept as declared, not closed.
    ``divergent`` holds the classes with a time self-pair.  Instances
    never mutate after construction and are safe to share across threads,
    but for one cache: the model's ``external_moves`` table, created here
    empty and filled a class at a time on first lookup.  Every row is a
    function of the model, so two threads racing to fill a class compute
    equal rows and either write wins.
    """

    def __init__(self, classes, actions, edges, time=()):
        self.classes = tuple(classes)
        for i, c in enumerate(self.classes):
            if c.id != i:
                raise ValueError(f"class ids must be dense 0..n-1, got {c.id} at {i}")
        n = len(self.classes)

        self.actions = tuple(actions)
        by_name = {}
        for a in self.actions:
            if a.name in by_name:
                raise ValueError(f"duplicate action name {_excerpt(a.name, 0)}")
            by_name[a.name] = a
        faults = [a for a in self.actions if a.kind is Kind.FAULT]
        if len(faults) != 1:
            raise ValueError(f"exactly one fault action required, got {len(faults)}")
        self.fault_action = faults[0]
        self.external_actions = tuple(a for a in self.actions if a.kind is Kind.EXTERNAL)

        resolved = set()
        for src, action, dst in edges:
            if isinstance(action, ActionLabel):
                label = by_name.get(action.name)
                if label != action:
                    label = None
            else:
                label = by_name.get(action)
            if label is None:
                name = _excerpt(str(getattr(action, "name", action)), 0)
                raise ValueError(f"edge action {name} is not a declared action")
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {_excerpt(label.name, 0)}, {dst}) out of range")
            resolved.add((src, label, dst))
        self.edges = tuple(sorted(resolved, key=lambda e: (e[0], e[1].name, e[2])))

        time_pairs = set()
        for src, dst in time:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"time edge ({src}, {dst}) out of range")
            time_pairs.add((src, dst))
        self.time = frozenset(time_pairs)
        self.divergent = frozenset(s for s, d in time_pairs if s == d)

        self.faulty = tuple(c.faulty for c in self.classes)
        self.obs = tuple(c.obs for c in self.classes)
        self.initial_classes = tuple(c.id for c in self.classes if c.initial)

        # Adjacency caches used by the closure and successor operations.
        silent = [set() for _ in range(n)]
        ext = {}
        disc = [[] for _ in range(n)]
        for src, label, dst in self.edges:
            disc[src].append((label, dst))
            if label.kind is Kind.EXTERNAL:
                ext.setdefault((src, label.name), []).append(dst)
            else:
                silent[src].add(dst)
        tsucc = [set() for _ in range(n)]
        for src, dst in self.time:
            if src != dst:
                silent[src].add(dst)
                tsucc[src].add(dst)
        self._silent = tuple(tuple(sorted(s)) for s in silent)
        self._ext = {k: tuple(sorted(v)) for k, v in ext.items()}
        self._disc = tuple(tuple(d) for d in disc)
        self._tsucc = tuple(tuple(sorted(s)) for s in tsucc)
        self._moves = _MoveTable(self)

    def external_edges_from(self, cls_id, action):
        return self._ext.get((cls_id, action.name), ())

    def discrete_edges_from(self, cls_id):
        return self._disc[cls_id]

    def proper_time_successors(self, cls_id):
        return self._tsucc[cls_id]

    def __eq__(self, other):
        if not isinstance(other, QuotientModel):
            return NotImplemented
        return (
            self.classes == other.classes
            and self.actions == other.actions
            and self.edges == other.edges
            and self.time == other.time
        )

    def __repr__(self):
        return (
            f"QuotientModel(n={len(self.classes)}, actions={len(self.actions)}, "
            f"edges={len(self.edges)})"
        )


def validate_model(model):
    """Check the fault axioms and report every violation with a witness.

    Violations are data, not failures: the report lists each broken rule
    (D1, D2, D3, T1, InitNonFaulty, ObsTotal, Nonempty) with the offending
    class or edge.
    """
    violations = []

    if not model.initial_classes:
        violations.append(Violation("Nonempty", None, "model has no initial class"))

    fault_sources = {src for src, label, _ in model.edges if label.kind is Kind.FAULT}
    for c in model.classes:
        if c.initial and c.faulty:
            violations.append(
                Violation("InitNonFaulty", c.id, f"initial class {c.id} is faulty")
            )
        if c.obs < 0:
            violations.append(
                Violation("ObsTotal", c.id, f"class {c.id} has no valid observable")
            )
        if not c.faulty and c.id not in fault_sources:
            violations.append(
                Violation("D1", c.id, f"non-faulty class {c.id} has no fault edge")
            )

    for src, label, dst in model.edges:
        if label.kind is Kind.FAULT:
            if model.faulty[src] or not model.faulty[dst]:
                violations.append(
                    Violation(
                        "D2",
                        (src, label.name, dst),
                        f"fault edge {src}->{dst} must go non-faulty to faulty",
                    )
                )
        elif model.faulty[src] != model.faulty[dst]:
            violations.append(
                Violation(
                    "D3",
                    (src, label.name, dst),
                    f"edge {src}-{label.name}->{dst} changes the fault status",
                )
            )

    for src, dst in sorted(model.time):
        if model.faulty[src] != model.faulty[dst]:
            violations.append(
                Violation(
                    "T1",
                    (src, dst),
                    f"time edge {src}->{dst} changes the fault status",
                )
            )

    return ValidationReport(not violations, tuple(violations))


def unobservable_closure(model, seed):
    """Least superset of ``seed`` closed under time edges and silent actions.

    Silent means internal or fault: everything the system can do without
    the observer noticing.
    """
    closure = set(seed)
    frontier = list(closure)
    while frontier:
        c = frontier.pop()
        for d in model._silent[c]:
            if d not in closure:
                closure.add(d)
                frontier.append(d)
    return frozenset(closure)


def external_moves(model):
    """Single-class successor table for one observed external action.

    Maps (class, action name) to the sorted (target, observable) pairs the
    class alone allows.  The system may first evolve silently, then takes
    the action; the observable is sampled right after it.  The rows of a
    set of classes together give the successors of the set, since the
    silent closure of a set is the union of its members' closures.

    There is one table per model, so every consumer of the model (the
    estimator, the fault product, the twin plant, the trace enumeration)
    computes each class's silent closure once.  It starts empty and fills
    itself: the first lookup of any (c, action) key computes the rows of
    class c for every external action.  A key with another action or an
    out-of-range class raises KeyError.  ``get`` and ``in`` see only the
    rows filled so far.
    """
    return model._moves


class _MoveTable(dict):
    def __init__(self, model):
        super().__init__()
        self._model = model
        self._names = {a.name for a in model.external_actions}

    def __missing__(self, key):
        c, name = key
        model = self._model
        if name not in self._names or c not in range(len(model.classes)):
            raise KeyError(key)
        closure = unobservable_closure(model, (c,))
        ext, obs = model._ext, model.obs
        for action in model.external_actions:
            a = action.name
            self[(c, a)] = sorted({(d, obs[d]) for mid in closure for d in ext.get((mid, a), ())})
        return self[key]


# ---------------------------------------------------------------------------
# Model file format (JSON)

_CLASS_SCHEMA = {"id": int, "faulty": bool, "initial": bool, "obs": int}
_ACTION_SCHEMA = {"name": str, "kind": str}
_EDGE_SCHEMA = {"src": int, "action": str, "dst": int}
_TIME_SCHEMA = {"src": int, "dst": int}


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


def _dumps_json(data):
    """Encode a file as one line of compact JSON plus a newline.

    Without ``indent`` the json module runs its C encoder, several times
    faster than the pure-Python one any indentation selects.
    """
    return json.dumps(data, separators=(",", ":")) + "\n"


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
    """Each object of the list ``value`` as the tuple of its fields in
    ``schema`` order.

    ``schema`` maps every key an object must have to the exact type of its
    value: ``int``, ``bool``, ``str`` or ``list`` (a bool is not an int).
    It has at least two keys.  The list is checked in bulk first: every
    object a dict of exactly the schema's keys (as many keys, none
    missing), then each column's value types.  Only if that fails is it
    rescanned row by row, to report the first bad row.  No message is
    built unless a check fails.
    """
    keys = schema.keys()
    fields = itemgetter(*keys)
    objs = _as_list(value, what)
    if set(map(type, objs)) <= {dict} and set(map(len, objs)) <= {len(keys)}:
        try:
            rows = list(map(fields, objs))
        except KeyError:
            pass  # an object lacks a key: the rescan names it
        else:
            columns = zip(zip(*rows), schema.values())
            if all(set(map(type, column)) <= {expected} for column, expected in columns):
                return rows
    types = tuple(schema.values())
    rows = []
    for i, obj in enumerate(objs):
        if type(obj) is not dict or obj.keys() != keys:
            _require_keys(obj, keys, f"{what}[{i}]")
        row = fields(obj)
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


def loads_model(text):
    """Parse a quotient model from its JSON file format."""
    data = _loads_json(text)
    _require_keys(data, {"classes", "actions", "edges", "time"}, "model")
    classes = [ClassInfo(*row) for row in _rows(data["classes"], "classes", _CLASS_SCHEMA)]
    actions = [
        ActionLabel(name, _member(Kind, kind, f"actions[{i}].kind"))
        for i, (name, kind) in enumerate(_rows(data["actions"], "actions", _ACTION_SCHEMA))
    ]
    edges = _rows(data["edges"], "edges", _EDGE_SCHEMA)
    time = _rows(data["time"], "time", _TIME_SCHEMA)
    try:
        return QuotientModel(classes, actions, edges, time)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def load_model(path):
    return loads_model(_read_text(path))


def dumps_model(model):
    """Serialize a model to the JSON file format (round-trip stable).

    Time is written as the declared pairs, self-pairs exactly for the
    time-divergent classes.
    """
    data = {
        "classes": [
            {"id": c.id, "faulty": c.faulty, "initial": c.initial, "obs": c.obs}
            for c in model.classes
        ],
        "actions": [{"name": a.name, "kind": a.kind.value} for a in model.actions],
        "edges": [
            {"src": src, "action": label.name, "dst": dst}
            for src, label, dst in model.edges
        ],
        "time": [{"src": s, "dst": d} for s, d in sorted(model.time)],
    }
    return _dumps_json(data)
