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
system can let time pass there forever.  It is kept in the class's time
row like any other pair, so a model holds exactly the rows its file does.
"""

from collections import namedtuple
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import lt

from .errors import ModelFormatError
from .fileformat import _as_list, _as_object, _columns, _encode, _excerpt, _json_rows
from .fileformat import _json_texts, _loads_json, _member, _read_text, _require_keys, _rows


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
    an iterable of (src, dst) pairs, kept as declared, not closed.  They
    are stored once: the columns ``faulty``, ``obs``, ``initial_classes``;
    and per class, ``_disc`` (sorted (label, dst) pairs) and ``_tsucc``
    (sorted time successors, the class itself among them when it has a
    time self-pair): the rows of its file.  ``classes``, ``edges`` and
    ``time`` are views, built on each read.  Instances never mutate after
    construction and are safe to share across threads, but for one cache:
    the model's ``external_moves`` table, created here empty and filled a
    class at a time on first lookup.  Every row is a function of the
    model, so two threads racing to fill a class compute equal rows and
    either write wins.
    """

    def __init__(self, classes, actions, edges, time=()):
        ids, faulty, initial, obs = _columns(tuple(classes), 4)
        for i, c in enumerate(ids):
            if c != i:
                raise ValueError(f"class ids must be dense 0..n-1, got {c} at {i}")
        n = len(ids)
        by_name = self._declare(actions)
        # Grouped by source class, in input order: ``_build`` adopts a
        # group that comes strictly sorted, as every file hydiag wrote
        # holds it, and sorts and deduplicates any other.
        disc, after = [[] for _ in ids], [[] for _ in ids]
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
            disc[src].append((label, dst))
        for src, dst in time:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"time edge ({src}, {dst}) out of range")
            after[src].append(dst)
        self._build(faulty, initial, obs, zip(disc, after))

    @classmethod
    def _from_rows(cls, actions, faulty, initial, obs, rows):
        """The model of one row per class, as a quotient file holds it:
        the columns ``faulty``, ``initial`` (flags) and ``obs``, and
        ``rows``, an iterable of each class's ``(moves, time)``: its
        (label, dst) pairs, labels among ``actions``, and its time
        successors, itself when it is time-divergent.  The caller has
        checked every label and target; ``rows`` is read once, a class
        at a time."""
        model = cls.__new__(cls)
        model._declare(actions)
        model._build(faulty, initial, obs, rows)
        return model

    def _declare(self, actions):
        """Store ``actions`` and its fault and external actions; return
        the actions by name."""
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
        return by_name

    def _build(self, faulty, initial, obs, rows):
        self.faulty, self.obs = tuple(faulty), tuple(obs)
        self.initial_classes = tuple(compress(range(len(self.obs)), initial))
        disc, tsucc = [], []
        for moves, after in rows:
            # Labels of one model have unique names, so two compare by
            # name alone and a kind is never compared.
            moves, after = tuple(moves), tuple(after)
            disc.append(_strictly_sorted(moves) if len(moves) > 1 else moves)
            tsucc.append(_strictly_sorted(after) if len(after) > 1 else after)
        self._disc = tuple(disc)
        self._tsucc = tuple(tsucc)
        self._moves = _MoveTable(self)

    @property
    def classes(self):
        initial, ids = set(self.initial_classes), range(len(self.obs))
        return tuple(map(ClassInfo, ids, self.faulty, map(initial.__contains__, ids), self.obs))

    @property
    def edges(self):
        return tuple((src, label, dst) for src, row in enumerate(self._disc) for label, dst in row)

    @property
    def time(self):
        return frozenset((src, dst) for src, row in enumerate(self._tsucc) for dst in row)

    def external_edges_from(self, cls_id, action):
        return tuple(d for label, d in self._disc[cls_id] if label == (action.name, Kind.EXTERNAL))

    def discrete_edges_from(self, cls_id):
        return self._disc[cls_id]

    def proper_time_successors(self, cls_id):
        return tuple(d for d in self._tsucc[cls_id] if d != cls_id)

    def __eq__(self, other):
        if not isinstance(other, QuotientModel):
            return NotImplemented
        stored = ("actions", "faulty", "obs", "initial_classes", "_disc", "_tsucc")
        return all(getattr(self, name) == getattr(other, name) for name in stored)

    def __repr__(self):
        n, edges = len(self.obs), sum(map(len, self._disc))
        return f"QuotientModel(n={n}, actions={len(self.actions)}, edges={edges})"


def _strictly_sorted(row):
    """The tuple ``row`` sorted and without repeats; one already strictly
    increasing is taken as it is."""
    if all(map(lt, row, row[1:])):
        return row
    return tuple(sorted(set(row)))


def validate_model(model):
    """Check the fault axioms and report every violation with a witness.

    Violations are data, not failures: the report lists each broken rule
    (D1, D2, D3, T1, InitNonFaulty, ObsTotal, Nonempty) with the offending
    class or edge.
    """
    violations = []

    if not model.initial_classes:
        violations.append(Violation("Nonempty", None, "model has no initial class"))

    fault, faulty, initial = Kind.FAULT, model.faulty, set(model.initial_classes)
    for c, row in enumerate(model._disc):
        if c in initial and faulty[c]:
            violations.append(
                Violation("InitNonFaulty", c, f"initial class {c} is faulty")
            )
        if model.obs[c] < 0:
            violations.append(
                Violation("ObsTotal", c, f"class {c} has no valid observable")
            )
        if not faulty[c] and all(label.kind is not fault for label, _ in row):
            violations.append(
                Violation("D1", c, f"non-faulty class {c} has no fault edge")
            )

    for src, label, dst in ((s, a, d) for s, row in enumerate(model._disc) for a, d in row):
        if label.kind is fault:
            if faulty[src] or not faulty[dst]:
                violations.append(
                    Violation(
                        "D2",
                        (src, label.name, dst),
                        f"fault edge {src}->{dst} must go non-faulty to faulty",
                    )
                )
        elif faulty[src] != faulty[dst]:
            violations.append(
                Violation(
                    "D3",
                    (src, label.name, dst),
                    f"edge {src}-{label.name}->{dst} changes the fault status",
                )
            )

    # In sorted order; a time self-pair never changes the fault status.
    for src, dst in ((s, d) for s, row in enumerate(model._tsucc) for d in row):
        if faulty[src] != faulty[dst]:
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
    the observer noticing.  Only the rows ``model._tsucc`` and
    ``model._disc``, whose external labels are skipped, are read, so the
    model's move table, which holds those rows, closes its classes here
    too.
    """
    disc, tsucc, external = model._disc, model._tsucc, Kind.EXTERNAL
    closure = set(seed)
    frontier = list(closure)
    while frontier:
        c = frontier.pop()
        for d in tsucc[c]:
            if d not in closure:
                closure.add(d)
                frontier.append(d)
        for label, d in disc[c]:
            if label.kind is not external and d not in closure:
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
    # The table holds the model's rows, not the model, so a model and its
    # table form no reference cycle: a dropped model is freed at once,
    # without the cycle collector, and a table outlives its model intact.
    def __init__(self, model):
        super().__init__()
        self._disc, self._tsucc, self._obs = model._disc, model._tsucc, model.obs
        self._names = tuple(a.name for a in model.external_actions)

    def __missing__(self, key):
        c, name = key
        if name not in self._names or c not in range(len(self._obs)):
            raise KeyError(key)
        # One pass over the closure reads each member's row once; names are
        # unique, so only an external label finds a target set.
        targets = {a: set() for a in self._names}
        disc, obs = self._disc, self._obs
        for mid in unobservable_closure(self, (c,)):
            for label, d in disc[mid]:
                found = targets.get(label.name)
                if found is not None:
                    found.add(d)
        for a, found in targets.items():
            self[(c, a)] = sorted([(d, obs[d]) for d in found])
        return self[key]


# ---------------------------------------------------------------------------
# Model file format (JSON)

_ROW_SCHEMA = {"faulty": bool, "initial": bool, "obs": int, "edges": list, "time": list}
_ACTION_SCHEMA = {"name": str, "kind": str}
# The layout earlier versions wrote: global lists of classes, edges and time pairs.
_CLASS_SCHEMA = {"id": int, "faulty": bool, "initial": bool, "obs": int}
_EDGE_SCHEMA = {"src": int, "action": str, "dst": int}
_TIME_SCHEMA = {"src": int, "dst": int}


def loads_model(text):
    """Parse a quotient model from its JSON file format: one row per
    class, or the global ``edges`` and ``time`` lists of earlier versions,
    which load through the constructor."""
    data = _loads_json(text)
    del text
    if "edges" not in _as_object(data, "model") and "time" not in data:
        return _loads_class_rows(data)
    _require_keys(data, {"classes", "actions", "edges", "time"}, "model")
    classes = zip(*_rows(data.pop("classes"), "classes", _CLASS_SCHEMA))
    actions = _actions(data.pop("actions"))
    # Each list's decoded rows are dropped once its columns are checked.
    edges = zip(*_rows(data.pop("edges"), "edges", _EDGE_SCHEMA))
    time = zip(*_rows(data.pop("time"), "time", _TIME_SCHEMA))
    try:
        return QuotientModel(classes, actions, edges, time)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def _actions(value):
    names, kinds = _rows(value, "actions", _ACTION_SCHEMA)
    return [ActionLabel(name, _member(Kind, kind, f"actions[{i}].kind"))
            for i, (name, kind) in enumerate(zip(names, kinds))]


def _loads_class_rows(data):
    """The model of a document of one row per class, ``[faulty, initial,
    obs, [[action, dst], ...], [dst, ...]]``.  Its entries are checked by
    column; only if a check fails are the rows rescanned, to report the
    first bad entry.  The decoded pairs are dropped before the model's
    rows are built."""
    _require_keys(data, {"classes", "actions"}, "model")
    faulty, initial, obs, edges, time = _rows(data.pop("classes"), "classes", _ROW_SCHEMA)
    actions = _actions(data.pop("actions"))
    by_name, n = {a.name: a for a in actions}, len(obs)
    pairs = list(chain.from_iterable(edges))
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        _check_class_rows(edges, time, by_name, n)
    names, dsts = _columns(pairs, 2)
    del pairs
    targets = (*dsts, *chain.from_iterable(time))
    if (set(map(type, names)) - {str} or not set(names) <= by_name.keys()
            or set(map(type, targets)) - {int}
            or targets and not 0 <= min(targets) <= max(targets) < n):
        _check_class_rows(edges, time, by_name, n)
    moves = zip(map(by_name.__getitem__, names), dsts)
    lengths = list(map(len, edges))
    del targets, edges
    rows = zip(map(tuple, map(islice, repeat(moves), lengths)), time)
    try:
        return QuotientModel._from_rows(actions, faulty, initial, obs, rows)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None


def _check_class_rows(edges, time, by_name, n):
    """Raise the format error of the first bad entry of the class rows'
    ``edges`` and ``time`` lists."""
    for i, (moves, after) in enumerate(zip(edges, time)):
        for j, move in enumerate(moves):
            what = f"classes[{i}].edges[{j}]"
            if type(move) is not list or list(map(type, move)) != [str, int]:
                raise ModelFormatError(
                    f"{what} must be a list [action, dst] of a string and an integer"
                )
            if move[0] not in by_name:
                raise ModelFormatError(
                    f"{what}: action {_excerpt(move[0], 0)} is not a declared action"
                )
            if not 0 <= move[1] < n:
                raise ModelFormatError(f"{what} out of range")
        for j, dst in enumerate(after):
            if type(dst) is not int:
                raise ModelFormatError(
                    f"classes[{i}].time[{j}] must be an integer, got {type(dst).__name__}"
                )
            if not 0 <= dst < n:
                raise ModelFormatError(f"classes[{i}].time[{j}] out of range")


def load_model(path):
    return loads_model(_read_text(path))


def dumps_model(model):
    """Serialize a model to the JSON file format (round-trip stable): one
    row per class, ``[faulty, initial, obs, [[action, dst], ...], [dst,
    ...]]``, read off the stored rows.  A time-divergent class lists
    itself among its time successors, as its stored row does.
    """
    initial = set(model.initial_classes)
    names, kinds = _columns(model.actions, 2)
    name_texts = dict(zip(names, _json_texts(names, str)))
    labels, dsts = _columns(chain.from_iterable(model._disc), 2)
    moves = map("[%s,%s]".__mod__, zip(
        map(name_texts.__getitem__, _columns(labels, 2)[0]), _json_texts(dsts, int)))
    return '{"classes":[%s],"actions":[%s]}\n' % (
        _json_rows(
            "[%s,%s,%s,[%s],[%s]]", _json_texts(model.faulty, bool),
            _json_texts([c in initial for c in range(len(model.obs))], bool),
            _json_texts(model.obs, int),
            [",".join(islice(moves, len(row))) for row in model._disc],
            # Time successors are class ids, so the encoded rows split where one ends.
            _encode(model._tsucc)[2:-2].split("],["),
        ),
        _json_rows("[%s,%s]", _json_texts(names, str), _json_texts(kinds, Kind)),
    )
