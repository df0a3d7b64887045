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

from collections import namedtuple
from enum import Enum
from itertools import chain, compress

from .errors import ModelFormatError
from .fileformat import _as_list, _columns, _excerpt, _json_rows, _json_texts
from .fileformat import _loads_json, _member, _read_text, _require_keys, _rows


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
    per class, ``_disc`` (sorted (label, dst) pairs), ``_tsucc`` (sorted
    time successors but the class) and the closure index ``_silent``; and
    ``divergent``, the classes with a time self-pair.  ``classes``,
    ``edges`` and ``time`` are views, built on each read.  Instances never
    mutate after construction and are safe to share across threads, but
    for one cache: the model's ``external_moves`` table, created here
    empty and filled a class at a time on first lookup.  Every row is a
    function of the model, so two threads racing to fill a class compute
    equal rows and either write wins.
    """

    def __init__(self, classes, actions, edges, time=()):
        ids, self.faulty, initial, self.obs = _columns(tuple(classes), 4)
        for i, c in enumerate(ids):
            if c != i:
                raise ValueError(f"class ids must be dense 0..n-1, got {c} at {i}")
        n = len(ids)
        self.initial_classes = tuple(compress(ids, initial))

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

        # Deduped in insertion order, so edges and time pairs that come
        # sorted, as every file hydiag writes holds them, sort in one pass.
        resolved = {}
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
            resolved[src, label, dst] = None
        time_pairs = {}
        for src, dst in time:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"time edge ({src}, {dst}) out of range")
            time_pairs[src, dst] = None

        # Each class's rows become tuples as the sorted input moves past its
        # last pair (a final pair from class n flushes the last class), so
        # no row is ever held as a list for every class at once.
        time_pairs = sorted(time_pairs)
        self.divergent = frozenset(s for s, d in time_pairs if s == d)
        tsucc, last, row = [()] * n, 0, []
        for src, dst in chain(time_pairs, [(n, n)]):
            if src != last:
                tsucc[last] = tuple(row)
                last, row = src, []
            if src != dst:
                row.append(dst)
        # Sorted by (src, action name, dst): names are unique, so two labels
        # compare by name alone and a kind is never compared.
        disc, silent, last, row, hidden = [()] * n, tsucc[:], 0, [], []
        external = Kind.EXTERNAL  # a class attribute of an Enum is slow to look up
        resolved = iter(sorted(resolved))  # the loop frees the list as it ends
        for src, label, dst in chain(resolved, [(n, self.fault_action, n)]):
            if src != last:
                disc[last], t = tuple(row), tsucc[last]
                # A class's silent targets need a sort only when they come from
                # two sources: time and an edge, or two silent actions.
                silent[last] = (tuple(sorted({*hidden, *t})) if hidden and t or len(hidden) > 1
                                else tuple(hidden) or t)
                last, row, hidden = src, [], []
            row.append((label, dst))
            if label.kind is not external:
                hidden.append(dst)
        self._disc = tuple(disc)
        self._tsucc = tuple(tsucc)
        self._silent = tuple(silent)
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
        pairs = [(src, dst) for src, row in enumerate(self._tsucc) for dst in row]
        return frozenset(pairs + [(c, c) for c in self.divergent])

    def external_edges_from(self, cls_id, action):
        return tuple(d for label, d in self._disc[cls_id] if label == (action.name, Kind.EXTERNAL))

    def discrete_edges_from(self, cls_id):
        return self._disc[cls_id]

    def proper_time_successors(self, cls_id):
        return self._tsucc[cls_id]

    def __eq__(self, other):
        if not isinstance(other, QuotientModel):
            return NotImplemented
        stored = ("actions", "faulty", "obs", "initial_classes", "_disc", "_tsucc", "divergent")
        return all(getattr(self, name) == getattr(other, name) for name in stored)

    def __repr__(self):
        n, edges = len(self.obs), sum(map(len, self._disc))
        return f"QuotientModel(n={n}, actions={len(self.actions)}, edges={edges})"


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
    the observer noticing.  Only ``model._silent`` is read, so the model's
    move table, which holds that adjacency, closes its classes here too.
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
    # The table holds the model's adjacency, not the model, so a model and
    # its table form no reference cycle: a dropped model is freed at once,
    # without the cycle collector, and a table outlives its model intact.
    def __init__(self, model):
        super().__init__()
        self._silent, self._disc, self._obs = model._silent, model._disc, model.obs
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

_CLASS_SCHEMA = {"id": int, "faulty": bool, "initial": bool, "obs": int}
_ACTION_SCHEMA = {"name": str, "kind": str}
_EDGE_SCHEMA = {"src": int, "action": str, "dst": int}
_TIME_SCHEMA = {"src": int, "dst": int}


def loads_model(text):
    """Parse a quotient model from its JSON file format."""
    data = _loads_json(text)
    del text
    _require_keys(data, {"classes", "actions", "edges", "time"}, "model")
    classes = [ClassInfo(*row) for row in _rows(data.pop("classes"), "classes", _CLASS_SCHEMA)]
    actions = [
        ActionLabel(name, _member(Kind, kind, f"actions[{i}].kind"))
        for i, (name, kind) in enumerate(_rows(data.pop("actions"), "actions", _ACTION_SCHEMA))
    ]
    # The checked rows reach the constructor through iterators alone, and
    # an exhausted list iterator frees its list: the decoded rows are gone
    # before the model's adjacency is built.
    edges = iter(_rows(data.pop("edges"), "edges", _EDGE_SCHEMA))
    time = iter(_rows(data.pop("time"), "time", _TIME_SCHEMA))
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
    ids, initial = range(len(model.obs)), set(model.initial_classes)
    names, kinds = _columns(model.actions, 2)
    srcs = [src for src, row in enumerate(model._disc) for _ in row]
    labels, dsts = _columns(chain.from_iterable(model._disc), 2)
    time_srcs, time_dsts = _columns(sorted(model.time), 2)
    return '{"classes":[%s],"actions":[%s],"edges":[%s],"time":[%s]}\n' % (
        _json_rows(
            "[%s,%s,%s,%s]", _json_texts(ids, int), _json_texts(model.faulty, bool),
            _json_texts([c in initial for c in ids], bool), _json_texts(model.obs, int),
        ),
        _json_rows("[%s,%s]", _json_texts(names, str), _json_texts(kinds, Kind)),
        _json_rows(
            "[%s,%s,%s]", _json_texts(srcs, int), _json_texts(_columns(labels, 2)[0], str),
            _json_texts(dsts, int),
        ),
        _json_rows("[%s,%s]", _json_texts(time_srcs, int), _json_texts(time_dsts, int)),
    )
