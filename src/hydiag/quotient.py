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
        # Sorted by (src, action name, dst): names are unique, so two labels
        # compare by name alone and a kind is never compared.
        self.edges = tuple(sorted(resolved))

        time_pairs = {}
        for src, dst in time:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"time edge ({src}, {dst}) out of range")
            time_pairs[src, dst] = None
        self.time = frozenset(time_pairs)
        self.divergent = frozenset(s for s, d in time_pairs if s == d)

        self.faulty = tuple(c.faulty for c in self.classes)
        self.obs = tuple(c.obs for c in self.classes)
        self.initial_classes = tuple(c.id for c in self.classes if c.initial)

        # Adjacency caches used by the closure and successor operations.
        # The edges are sorted by (src, name, dst), so their rows come out
        # in order; the time pairs are sorted once.
        silent = [[] for _ in range(n)]
        ext = {}
        disc = [[] for _ in range(n)]
        external = Kind.EXTERNAL  # a class attribute of an Enum is slow to look up
        for src, label, dst in self.edges:
            disc[src].append((label, dst))
            if label.kind is external:
                ext.setdefault((src, label.name), []).append(dst)
            else:
                silent[src].append(dst)
        tsucc = [[] for _ in range(n)]
        for src, dst in sorted(time_pairs):
            if src != dst:
                tsucc[src].append(dst)
        self._ext = {k: tuple(v) for k, v in ext.items()}
        self._disc = tuple(map(tuple, disc))
        self._tsucc = tuple(map(tuple, tsucc))
        # A class's silent targets need a sort only when they come from two
        # sources: time and an edge, or two silent actions.
        self._silent = tuple(
            tuple(sorted({*s, *t})) if s and t or len(s) > 1 else tuple(s) or t
            for s, t in zip(silent, self._tsucc)
        )
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

    fault, faulty = Kind.FAULT, model.faulty
    fault_sources = {src for src, label, _ in model.edges if label.kind is fault}
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

    for src, dst in sorted(model.time):
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
        self._silent, self._ext, self._obs = model._silent, model._ext, model.obs
        self._names = tuple(a.name for a in model.external_actions)

    def __missing__(self, key):
        c, name = key
        if name not in self._names or c not in range(len(self._obs)):
            raise KeyError(key)
        closure = unobservable_closure(self, (c,))
        ext, obs = self._ext, self._obs
        for a in self._names:
            self[(c, a)] = sorted({(d, obs[d]) for mid in closure for d in ext.get((mid, a), ())})
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
    ids, faulty, initial, obs = _columns(model.classes, 4)
    names, kinds = _columns(model.actions, 2)
    srcs, labels, dsts = _columns(model.edges, 3)
    time_srcs, time_dsts = _columns(sorted(model.time), 2)
    return '{"classes":[%s],"actions":[%s],"edges":[%s],"time":[%s]}\n' % (
        _json_rows(
            "[%s,%s,%s,%s]", _json_texts(ids, int), _json_texts(faulty, bool),
            _json_texts(initial, bool), _json_texts(obs, int),
        ),
        _json_rows("[%s,%s]", _json_texts(names, str), _json_texts(kinds, Kind)),
        _json_rows(
            "[%s,%s,%s]", _json_texts(srcs, int), _json_texts(_columns(labels, 2)[0], str),
            _json_texts(dsts, int),
        ),
        _json_rows("[%s,%s]", _json_texts(time_srcs, int), _json_texts(time_dsts, int)),
    )
