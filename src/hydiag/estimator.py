"""Deterministic state estimator built by subset construction.

The estimator tracks, after each observed external action, the set of
quotient classes consistent with everything seen so far.  Its states are
canonically encoded member sets; only the fragment reachable from the
initial estimates is built, since the full powerset is both intractable
and irrelevant for diagnosability.  ``estimate_walker`` builds less
still: only the estimates the traces it is asked step out of.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import CapExceeded, ModelFormatError
from .graphs import explore
from .quotient import _as_object, _dumps_json, _excerpt, _int_literal, _member, _require_keys
from .quotient import _rows, external_moves

DEFAULT_MAX_STATES = 1_000_000


class Classification(str, Enum):
    FAULTY = "faulty"
    NONFAULTY = "nonfaulty"
    INDETERMINATE = "indeterminate"


def classify(members, model):
    """Faulty if all members are faulty, non-faulty if none, else indeterminate."""
    members = tuple(members)
    if not members:
        raise ValueError("cannot classify an empty estimate")
    flags = {model.faulty[c] for c in members}
    if flags == {True}:
        return Classification.FAULTY
    if flags == {False}:
        return Classification.NONFAULTY
    return Classification.INDETERMINATE


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


def initial_estimates(model):
    """Initial classes grouped by their observable.

    Observables with no initial class get no entry: before any action the
    observer sees exactly one cell, and only cells containing an initial
    class are consistent with it.
    """
    groups = {}
    for c in model.initial_classes:
        groups.setdefault(model.obs[c], []).append(c)
    return {
        obs: EstimatorState(tuple(sorted(members)), classify(members, model))
        for obs, members in sorted(groups.items())
    }


def _successor_rule(model, expand_faulty):
    """The estimator's successor rule, shared by the full build and the
    on-demand walk: ``successors(members)`` yields ``((action, obs),
    members)`` pairs, actions in declaration order, then observables
    ascending.

    Each class's rows are read from ``external_moves`` once per rule; a
    successor estimate merges its members' target sets whole.  With
    ``expand_faulty=False`` an all-faulty estimate has no successors.
    """
    moves = external_moves(model)
    faulty = model.faulty
    names = [a.name for a in model.external_actions]
    # Per class, its rows grouped once: ((action index, obs), frozenset of targets).
    groups = [None] * len(model.classes)

    def grouped(c):
        by_key = {}
        for i, name in enumerate(names):
            for dst, obs in moves[(c, name)]:
                by_key.setdefault((i, obs), []).append(dst)
        groups[c] = rows = [(key, frozenset(dsts)) for key, dsts in by_key.items()]
        return rows

    def successors(members):
        if not expand_faulty and all(faulty[c] for c in members):
            return
        buckets = {}
        for c in members:
            rows = groups[c]
            if rows is None:
                rows = grouped(c)
            for key, dsts in rows:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = set(dsts)
                else:
                    bucket |= dsts
        for key in sorted(buckets):
            yield (names[key[0]], key[1]), tuple(sorted(buckets[key]))

    return successors


def build_estimator(model, *, expand_faulty=True):
    """Subset construction over the reachable estimates.

    Deterministic: states are numbered in BFS discovery order with
    observables and actions visited in a fixed order, so repeated builds
    yield identical graphs.  Raises CapExceeded beyond ``DEFAULT_MAX_STATES``
    (the reachable part may still be exponential in the class count).

    With ``expand_faulty=False`` an all-faulty estimate is kept as a leaf:
    it is numbered but gets no transitions.  Faults are irreversible in a
    valid model, so such an estimate only leads to all-faulty estimates,
    and deciding diagnosability reads none of them.  The non-faulty and
    indeterminate states keep their members, transitions and relative
    order; only the ids of the faulty states change.
    """
    initial = initial_estimates(model)
    starts = [st.members for st in initial.values()]
    successors = _successor_rule(model, expand_faulty)
    nodes, start_ids, edges = explore(starts, successors, DEFAULT_MAX_STATES, "estimator states")
    # The starts are distinct, so the initial estimates are the first states.
    states = list(initial.values())
    states += [EstimatorState(m, classify(m, model)) for m in nodes[len(states):]]
    transitions = {(sid, a, obs): tid for sid, row in enumerate(edges) for (a, obs), tid in row}
    return EstimatorGraph(states, dict(zip(initial, start_ids)), transitions, model)


def estimate_walker(model):
    """The estimator of ``model``, built on demand for the traces it is asked.

    Returns ``members(head, steps)``: the member tuple of the estimate
    after the initial observable ``head`` and then each ``(action, obs)``
    of ``steps``, or None when ``head`` has no initial estimate or a step
    has no move.  It agrees with ``walk`` on ``build_estimator(model)``.
    Each member set is expanded once, on the first step taken from it;
    past ``DEFAULT_MAX_STATES`` expanded sets it raises CapExceeded.
    """
    successors = _successor_rule(model, True)
    initials = {obs: st.members for obs, st in initial_estimates(model).items()}
    expanded = {}  # members -> {(action, obs): successor members}

    def members(head, steps):
        current = initials.get(head)
        for step in steps:
            if current is None:
                return None
            row = expanded.get(current)
            if row is None:
                if len(expanded) >= DEFAULT_MAX_STATES:
                    raise CapExceeded("estimator states", len(expanded) + 1, DEFAULT_MAX_STATES)
                row = expanded[current] = dict(successors(current))
            current = row.get(step)
        return current

    return members


def walk(graph, head, steps):
    """The state ids an estimator or diagnoser graph passes through on
    the initial observable ``head`` and then each ``(action, obs)`` of
    ``steps``; None when ``head`` has no initial state or a step has no
    move."""
    ids = [graph.initials.get(head)]
    for action, obs in steps:
        if ids[-1] is None:
            return None
        ids.append(graph.transitions.get((ids[-1], action, obs)))
    return None if ids[-1] is None else ids


def _graph_data(graph):
    """The estimator-schema dict of an estimator or diagnoser graph."""
    return {
        "states": [
            {"id": i, "members": list(s.members), "class": s.classification.value}
            for i, s in enumerate(graph.states)
        ],
        "initials": {str(obs): sid for obs, sid in sorted(graph.initials.items())},
        "transitions": [
            {"src": src, "action": action, "obs": obs, "dst": dst}
            for (src, action, obs), dst in sorted(graph.transitions.items())
        ],
    }


def dumps_estimator(est):
    """Serialize an estimator graph to its JSON export format."""
    return _dumps_json(_graph_data(est))


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


def _parse_graph_json(data, what, extra_keys=frozenset()):
    """Shared loader for the estimator schema (also used by diagnoser files)."""
    _require_keys(data, {"states", "initials", "transitions"} | extra_keys, what)

    states = []
    for i, (sid, members, cls) in enumerate(_rows(data["states"], "states", _STATE_SCHEMA)):
        if sid != i:
            raise ModelFormatError(f"states[{i}].id must be {i}")
        if set(map(type, members)) - {int}:
            raise ModelFormatError(f"states[{i}].members must be integers")
        states.append(
            EstimatorState(tuple(members), _member(Classification, cls, f"states[{i}].class"))
        )

    n = len(states)
    initials = {}
    for obs, sid in _as_object(data["initials"], "initials").items():
        initials[_key_int(obs, "initials")] = _state_id(sid, n, "initials", obs)

    transitions = {}
    rows = _rows(data["transitions"], "transitions", _TRANSITION_SCHEMA)
    for i, (src, action, obs, dst) in enumerate(rows):
        if not (0 <= src < n and 0 <= dst < n):
            raise ModelFormatError(f"transitions[{i}] out of range")
        if (src, action, obs) in transitions:
            first = next(j for j, row in enumerate(rows) if row[:3] == (src, action, obs))
            raise ModelFormatError(f"transitions[{i}] repeats the move of transitions[{first}]")
        transitions[(src, action, obs)] = dst
    return states, initials, transitions
